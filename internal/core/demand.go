package core

import (
	"math"

	"repro/internal/stats"
)

// CrossingHomog returns the moment-matched distribution of the bandwidth a
// homogeneous request places on a link that splits its N VMs into groups of
// m and N-m. Per the paper (Section IV-A) this is min(B(m), B(N-m)) where
// B(k) ~ N(k*mu, k*sigma^2) is the aggregate demand of k i.i.d. VMs; when
// either side is empty no traffic crosses the link and the demand is the
// point mass at zero.
func CrossingHomog(demand stats.Normal, m, n int) stats.Normal {
	if m <= 0 || m >= n {
		return stats.Normal{}
	}
	return crossing(demand.Sum(m), demand.Sum(n-m))
}

// CrossingSets returns the moment-matched distribution of the bandwidth a
// heterogeneous request places on a link that splits its VMs into two
// groups with the given aggregate demand distributions (paper Section V-A):
// the min of the two aggregates. When either aggregate is the zero point
// mass, no traffic crosses.
func CrossingSets(inside, outside stats.Normal) stats.Normal {
	if isZero(inside) || isZero(outside) {
		return stats.Normal{}
	}
	return crossing(inside, outside)
}

// crossing is the one rule for the bandwidth a split puts on a link
// (Lemma 1): Clark's moment-matched min of the two sides' aggregates, with
// its mean clamped at 0. The min is a bandwidth, but the matched mean goes
// negative once a side's sigma dwarfs its mean (sigma > 1.77 mu at a 1/1
// split); a negative mean would understate the link's load in every Eq. 4
// check and, committed, leave a per-link sum NewManagerFromState refuses.
// Wherever the mean is nonnegative this is MinOfNormals bit for bit.
func crossing(inside, outside stats.Normal) stats.Normal {
	d := stats.MinOfNormals(inside, outside)
	if d.Mu < 0 {
		d.Mu = 0
	}
	return d
}

func isZero(n stats.Normal) bool { return n.Mu == 0 && n.Sigma == 0 }

// canonDemand canonicalizes a per-VM demand for use in memo keys: negative
// moments are clamped to zero and NaNs collapse to the zero demand. The
// allocators only see requests that passed Validate (which rejects negative
// and NaN moments), so canonicalization is the identity on every demand
// that reaches a DP — but memo keys must not trust that: a key built from
// the raw value would give two equal effective demands distinct cache
// entries, or worse, let a NaN key shadow a real one. Keys and the DP
// input use the same canonical value so cached and cold plans stay
// bit-identical.
func canonDemand(d stats.Normal) stats.Normal {
	if math.IsNaN(d.Mu) || math.IsNaN(d.Sigma) {
		return stats.Normal{}
	}
	if d.Mu < 0 {
		d.Mu = 0
	}
	if d.Sigma < 0 {
		d.Sigma = 0
	}
	return d
}

// crossingTableHomog appends a homogeneous request's crossing-demand
// table to dst: entry m is CrossingHomog(demand, m, n), for m in [0, n].
func crossingTableHomog(dst []stats.Normal, demand stats.Normal, n int) []stats.Normal {
	for m := 0; m <= n; m++ {
		dst = append(dst, CrossingHomog(demand, m, n))
	}
	return dst
}

// demandPrefix precomputes prefix aggregates over an ordered VM sequence so
// that the aggregate demand of any contiguous substring — and therefore the
// crossing demand of any substring split — is available in O(1). It backs
// both heterogeneous allocators.
type demandPrefix struct {
	mu  []float64 // mu[i] = sum of means of VMs [0, i)
	vr  []float64 // vr[i] = sum of variances of VMs [0, i)
	all stats.Normal
}

func newDemandPrefix(demands []stats.Normal, order []int) *demandPrefix {
	p := new(demandPrefix)
	p.reset(demands, order)
	return p
}

// reset rebuilds the aggregates, reusing the slices, for the sequence
// demands[order[0]], demands[order[1]], ..., each canonicalized
// (canonDemand).
func (p *demandPrefix) reset(demands []stats.Normal, order []int) {
	p.mu = append(p.mu[:0], 0)
	p.vr = append(p.vr[:0], 0)
	for i, idx := range order {
		d := canonDemand(demands[idx])
		p.mu = append(p.mu, p.mu[i]+d.Mu)
		p.vr = append(p.vr, p.vr[i]+d.Var())
	}
	p.all = p.aggregate(0, len(order))
}

// aggregate returns the distribution of the summed demand of VMs [a, b).
func (p *demandPrefix) aggregate(a, b int) stats.Normal {
	return stats.Normal{
		Mu:    p.mu[b] - p.mu[a],
		Sigma: sqrtNonNeg(p.vr[b] - p.vr[a]),
	}
}

// crossing returns the crossing demand of a link whose inside group is the
// substring [a, b) and whose outside group is the remaining VMs.
func (p *demandPrefix) crossing(a, b int) stats.Normal {
	inside := p.aggregate(a, b)
	outside := stats.Normal{
		Mu:    p.all.Mu - inside.Mu,
		Sigma: sqrtNonNeg(p.all.Var() - inside.Var()),
	}
	return CrossingSets(inside, outside)
}
