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
	return stats.MinOfNormals(demand.Sum(m), demand.Sum(n-m))
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
	return stats.MinOfNormals(inside, outside)
}

func isZero(n stats.Normal) bool { return n.Mu == 0 && n.Sigma == 0 }

// canonDemand canonicalizes a per-VM demand for use in memo keys: negative
// moments are clamped to zero and NaNs collapse to the zero demand. The
// allocators only see requests that passed Validate (which rejects negative
// and NaN moments), so canonicalization is the identity on every demand
// that reaches a DP — but memo keys must not trust that: the moment-matched
// hetero min path clamps negative mu at contribution time (see
// heteroContributions), and a key built from the raw value would give two
// equal effective demands distinct cache entries, or worse, let a NaN key
// shadow a real one. Keys and the DP input use the same canonical value so
// cached and cold plans stay bit-identical.
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

func newDemandPrefix(demands []stats.Normal) *demandPrefix {
	p := new(demandPrefix)
	p.reset(demands)
	return p
}

// reset rebuilds the aggregates for a new sequence, reusing the slices.
func (p *demandPrefix) reset(demands []stats.Normal) {
	p.mu = append(p.mu[:0], 0)
	p.vr = append(p.vr[:0], 0)
	for i, d := range demands {
		p.mu = append(p.mu, p.mu[i]+d.Mu)
		p.vr = append(p.vr, p.vr[i]+d.Var())
	}
	p.all = p.aggregate(0, len(demands))
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
