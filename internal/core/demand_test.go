package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestCrossingHomogBoundary(t *testing.T) {
	d := stats.Normal{Mu: 100, Sigma: 30}
	for _, m := range []int{0, 10, -1, 15} {
		if got := CrossingHomog(d, m, 10); !isZero(got) {
			t.Errorf("CrossingHomog(m=%d, n=10) = %v, want zero", m, got)
		}
	}
}

func TestCrossingHomogDeterministic(t *testing.T) {
	d := stats.Normal{Mu: 10} // the paper's Fig. 3 request bandwidth
	got := CrossingHomog(d, 2, 6)
	if got.Mu != 20 || got.Sigma != 0 {
		t.Errorf("det crossing(2,6) = %v, want N(20, 0)", got)
	}
	got = CrossingHomog(d, 3, 6)
	if got.Mu != 30 || got.Sigma != 0 {
		t.Errorf("det crossing(3,6) = %v, want N(30, 0)", got)
	}
}

// TestCrossingHomogSymmetric checks crossing(m) == crossing(n-m), since the
// link sees the min of the two sides either way.
func TestCrossingHomogSymmetric(t *testing.T) {
	f := func(mRaw, nRaw uint8, muRaw, sigmaRaw uint8) bool {
		n := int(nRaw)%60 + 2
		m := int(mRaw) % (n + 1)
		d := stats.Normal{Mu: float64(muRaw) + 1, Sigma: float64(sigmaRaw) / 8}
		a := CrossingHomog(d, m, n)
		b := CrossingHomog(d, n-m, n)
		return math.Abs(a.Mu-b.Mu) < 1e-9*(1+math.Abs(a.Mu)) &&
			math.Abs(a.Sigma-b.Sigma) < 1e-9*(1+a.Sigma)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCrossingHomogBelowSmallerSide checks the crossing mean never exceeds
// the smaller side's aggregate mean (the min can only pull it down).
func TestCrossingHomogBelowSmallerSide(t *testing.T) {
	f := func(mRaw, nRaw uint8, sigmaRaw uint8) bool {
		n := int(nRaw)%60 + 2
		m := int(mRaw)%(n-1) + 1
		d := stats.Normal{Mu: 100, Sigma: float64(sigmaRaw)}
		cross := CrossingHomog(d, m, n)
		smaller := float64(min(m, n-m)) * d.Mu
		return cross.Mu <= smaller+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCrossingSets(t *testing.T) {
	in := stats.Normal{Mu: 100, Sigma: 10}
	out := stats.Normal{Mu: 400, Sigma: 20}
	got := CrossingSets(in, out)
	want := stats.MinOfNormals(in, out)
	if got != want {
		t.Errorf("CrossingSets = %v, want %v", got, want)
	}
	if got := CrossingSets(stats.Normal{}, out); !isZero(got) {
		t.Errorf("empty inside: %v, want zero", got)
	}
	if got := CrossingSets(in, stats.Normal{}); !isZero(got) {
		t.Errorf("empty outside: %v, want zero", got)
	}
}

func TestDemandPrefix(t *testing.T) {
	demands := []stats.Normal{
		{Mu: 100, Sigma: 10},
		{Mu: 200, Sigma: 20},
		{Mu: 300, Sigma: 30},
	}
	p := newDemandPrefix(demands, []int{0, 1, 2})
	agg := p.aggregate(0, 3)
	if agg.Mu != 600 {
		t.Errorf("aggregate mean = %v, want 600", agg.Mu)
	}
	wantVar := 100.0 + 400 + 900
	if math.Abs(agg.Var()-wantVar) > 1e-9 {
		t.Errorf("aggregate var = %v, want %v", agg.Var(), wantVar)
	}
	mid := p.aggregate(1, 2)
	if mid.Mu != 200 || math.Abs(mid.Sigma-20) > 1e-12 {
		t.Errorf("aggregate(1,2) = %v, want N(200, 20^2)", mid)
	}
	if got := p.aggregate(2, 2); !isZero(got) {
		t.Errorf("empty aggregate = %v, want zero", got)
	}
}

// TestDemandPrefixCrossingMatchesDirect cross-checks the O(1) prefix
// crossing against a direct aggregate computation.
func TestDemandPrefixCrossingMatchesDirect(t *testing.T) {
	demands := []stats.Normal{
		{Mu: 150, Sigma: 40}, {Mu: 250, Sigma: 60}, {Mu: 350, Sigma: 10},
		{Mu: 100, Sigma: 90}, {Mu: 500, Sigma: 5},
	}
	p := newDemandPrefix(demands, []int{0, 1, 2, 3, 4})
	for a := 0; a <= len(demands); a++ {
		for b := a; b <= len(demands); b++ {
			var inMu, inVar, outMu, outVar float64
			for i, d := range demands {
				if i >= a && i < b {
					inMu += d.Mu
					inVar += d.Var()
				} else {
					outMu += d.Mu
					outVar += d.Var()
				}
			}
			want := CrossingSets(
				stats.Normal{Mu: inMu, Sigma: math.Sqrt(inVar)},
				stats.Normal{Mu: outMu, Sigma: math.Sqrt(outVar)},
			)
			got := p.crossing(a, b)
			if math.Abs(got.Mu-want.Mu) > 1e-9 || math.Abs(got.Sigma-want.Sigma) > 1e-9 {
				t.Errorf("crossing(%d,%d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestCrossingFullAndEmptySubstringIsZero: when the substring holds all or
// none of the VMs, no traffic crosses the link.
func TestCrossingFullAndEmptySubstringIsZero(t *testing.T) {
	p := newDemandPrefix([]stats.Normal{{Mu: 100, Sigma: 10}, {Mu: 50, Sigma: 5}}, []int{0, 1})
	if got := p.crossing(0, 2); !isZero(got) {
		t.Errorf("full substring crossing = %v, want zero", got)
	}
	if got := p.crossing(1, 1); !isZero(got) {
		t.Errorf("empty substring crossing = %v, want zero", got)
	}
}

// TestCrossingMeanNeverNegative: over seeded random demands with sigma up
// to 10 mu, neither crossing function returns a negative mean, and
// wherever Clark's moment-matched mean is nonnegative both are
// MinOfNormals bit for bit. Where it is negative, only the mean moves: to
// zero.
func TestCrossingMeanNeverNegative(t *testing.T) {
	r := stats.NewRand(35)
	draw := func(k int) stats.Normal {
		mu := r.UniformRange(0, 100) * float64(k)
		return stats.Normal{Mu: mu, Sigma: r.UniformRange(0, 10*mu)}
	}
	bits := func(d stats.Normal) [2]uint64 { return [2]uint64{math.Float64bits(d.Mu), math.Float64bits(d.Sigma)} }
	clamped := 0
	check := func(what string, got, clark stats.Normal) {
		t.Helper()
		want := clark
		if clark.Mu < 0 {
			want.Mu = 0
			clamped++
		}
		if got.Mu < 0 || bits(got) != bits(want) {
			t.Fatalf("%s = %+v, want %+v (Clark's min %+v)", what, got, want, clark)
		}
	}
	for trial := 0; trial < 5000; trial++ {
		d := draw(1)
		n := r.UniformInt(2, 60)
		m := r.UniformInt(1, n-1)
		check("CrossingHomog", CrossingHomog(d, m, n), stats.MinOfNormals(d.Sum(m), d.Sum(n-m)))
		in, out := draw(r.UniformInt(1, 8)), draw(r.UniformInt(1, 8))
		check("CrossingSets", CrossingSets(in, out), stats.MinOfNormals(in, out))
	}
	if clamped == 0 {
		t.Fatal("no draw had a negative matched mean: the property went unexercised")
	}
}
