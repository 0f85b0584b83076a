package core

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// TestProbabilisticGuaranteeMonteCarlo validates the framework end to end:
// pack a link with admitted SVC demands under eps, then draw per-VM demands
// and measure how often the realized crossing traffic exceeds the stochastic
// sharing bandwidth. The empirical outage probability must stay near (and,
// for the normal model, at most about) eps.
//
// The realized crossing traffic of one virtual cluster is
// min(sum inside-VM demands, sum outside-VM demands) — exactly the quantity
// whose moment-matched distribution the ledger reserves.
//
// This loop is the independent reference for Audit, the repository's one
// Monte Carlo estimator over placements: it reads no placement and no
// exported state, and checks Lemma 1 against raw draws on a bare ledger.
// Keep it hand-written; routing it through Audit would leave the
// estimator checking itself.
func TestProbabilisticGuaranteeMonteCarlo(t *testing.T) {
	const (
		eps     = 0.10
		samples = 30000
	)
	tp := mustTopo(topology.Spec{Children: []topology.Spec{
		{UpCap: 2000, Slots: 64},
		{UpCap: 2000, Slots: 64},
	}})
	led := newTestLedger(t, tp, eps)
	link := tp.Machines()[0]

	// Admit crossing demands for 8-VM jobs split 3/5 until the admission
	// condition stops us. Track each job's split so the simulation can
	// redraw its VM demands.
	type job struct {
		demand stats.Normal
		m, n   int
	}
	profile := stats.Normal{Mu: 60, Sigma: 30}
	var jobs []job
	for {
		d := CrossingHomog(profile, 3, 8)
		if led.OccupancyWith(link, d) >= 1 {
			break
		}
		led.AddStochastic(link, d)
		jobs = append(jobs, job{demand: profile, m: 3, n: 8})
	}
	if len(jobs) < 3 {
		t.Fatalf("admitted only %d jobs; test needs statistical multiplexing to engage", len(jobs))
	}

	r := stats.NewRand(20140707)
	capacity := tp.LinkCap(link) // S_L = C_L here (no deterministic load)
	outages := 0
	for s := 0; s < samples; s++ {
		var total float64
		for _, j := range jobs {
			var inside, outside float64
			for v := 0; v < j.m; v++ {
				inside += r.Normal(j.demand)
			}
			for v := 0; v < j.n-j.m; v++ {
				outside += r.Normal(j.demand)
			}
			if outside < inside {
				inside = outside
			}
			if inside > 0 {
				total += inside
			}
		}
		if total > capacity {
			outages++
		}
	}
	got := float64(outages) / samples
	// The reservation uses a moment-matched normal for the min-of-sums,
	// which is slightly conservative in the upper tail; allow eps plus a
	// small Monte Carlo margin.
	if got > eps+0.03 {
		t.Errorf("empirical outage probability %.4f exceeds eps %.2f", got, eps)
	}
	if got == 0 {
		t.Error("outage probability 0: the link is not actually near its admission boundary")
	}
	t.Logf("admitted %d jobs; empirical outage probability %.4f (eps %.2f)", len(jobs), got, eps)
}

// TestGuaranteeTightensWithSmallerEps: a stricter risk factor admits fewer
// demands on the same link.
func TestGuaranteeTightensWithSmallerEps(t *testing.T) {
	tp := mustTopo(topology.Spec{Children: []topology.Spec{
		{UpCap: 2000, Slots: 64},
		{UpCap: 2000, Slots: 64},
	}})
	link := tp.Machines()[0]
	admit := func(eps float64) int {
		led := newTestLedger(t, tp, eps)
		profile := stats.Normal{Mu: 60, Sigma: 30}
		d := CrossingHomog(profile, 3, 8)
		k := 0
		for led.OccupancyWith(link, d) < 1 {
			led.AddStochastic(link, d)
			k++
		}
		return k
	}
	loose, strict := admit(0.10), admit(0.02)
	if strict >= loose {
		t.Errorf("eps=0.02 admitted %d, eps=0.10 admitted %d; want strictly fewer", strict, loose)
	}
}
