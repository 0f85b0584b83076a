package core

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// refUncovered is the empty-link refusal at risk constant c by brute
// force, sign aside: S and C from a scan of the machines, and each VM
// position tested against every substring of at most S VMs that holds it,
// with cross(a, b) the crossing demand of the VMs [a, b). It returns how
// many VMs no such substring carries on an empty host link of capacity C,
// 0 when there is no host link or n <= S.
func refUncovered(topo *topology.Topology, c float64, n int, cross func(a, b int) stats.Normal) (uncovered int) {
	s, hostCap := 0, 0.0
	for _, m := range topo.Machines() {
		s = max(s, topo.Node(m).Slots)
		if m != topo.Root() {
			hostCap = max(hostCap, topo.LinkCap(m))
		}
	}
	if hostCap == 0 || n <= s {
		return 0
	}
	for p := 0; p < n; p++ {
		covered := false
		for a := max(0, p-s+1); a <= p && !covered; a++ {
			for b := p + 1; b <= min(n, a+s) && !covered; b++ {
				d := cross(a, b)
				covered = (d.Mu+c*math.Sqrt(d.Var()))/hostCap < 1
			}
		}
		if !covered {
			uncovered++
		}
	}
	return uncovered
}

// TestEmptyLinkRefusalIsExact binds tables as plans do over random trees
// (mixed host capacities and slot counts) and the paper tree, on random
// load with failed machines and links, scoped and unscoped, at eps in
// {0.05, 0.5, 0.7}, for homogeneous requests with and without repair
// inputs and substring-DP requests of up to 12 VMs. The verdict must be
// refUncovered's — which is off for c < 0 and for a repair that pins VMs or
// relaxes Eq. 4 — and whenever it refuses, settle must find nothing and
// the full DP (settle with the refusal off) must find no subtree either.
func TestEmptyLinkRefusalIsExact(t *testing.T) {
	r := stats.NewRand(4040)
	paper, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	var homog, hetero, partial, negC, repairs int
	for trial := 0; trial < 3000; trial++ {
		tp, maxN, mu := randomTopology(r), 24, []float64{40, 100, 200}[r.IntN(3)]
		if trial%30 == 0 {
			tp, maxN, mu = paper, 120, []float64{400, 1200}[r.IntN(2)]
		}
		eps := []float64{0.05, 0.5, 0.7}[r.IntN(3)]
		c := randomSettleCase(r, tp, maxN, 12, mu, eps)
		n, cross := c.req.N, func(a, b int) stats.Normal { return CrossingHomog(canonDemand(c.req.Demand), b-a, c.req.N) }
		if len(c.hetero.Demands) > 0 {
			order := orderByPercentile(c.hetero)
			n, cross = len(order), newDemandPrefix(c.hetero.Demands, order).crossing
		}
		// The verdict a refusal that ignored c's sign and the repair
		// inputs would reach, and the one it must reach.
		want := refUncovered(tp, c.led.RiskConstant(), n, cross)
		switch {
		case want > 0 && c.led.RiskConstant() < 0:
			negC, want = negC+1, 0
		case want > 0 && (len(c.pins) > 0 || c.relax):
			repairs, want = repairs+1, 0
		}
		tb := c.table()
		d := tb.table()
		if d.refused != (want > 0) {
			t.Fatalf("trial %d (req %v, hetero %v, eps %v, pins %v, relax %v): refused %v, but %d VMs lie in no substring an empty host link carries",
				trial, c.req, c.hetero, eps, c.pins, c.relax, d.refused, want)
		}
		if !d.refused {
			continue
		}
		if got := c.settleOn(tb, (*dpTable).settle); got.best != topology.None {
			t.Fatalf("trial %d: a refused table settled at %d", trial, got.best)
		}
		d.refused = false
		if full := c.settleOn(tb, (*dpTable).settle); full.best != topology.None {
			t.Fatalf("trial %d (req %v, hetero %v, eps %v, scoped %v): refused, but the full DP places %v at %d",
				trial, c.req, c.hetero, eps, c.scope != nil, &full.p, full.best)
		}
		if len(c.hetero.Demands) > 0 {
			hetero++
			if want < n {
				partial++
			}
		} else {
			homog++
		}
	}
	// The cases must reach every regime the verdict turns on.
	if homog < 100 || hetero < 80 || partial < 50 || negC < 40 || repairs < 70 {
		t.Errorf("weak coverage: %d homogeneous and %d heterogeneous refusals (%d with some VM covered), %d c < 0 and %d repair cases the refusal would otherwise judge",
			homog, hetero, partial, negC, repairs)
	}
	t.Logf("%d homogeneous and %d heterogeneous refusals (%d with some VM covered), %d c < 0 and %d repair cases the refusal would otherwise judge",
		homog, hetero, partial, negC, repairs)

	// A root that is the only machine has no host link: nothing is judged,
	// and the DP alone turns the oversized request away.
	tp, err := topology.NewFromSpec(topology.Spec{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	led := newTestLedger(t, tp, 0.05)
	ht, st := new(homogTable), new(substrTable)
	ht.reset(led, nil, Homogeneous{N: 6, Demand: stats.Normal{Mu: 1e9}}, MinMaxOccupancy, true)
	big := Heterogeneous{Demands: []stats.Normal{{Mu: 1e9}, {Mu: 1e9}, {Mu: 1e9}, {Mu: 1e9}, {Mu: 1e9}}}
	st.reset(led, nil, big, orderByPercentile(big), MinMaxOccupancy)
	if ht.refused || st.refused {
		t.Errorf("root-only machine: refused %v (homogeneous), %v (substring)", ht.refused, st.refused)
	}
	if _, _, err := ht.settle(led, nil); err == nil {
		t.Error("root-only machine: 6 VMs placed on 4 slots")
	}
}
