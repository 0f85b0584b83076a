package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// refSettle is dpTable.settle as it stood before candidates were bounded,
// verbatim but for its name and the capacity bound it takes and ignores:
// every candidate of a level is ensured and read in topology order.
// TestSettleMatchesReference holds the bounded settle to the same picks.
func (t *dpTable) refSettle(led *Ledger, scope *planScope, need, whole int, policy Policy,
	within func([]topology.NodeID) []topology.NodeID, compute kernel, _ boundKernel) (best topology.NodeID, recomputed int) {
	topo, recs := led.Topology(), t.cachedRecords()
	t.syncEpoch(led)
	best = topology.None
	for level := t.lowest; level <= scopeHeight(topo, scope); level++ {
		verts := scopeAtLevel(topo, scope, level)
		if within != nil {
			verts = within(verts)
		}
		bestVal := infeasible
		for _, v := range verts {
			if recs[v].cells <= whole {
				continue
			}
			recomputed += t.ensure(led, topo, v, compute)
			if recs[v].cap < need {
				continue
			}
			optIn, _, _ := t.rows(&recs[v])
			if val := optIn[whole]; val != infeasible && (best == topology.None || val < bestVal) {
				best, bestVal = v, val
				if level == 0 || policy == FirstFeasible {
					break
				}
			}
		}
		if best != topology.None {
			break
		}
	}
	return best, recomputed
}

type settleFunc func(t *dpTable, led *Ledger, scope *planScope, need, whole int, policy Policy,
	within func([]topology.NodeID) []topology.NodeID, compute kernel, bound boundKernel) (topology.NodeID, int)

// settled is what one settle decided: its pick and the placement built
// there (none when the pick is None, the ErrNoCapacity case).
type settled struct {
	best       topology.NodeID
	p          Placement
	recomputed int
}

// settleCase is one plan input: kernelCase's ledger, homogeneous request
// and repair inputs, or instead a substring-DP request when hetero has
// demands, under an optional scope.
type settleCase struct {
	kernelCase
	hetero Heterogeneous
	scope  *planScope
}

// table returns a table bound to the case's request as a plan binds it,
// none of its records filled. A table the empty-link refusal turned away
// is laid out all the same, with no host-link bound on dpRec.top, as the
// -tags invariants re-run lays it out, and stays refused: settle finds
// nothing on it, and refSettle runs the full DP.
func (c *settleCase) table() planner {
	topo := c.led.Topology()
	var tb planner
	if len(c.hetero.Demands) > 0 {
		t := new(substrTable)
		t.reset(c.led, c.scope, c.hetero, orderByPercentile(c.hetero), c.policy)
		tb = t
	} else {
		t := new(homogTable)
		t.reset(c.led, c.scope, c.req, c.policy, !c.relax && len(c.pins) == 0)
		t.relax = c.relax
		for m, n := range c.pins {
			t.pin(topo, m, n)
		}
		tb = t
	}
	if d := tb.table(); d.refused {
		d.hostTop = d.n
		d.layout(topo, c.scope)
	}
	return tb
}

// settleOn runs settle on table tb for the case's request and builds the
// placement at its pick.
func (c *settleCase) settleOn(tb planner, settle settleFunc) settled {
	topo := c.led.Topology()
	var out settled
	switch t := tb.(type) {
	case *homogTable:
		out.best, out.recomputed = settle(&t.dpTable, c.led, c.scope, t.req.N, t.req.N, t.policy, t.holdingPins, t.compute, t.capBound)
		if out.best != topology.None {
			t.build(topo, out.best, t.req.N, &out.p)
		}
	case *substrTable:
		out.best, out.recomputed = settle(&t.dpTable, c.led, c.scope, t.n, t.idx(t.n, 0), t.policy, nil, t.compute, nil)
		if out.best != topology.None {
			t.build(topo, out.best, 0, t.n, &out.p)
		}
	}
	out.p.normalize()
	return out
}

// randomSettleCase draws a loaded ledger at risk factor eps (the loading
// of randomKernelCase), either its homogeneous request with repair inputs
// or a substring-DP request of up to maxHetero VMs, and, half the time, a
// scope rooted at a random vertex above the machines; pins outside the
// scope are dropped. A third of the requests have sigma up to 5 mu.
func randomSettleCase(r *stats.Rand, tp *topology.Topology, maxN, maxHetero int, mu, eps float64) settleCase {
	c := settleCase{kernelCase: randomKernelCase(r, tp, maxN, mu, eps)}
	if r.Float64() < 0.5 && tp.Height() > 0 {
		level := r.UniformInt(1, tp.Height())
		verts := tp.AtLevel(level)
		scope, err := newPlanScope(tp, verts[r.IntN(len(verts))])
		if err != nil {
			panic(err)
		}
		c.scope = scope
		inScope := map[topology.NodeID]bool{}
		for _, m := range scope.levels[0] {
			inScope[m] = true
		}
		for m := range c.pins {
			if !inScope[m] {
				delete(c.pins, m)
			}
		}
	}
	spread := 0.5 // sigma up to spread x mu; above about 2, c < 0 makes a crossing lower occupancy
	if r.Float64() < 0.3 {
		spread = 5
		c.req.Demand.Sigma = r.UniformRange(0, spread) * c.req.Demand.Mu
	}
	if r.Float64() < 0.3 {
		c.pins, c.relax = nil, false
		n := r.UniformInt(1, min(maxHetero, tp.TotalSlots()))
		for i := 0; i < n; i++ {
			m := r.UniformRange(0.1*mu, mu)
			c.hetero.Demands = append(c.hetero.Demands, stats.Normal{Mu: m, Sigma: r.UniformRange(0, spread) * m})
		}
	}
	return c
}

// churn moves the ledger under a table that has planned: a few machines
// (none pinned) take or free slots, a few links gain or lose load, and now
// and then a machine fails or a failed machine or link comes back, which
// moves the fault epoch but no subtree version.
func (c *settleCase) churn(r *stats.Rand) {
	tp := c.led.Topology()
	machines, links := tp.Machines(), tp.Links()
	for i := r.UniformInt(1, 4); i > 0; i-- {
		m := machines[r.IntN(len(machines))]
		switch {
		case c.pins[m] > 0:
		case c.led.FreeSlots(m) > 0 && r.Float64() < 0.5:
			c.led.UseSlots(m, 1)
		case c.led.used[m] > 0:
			c.led.ReleaseSlots(m, 1)
		}
	}
	for i := r.UniformInt(1, 4); i > 0; i-- {
		link := links[r.IntN(len(links))]
		if b := 0.2 * tp.LinkCap(link); r.Float64() < 0.5 {
			c.led.AddDet(link, b)
		} else {
			c.led.RemoveDet(link, b)
		}
	}
	faults := c.led.Faults()
	switch r.IntN(10) {
	case 0:
		faults.FailMachine(machines[r.IntN(len(machines))])
	case 1:
		for _, m := range machines {
			if faults.RestoreMachine(m) {
				break
			}
		}
	case 2:
		for _, link := range links {
			if faults.RestoreLink(link) {
				break
			}
		}
	}
}

// TestSettleMatchesReference holds the bounded settle to the one it
// replaced (refSettle): on random ledgers over random trees and the paper
// tree, for both DPs, all three policies, repair pins and the relaxed
// pass, scoped and unscoped plans, and eps in {0.05, 0.5, 0.7} — the last
// with c < 0, where only the slot test may skip — the pick, the placement
// and the verdict must be equal, on a cold table and on a table that
// planned before the ledger moved.
func TestSettleMatchesReference(t *testing.T) {
	r := stats.NewRand(3838)
	paper, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	var fewer, fewerMinMax, fewerNegC, hetero, pinned, relaxed, scoped, feasible int
	for trial := 0; trial < 3000; trial++ {
		tp, maxN, maxHetero, mu := randomTopology(r), 24, 6, 40.0
		if trial%30 == 0 {
			tp, maxN, maxHetero, mu = paper, 120, 8, 400
		}
		eps := []float64{0.05, 0.5, 0.7}[r.IntN(3)]
		c := randomSettleCase(r, tp, maxN, maxHetero, mu, eps)
		warm := c.table()
		c.settleOn(warm, (*dpTable).settle)
		c.churn(r)
		ref := c.settleOn(c.table(), (*dpTable).refSettle)
		for _, got := range []struct {
			name string
			s    settled
		}{
			{"cold", c.settleOn(c.table(), (*dpTable).settle)},
			{"warm", c.settleOn(warm, (*dpTable).settle)},
		} {
			if got.s.best != ref.best || !reflect.DeepEqual(got.s.p.Entries, ref.p.Entries) {
				desc := fmt.Sprintf("req %v", c.req)
				if len(c.hetero.Demands) > 0 {
					desc = fmt.Sprintf("hetero %v", c.hetero)
				}
				t.Fatalf("trial %d (%s, policy %v, eps %v, pins %v, relax %v, scoped %v): %s plan picked %d, %v; reference %d, %v",
					trial, desc, c.policy, eps, c.pins, c.relax, c.scope != nil, got.name, got.s.best, &got.s.p, ref.best, &ref.p)
			}
			if got.name == "cold" && got.s.recomputed < ref.recomputed {
				fewer++
				switch {
				case c.led.RiskConstant() < 0:
					fewerNegC++
				case c.policy == MinMaxOccupancy:
					fewerMinMax++
				}
			}
		}
		switch {
		case len(c.hetero.Demands) > 0:
			hetero++
		case len(c.pins) > 0 && c.relax:
			relaxed++
		case len(c.pins) > 0:
			pinned++
		}
		if c.scope != nil {
			scoped++
		}
		if ref.best != topology.None {
			feasible++
		}
	}
	// The cases must reach the regimes the bound changes.
	if fewer < 1000 || fewerMinMax < 200 || fewerNegC < 300 || hetero < 800 || pinned < 250 || relaxed < 250 || scoped < 1300 || feasible < 1300 {
		t.Errorf("weak coverage: %d cold plans that skipped records (%d min-max with c >= 0, %d with c < 0), %d hetero, %d pinned, %d relaxed, %d scoped, %d feasible",
			fewer, fewerMinMax, fewerNegC, hetero, pinned, relaxed, scoped, feasible)
	}
	t.Logf("%d cold plans that skipped records (%d min-max with c >= 0, %d with c < 0), %d hetero, %d pinned, %d relaxed, %d scoped, %d feasible",
		fewer, fewerMinMax, fewerNegC, hetero, pinned, relaxed, scoped, feasible)
}

// refCapBound is homogTable.capBound from its definition, for a request
// of n VMs whose crossing demand with l of them below a link is cross(l):
// no memo, every child summed, and the uplink's Eq. 4 test written out.
func refCapBound(led *Ledger, v topology.NodeID, n int, relax bool, cross func(l int) stats.Normal) (cap, reach int) {
	node := led.Topology().Node(v)
	if node.IsMachine() {
		cap = led.FreeSlots(v)
	}
	for _, c := range node.Children {
		_, r := refCapBound(led, c, n, relax, cross)
		cap += r
	}
	cap = min(cap, n)
	if node.Parent == topology.None || relax {
		return cap, cap
	}
	for reach = cap; reach > 0; reach-- {
		if led.OccupancyWith(v, cross(reach)) < 1 {
			return cap, reach
		}
	}
	return cap, 0
}

// TestCapacityBoundIsSound holds the capacity bound settle passes stale
// candidates over by (homogTable.capBound) to its definition and to the
// records it stands in for. On random trees with mixed host capacities and
// the paper tree, random load with failed machines and links, pod scopes,
// repair pins and the relaxed pass, and eps in {0.05, 0.5, 0.7}, with
// high-variance load on host links where c < 0 (an empty link is then no
// host link's best case), every in-scope vertex's bound, bottom-up, must
// equal refCapBound's, and after its record is computed over it (ensure)
// the cap must be at least the record's cap, its largest count with a
// finite optimum, and the reach at least its largest allocable count
// (allocTop); dpRec.top must be at least the cap, or on a machine the
// largest allocable count; a relaxed pass reaches its cap. The ledger then
// churns — slots, link loads, a machine failing or a machine or link
// coming back — and the same table is checked again, and once more after
// it is bound to another request size, so a memo entry that outlived its
// subtree version, fault epoch or binding shows.
func TestCapacityBoundIsSound(t *testing.T) {
	r := stats.NewRand(4141)
	paper, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	var beyondSlots, uplinkBinds, pinned, relaxed, scoped, vertices int
	for trial := 0; trial < 2000; trial++ {
		tp, maxN, mu := randomTopology(r), 24, 40.0
		if trial%40 == 0 {
			tp, maxN, mu = paper, 120, 400
		}
		eps := []float64{0.05, 0.5, 0.7}[r.IntN(3)]
		c := randomSettleCase(r, tp, maxN, 6, mu, eps)
		c.hetero = Heterogeneous{}    // the bound is the homogeneous DP's: plan the case's homogeneous request
		if c.led.RiskConstant() < 0 { // added variance lowers an occupancy: a loaded host link carries what an empty one cannot
			for _, m := range tp.Machines() {
				if r.Float64() < 0.3 {
					c.led.AddStochastic(m, stats.Normal{Sigma: tp.LinkCap(m)})
				}
			}
		}
		ht := c.table().(*homogTable)
		cross := func(l int) stats.Normal { return CrossingHomog(canonDemand(c.req.Demand), l, ht.req.N) }
		check := func(stage string) {
			ht.syncEpoch(c.led)
			for level := 0; level <= scopeHeight(tp, c.scope); level++ {
				for _, v := range scopeAtLevel(tp, c.scope, level) {
					vertices++
					bcap, breach := ht.capBound(c.led, tp, v)
					if wcap, wreach := refCapBound(c.led, v, ht.n, ht.relax, cross); bcap != wcap || breach != wreach {
						t.Fatalf("trial %d, %s: vertex %d's capacity bound is (%d, %d), its definition (%d, %d)", trial, stage, v, bcap, breach, wcap, wreach)
					}
					ht.ensure(c.led, tp, v, ht.compute)
					rec := &ht.recs[v]
					allocable := ht.allocTop(rec)
					top := rec.cap // a machine's counts above top are finite but not allocable
					if tp.Node(v).IsMachine() {
						top = allocable
					}
					if bcap < rec.cap || breach < allocable || rec.top < top {
						t.Fatalf("trial %d, %s (req %v, eps %v, pins %v, relax %v): vertex %d's capacity bound (%d, %d) or static bound %d is below its record's cap and largest allocable count (%d, %d)",
							trial, stage, c.req, eps, c.pins, c.relax, v, bcap, breach, rec.top, rec.cap, allocable)
					}
					if ht.relax && breach != bcap {
						t.Fatalf("trial %d, %s: relaxed vertex %d reaches %d of its cap %d", trial, stage, v, breach, bcap)
					}
					if breach < bcap {
						uplinkBinds++
					}
					if free, _ := c.led.subtreeBound(v); !tp.Node(v).IsMachine() && free >= ht.n && bcap < ht.n {
						beyondSlots++
					}
				}
			}
		}
		check("cold")
		c.churn(r)
		check("after churn")
		// A pooled table is bound to the next request over the same
		// ledger: no bound of the last binding may read as current.
		next := c.req
		next.N = r.UniformInt(1, maxN)
		ht.reset(c.led, c.scope, next, c.policy, false)
		check("rebound")
		switch {
		case c.relax:
			relaxed++
		case len(c.pins) > 0:
			pinned++
		}
		if c.scope != nil {
			scoped++
		}
	}
	// The cases must reach the regime the bound adds to the slot bound, and
	// every input kind.
	if beyondSlots < 500 || uplinkBinds < 8000 || pinned < 150 || relaxed < 200 || scoped < 600 {
		t.Errorf("weak coverage: %d vertices with the free slots but a capacity bound below n, %d whose uplink binds, %d pinned, %d relaxed, %d scoped trials",
			beyondSlots, uplinkBinds, pinned, relaxed, scoped)
	}
	t.Logf("%d vertices checked: %d with the free slots but a capacity bound below n, %d whose uplink binds; %d pinned, %d relaxed, %d scoped trials",
		vertices, beyondSlots, uplinkBinds, pinned, relaxed, scoped)
}
