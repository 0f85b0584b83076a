package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// smallRandomTopology returns a random tree with at most maxSlots total VM
// slots, so exhaustive placement enumeration stays cheap.
func smallRandomTopology(r *stats.Rand, maxSlots int) *topology.Topology {
	for {
		tp := randomTopology(r)
		if tp.TotalSlots() <= maxSlots {
			return tp
		}
	}
}

// bruteForcePinned enumerates every slot-respecting distribution of the
// request's VMs that keeps at least pinned[m] VMs on each pinned machine,
// and returns the lexicographic best (enclosing-subtree level, max
// in-subtree occupancy) — the reference the pinned DP must match. With an
// empty pinned map it reduces to bruteForceHomog. relax drops the uplink
// filter O_L < 1, leaving slots, liveness and the pins as the only
// constraints; a non-nil scope confines the VMs to its machines, so a pin
// outside it leaves nothing to find.
func bruteForcePinned(led *Ledger, req Homogeneous, pinned map[topology.NodeID]int, relax bool, scope *planScope) (level int, value float64, found bool) {
	tp := led.Topology()
	machines := scopeAtLevel(tp, scope, 0)
	inScope := make(map[topology.NodeID]bool, len(machines))
	for _, m := range machines {
		inScope[m] = true
	}
	for m, c := range pinned {
		if c > 0 && !inScope[m] {
			return 0, 0, false
		}
	}
	best := struct {
		level int
		value float64
		found bool
	}{}
	counts := make([]int, len(machines))
	var recurse func(i, left int)
	recurse = func(i, left int) {
		if i == len(machines) {
			if left != 0 {
				return
			}
			var p Placement
			for j, c := range counts {
				if c > 0 {
					p.Entries = append(p.Entries, PlacementEntry{Machine: machines[j], Count: c})
				}
			}
			if p.TotalVMs() == 0 {
				return
			}
			contribs := homogContributions(tp, req, &p)
			checked := contribs
			if relax {
				checked = nil // slots and liveness only
			}
			if ValidatePlacement(led, checked, &p, req.N) != nil {
				return
			}
			sub := enclosingSubtree(tp, &p)
			lv := tp.Node(sub).Level
			val := maxOccInSubtree(led, sub, contribs)
			if !best.found || lv < best.level || (lv == best.level && val < best.value-1e-12) {
				best.level, best.value, best.found = lv, val, true
			}
			return
		}
		lo := pinned[machines[i]]
		maxHere := min(left, led.FreeSlots(machines[i]))
		if lo > maxHere {
			return
		}
		for c := lo; c <= maxHere; c++ {
			counts[i] = c
			recurse(i+1, left-c)
		}
		counts[i] = 0
	}
	recurse(0, req.N)
	return best.level, best.value, best.found
}

// TestHomogDifferentialRandomTrees cross-checks the homogeneous min-max DP
// against exhaustive placement enumeration on seeded random trees capped at
// 12 slots: exactly the same feasibility, subtree level and optimal value.
// Table-driven over independent seeds so a regression pins the failing
// stream.
func TestHomogDifferentialRandomTrees(t *testing.T) {
	cases := []struct {
		name   string
		seed   uint64
		trials int
		eps    float64
	}{
		{"eps05-streamA", 1001, 40, 0.05},
		{"eps05-streamB", 2002, 40, 0.05},
		{"eps10-streamC", 3003, 40, 0.10},
		{"eps01-tight", 4004, 30, 0.01},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := stats.NewRand(tc.seed)
			checked := 0
			for trial := 0; trial < tc.trials; trial++ {
				tp := smallRandomTopology(r, 12)
				led, err := NewLedger(tp, tc.eps)
				if err != nil {
					t.Fatal(err)
				}
				for _, link := range tp.Links() {
					if r.Float64() < 0.4 {
						led.AddDet(link, r.UniformRange(0, 0.5*tp.LinkCap(link)))
					}
					if r.Float64() < 0.3 {
						led.AddStochastic(link, stats.Normal{
							Mu:    r.UniformRange(0, 6),
							Sigma: r.UniformRange(0, 3),
						})
					}
				}
				n := r.UniformInt(1, min(8, tp.TotalSlots()))
				req := Homogeneous{N: n, Demand: stats.Normal{
					Mu:    r.UniformRange(1, 15),
					Sigma: r.UniformRange(0, 6),
				}}

				wantLevel, wantVal, wantFound := bruteForceHomog(led, req)
				p, err := AllocateHomog(led, req, MinMaxOccupancy)
				contribs := contribsOf(led.Topology(), req, &p)
				if (err == nil) != wantFound {
					t.Fatalf("trial %d: DP err=%v, brute force found=%v (req %v on %d slots)",
						trial, err, wantFound, req, tp.TotalSlots())
				}
				if err != nil {
					continue
				}
				checked++
				sub := enclosingSubtree(tp, &p)
				gotLevel := tp.Node(sub).Level
				gotVal := maxOccInSubtree(led, sub, contribs)
				if gotLevel != wantLevel {
					t.Fatalf("trial %d: DP level %d, brute force %d", trial, gotLevel, wantLevel)
				}
				if math.Abs(gotVal-wantVal) > 1e-9 {
					t.Fatalf("trial %d: DP value %v, brute force %v", trial, gotVal, wantVal)
				}
			}
			if checked == 0 {
				t.Fatal("no trial admitted; generator too hostile to mean anything")
			}
		})
	}
}

// TestPinnedDifferentialRandomTrees does the same cross-check for repair
// plans: allocate, fail one machine of the placement, pin the survivors,
// and compare Algorithm 1 under those lower bounds against brute force
// with the matching ones — the strict pass and the relaxed one, over the
// whole tree and confined to a random switch's subtree the way a
// WithPlanSubtree manager plans. Every returned placement must keep the
// pins, avoid the failed machine and stay inside its scope; a pin outside
// the scope must leave no placement at all.
func TestPinnedDifferentialRandomTrees(t *testing.T) {
	cases := []struct {
		name   string
		seed   uint64
		trials int
		eps    float64
		maxMu  float64
	}{
		{"eps05-streamA", 5005, 50, 0.05, 12},
		{"eps10-streamB", 6006, 50, 0.10, 12},
		{"eps05-heavy", 8008, 60, 0.05, 30},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := stats.NewRand(tc.seed)
			var strict, relaxedOnly, scopedIn, scopedOut int
			for trial := 0; trial < tc.trials; trial++ {
				tp := smallRandomTopology(r, 12)
				led, err := NewLedger(tp, tc.eps)
				if err != nil {
					t.Fatal(err)
				}
				for _, link := range tp.Links() {
					if r.Float64() < 0.3 {
						led.AddDet(link, r.UniformRange(0, 0.4*tp.LinkCap(link)))
					}
				}
				n := r.UniformInt(2, min(8, tp.TotalSlots()))
				req := Homogeneous{N: n, Demand: stats.Normal{
					Mu:    r.UniformRange(1, tc.maxMu),
					Sigma: r.UniformRange(0, 5),
				}}
				switches := tp.AtLevel(r.UniformInt(1, tp.Height()))
				podRoot := switches[r.IntN(len(switches))]
				pod, err := newPlanScope(tp, podRoot)
				if err != nil {
					t.Fatal(err)
				}
				p, err := AllocateHomog(led, req, MinMaxOccupancy)
				if err != nil || len(p.Entries) < 2 {
					continue // need a spread placement to have survivors
				}
				// Fail one machine of the placement; survivors are pinned.
				victim := p.Entries[r.UniformInt(0, len(p.Entries)-1)].Machine
				led.Faults().FailMachine(victim)
				pinned := make(map[topology.NodeID]int)
				pinsInPod := true
				for _, e := range p.Entries {
					if e.Machine != victim {
						pinned[e.Machine] = e.Count
						pinsInPod = pinsInPod && isAncestor(tp, podRoot, e.Machine)
					}
				}

				for _, scope := range []*planScope{nil, pod} {
					strictFound := false
					for _, relax := range []bool{false, true} {
						where := fmt.Sprintf("trial %d (relax %v, scoped %v, req %v, pinned %v)", trial, relax, scope != nil, req, pinned)
						wantLevel, wantVal, wantFound := bruteForcePinned(led, req, pinned, relax, scope)
						rp, err := allocateHomogPinnedScoped(led, req, MinMaxOccupancy, pinned, relax, scope)
						contribs := contribsOf(led.Topology(), req, &rp)
						if (err == nil) != wantFound {
							t.Fatalf("%s: pinned DP err=%v, brute force found=%v", where, err, wantFound)
						}
						if scope != nil && !pinsInPod && err == nil {
							t.Fatalf("%s: placed %v with a pin outside the pod", where, &rp)
						}
						if err != nil {
							continue
						}
						switch {
						case !relax:
							strictFound = true
							strict++
						case !strictFound:
							relaxedOnly++
						}
						counts := placementCounts(&rp)
						for mc, c := range pinned {
							if counts[mc] < c {
								t.Fatalf("%s: pinned machine %d got %d VMs, want >= %d", where, mc, counts[mc], c)
							}
						}
						if counts[victim] != 0 {
							t.Fatalf("%s: pinned DP used the failed machine", where)
						}
						sub := enclosingSubtree(tp, &rp)
						if scope != nil && !isAncestor(tp, podRoot, sub) {
							t.Fatalf("%s: placement %v leaves the pod rooted at %d", where, &rp, podRoot)
						}
						gotLevel := tp.Node(sub).Level
						gotVal := maxOccInSubtree(led, sub, contribs)
						if gotLevel != wantLevel {
							t.Fatalf("%s: pinned DP level %d, brute force %d", where, gotLevel, wantLevel)
						}
						if math.Abs(gotVal-wantVal) > 1e-9 {
							t.Fatalf("%s: pinned DP value %v, brute force %v", where, gotVal, wantVal)
						}
					}
					if scope != nil {
						if pinsInPod {
							scopedIn++
						} else {
							scopedOut++
						}
					}
				}
				led.Faults().RestoreMachine(victim)
			}
			t.Logf("strict repairs %d, relaxed-only repairs %d, pods holding the pins %d, pods missing one %d",
				strict, relaxedOnly, scopedIn, scopedOut)
			if strict == 0 || scopedIn == 0 || scopedOut == 0 {
				t.Fatal("the generator never produced a strict repair, a pod holding the pins and a pod missing one")
			}
			if tc.maxMu > 12 && relaxedOnly == 0 {
				t.Fatal("no instance needed the relaxed pass; the heavy stream is not heavy enough")
			}
		})
	}
}

// TestPinnedEmptyMatchesPlainDP: with nothing pinned the partial-placement
// DP must be exactly AllocateHomog.
func TestPinnedEmptyMatchesPlainDP(t *testing.T) {
	r := stats.NewRand(7007)
	for trial := 0; trial < 40; trial++ {
		tp := smallRandomTopology(r, 12)
		led, err := NewLedger(tp, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		n := r.UniformInt(1, min(8, tp.TotalSlots()))
		req := Homogeneous{N: n, Demand: stats.Normal{Mu: r.UniformRange(1, 10), Sigma: r.UniformRange(0, 4)}}
		p1, err1 := AllocateHomog(led, req, MinMaxOccupancy)
		p2, err2 := allocateHomogPinnedScoped(led, req, MinMaxOccupancy, nil, false, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: feasibility differs: %v vs %v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if p1.String() != p2.String() {
			t.Fatalf("trial %d: placements differ:\n plain  %v\n pinned %v", trial, &p1, &p2)
		}
	}
}

// TestPinnedRejectsBadPins: structural validation of the pinned map.
func TestPinnedRejectsBadPins(t *testing.T) {
	tp := mustTopo(smallThreeTier())
	req := Homogeneous{N: 2, Demand: stats.Normal{Mu: 5, Sigma: 1}}
	mc := tp.Machines()[0]

	cases := []struct {
		name   string
		pinned map[topology.NodeID]int
		setup  func(led *Ledger)
	}{
		{"negative count", map[topology.NodeID]int{mc: -1}, nil},
		{"non-machine", map[topology.NodeID]int{tp.Root(): 1}, nil},
		{"exceeds request", map[topology.NodeID]int{mc: 3}, nil},
		{"exceeds slots", map[topology.NodeID]int{mc: 2}, func(led *Ledger) { led.UseSlots(mc, 2) }},
		{"dead machine", map[topology.NodeID]int{mc: 1}, func(led *Ledger) { led.Faults().FailMachine(mc) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			led := newTestLedger(t, tp, 0.05)
			if tc.setup != nil {
				tc.setup(led)
			}
			if _, err := allocateHomogPinnedScoped(led, req, MinMaxOccupancy, tc.pinned, false, nil); err == nil {
				t.Fatal("expected an error")
			}
		})
	}
}

// TestRepairPlanAllocBudget is the tripwire on the repair path: a repair's
// plan runs under the manager lock, once per displaced job of a RepairAll
// sweep (twice when the strict pass fails), in the same pooled slab table
// as an admission — so with a warm pool it allocates the placement it
// returns and little else. The per-vertex record copy it replaced cost
// about 554 KB and 4 400 objects for this plan.
func TestRepairPlanAllocBudget(t *testing.T) {
	const (
		maxBytes   = 64 << 10
		maxObjects = 200
	)
	led, req, pinned := paperRepair(t)
	for _, relax := range []bool{false, true} {
		plan := func() {
			if _, err := allocateHomogPinnedScoped(led, req, MinMaxOccupancy, pinned, relax, nil); err != nil {
				t.Fatalf("relax %v: %v", relax, err)
			}
		}
		objects := testing.AllocsPerRun(20, plan)
		// Bytes of the cheapest plan: the one that found the pool warm
		// (under -race sync.Pool drops a share of what is put back).
		bytes := uint64(math.MaxUint64)
		for i := 0; i < 20; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			plan()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("relax %v: %.0f objects, %d bytes per plan", relax, objects, bytes)
		if objects >= maxObjects || bytes >= maxBytes {
			t.Errorf("relax %v: a repair plan allocates %.0f objects and %d bytes, want < %d and < %d",
				relax, objects, bytes, maxObjects, maxBytes)
		}
	}
}

// BenchmarkRepairPlan measures the plan inside one homogeneous repair on
// its own: Algorithm 1 for N = 49 with the survivors of a one-machine
// failure pinned, on the paper-scale ledger TestRepairPlanAllocBudget
// bounds. The strict cell is the pass every repair runs; the relaxed cell
// is the degraded pass a repair falls back to (here on an instance the
// strict pass solves, so the two cells differ only by the uplink filter).
func BenchmarkRepairPlan(b *testing.B) {
	led, req, pinned := paperRepair(b)
	for _, bc := range []struct {
		name  string
		relax bool
	}{{"strict", false}, {"relaxed", true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := allocateHomogPinnedScoped(led, req, MinMaxOccupancy, pinned, bc.relax, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// paperRepair is one repair's input on the paper's datacenter with a few
// tenants admitted: an N = 49 request placed on a copy of that ledger,
// the placement's first machine failed, and its survivors as the pins.
func paperRepair(tb testing.TB) (*Ledger, Homogeneous, map[topology.NodeID]int) {
	tb.Helper()
	led := paperManager(tb).Ledger().Clone()
	req := Homogeneous{N: 49, Demand: stats.Normal{Mu: 300, Sigma: 150}}
	p, err := AllocateHomog(led, req, MinMaxOccupancy)
	if err != nil || len(p.Entries) < 2 {
		tb.Fatalf("no spread placement to repair: %v (err %v)", &p, err)
	}
	led.Faults().FailMachine(p.Entries[0].Machine)
	pinned := make(map[topology.NodeID]int)
	for _, e := range p.Entries[1:] {
		pinned[e.Machine] = e.Count
	}
	return led, req, pinned
}
