package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// scanMaxOccupancy is Ledger.MaxOccupancy read off every link: the largest
// occupancy of a link in service, 0 without one.
func scanMaxOccupancy(led *Ledger) float64 {
	maxOcc := 0.0
	for _, id := range led.Topology().Links() {
		if o := led.Occupancy(id); led.Faults().Reachable(id) && o > maxOcc {
			maxOcc = o
		}
	}
	return maxOcc
}

// scanFreeSlots sums the free slots of every machine below root.
func scanFreeSlots(led *Ledger, root topology.NodeID) (total int) {
	for _, m := range led.Topology().SubtreeMachines(nil, root) {
		total += led.FreeSlots(m)
	}
	return total
}

// scanLinkLoads is every link's load sorted by /v1/links' order —
// occupancy descending, then link id ascending — with a sort of its own.
func scanLinkLoads(led *Ledger) []LinkLoad {
	tp := led.Topology()
	var out []LinkLoad
	for _, l := range tp.Links() {
		out = append(out, LinkLoad{Link: l, Capacity: tp.LinkCap(l), Occupancy: led.Occupancy(l),
			DetLoad: led.DetReserved(l), Stochastic: led.StochasticCount(l)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Occupancy != out[j].Occupancy {
			return out[i].Occupancy > out[j].Occupancy
		}
		return out[i].Link < out[j].Link
	})
	return out
}

// scopedManager is a manager planning over root's subtree (unscoped when
// root is the tree's root), pointed at a test's ledger before each read.
type scopedManager struct {
	root topology.NodeID
	mgr  *Manager
}

// checkReads requires every memo-backed read on led to equal the scan it
// replaced, exactly. It returns the number of links whose nonzero
// occupancy ties the one before them in /v1/links' order.
func checkReads(t *testing.T, where string, led *Ledger, mgrs []scopedManager) (ties int) {
	t.Helper()
	if got, want := led.MaxOccupancy(), scanMaxOccupancy(led); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: MaxOccupancy = %v, a scan of the links in service %v", where, got, want)
	}
	if got, want := led.TotalFreeSlots(), scanFreeSlots(led, led.Topology().Root()); got != want {
		t.Fatalf("%s: TotalFreeSlots = %d, a scan of the machines %d", where, got, want)
	}
	all := scanLinkLoads(led)
	n := len(all)
	for i := 1; i < n; i++ {
		if all[i].Occupancy != 0 && all[i].Occupancy == all[i-1].Occupancy {
			ties++
		}
	}
	for _, s := range mgrs {
		s.mgr.led = led
		if got, want := s.mgr.FreeSlots(), scanFreeSlots(led, s.root); got != want {
			t.Fatalf("%s: FreeSlots of the manager over vertex %d = %d, a scan of its machines %d", where, s.root, got, want)
		}
		if s.mgr.scope != nil {
			continue
		}
		for _, k := range []int{0, 1, 10, n - 1, n, n + 5} {
			if k < 0 {
				continue
			}
			want := all[:min(k, n)]
			if got := s.mgr.TopLinkLoads(k); !slices.Equal(got, want) {
				t.Fatalf("%s: TopLinkLoads(%d) = %+v, the sorted prefix %+v", where, k, got, want)
			}
			if got := TopLoads(s.mgr.LinkLoads(), k); !slices.Equal(got, want) {
				t.Fatalf("%s: TopLoads(LinkLoads(), %d) = %+v, the sorted prefix %+v", where, k, got, want)
			}
		}
	}
	return ties
}

// TestStatusReadsMatchScans holds the reads behind /v1/status and
// /v1/links — Ledger.MaxOccupancy and TotalFreeSlots, Manager.FreeSlots
// unscoped and scoped to a pod and to a machine, and TopLinkLoads(k) for k
// in {0, 1, 10, n-1, n, n+5} — to the scans they replaced, on random trees
// and the paper tree, through TestSubtreeBoundMemo's streams of mutations,
// faults and clones. Deterministic reservations fill a quarter or a half
// of their link, so occupancies tie in long runs, and every trial is first
// read empty, where every link ties at 0.
func TestStatusReadsMatchScans(t *testing.T) {
	r := stats.NewRand(4242)
	paper, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	faultSteps, ties := 0, 0
	for trial := 0; trial < 60; trial++ {
		tp, steps := randomTopology(r), 150
		if trial%20 == 0 {
			tp, steps = paper, 40
		}
		eps := []float64{0.05, 0.7}[r.IntN(2)]
		pod := tp.Node(tp.Root()).Children[r.IntN(len(tp.Node(tp.Root()).Children))]
		machine := tp.Machines()[r.IntN(len(tp.Machines()))]
		var mgrs []scopedManager
		for _, root := range []topology.NodeID{tp.Root(), pod, machine} {
			var opts []ManagerOption
			if root != tp.Root() {
				opts = append(opts, WithPlanSubtree(root))
			}
			m, err := NewManager(tp, eps, opts...)
			if err != nil {
				t.Fatal(err)
			}
			mgrs = append(mgrs, scopedManager{root, m})
		}
		ledgers := []*ledgerLineage{{led: newTestLedger(t, tp, eps)}}
		checkReads(t, fmt.Sprintf("trial %d, empty", trial), ledgers[0].led, mgrs)
		for step := 0; step < steps; step++ {
			ledgers = stepLineage(r, tp, ledgers, true)
			for i, l := range ledgers {
				if l.led.Faults().AnyDown() {
					faultSteps++
				}
				ties += checkReads(t, fmt.Sprintf("trial %d, step %d, ledger %d", trial, step, i), l.led, mgrs)
			}
		}
	}
	if faultSteps < 5000 || ties < 5000 {
		t.Errorf("weak coverage: %d reads with a fault down, %d nonzero ties", faultSteps, ties)
	}
	t.Logf("%d reads with a fault down, %d nonzero ties", faultSteps, ties)
}

// TestStatusReadsOnALoneMachine: a tree that is one machine has no links,
// so no occupancy and an empty top, and its free slots are its own.
func TestStatusReadsOnALoneMachine(t *testing.T) {
	tp, err := topology.NewFromSpec(topology.Spec{Slots: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(tp, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	mgrs := []scopedManager{{tp.Root(), m}}
	checkReads(t, "empty", m.led, mgrs)
	m.led.UseSlots(tp.Root(), 2)
	checkReads(t, "two slots used", m.led, mgrs)
	m.led.SetOffline(tp.Root(), true)
	checkReads(t, "offline", m.led, mgrs)
	if got := m.TopLinkLoads(5); len(got) != 0 {
		t.Errorf("TopLinkLoads(5) = %+v, want none", got)
	}
}
