package core

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// randHetero builds a random heterogeneous request of n VMs with means in
// [lo, hi) and sigma = rho*mu for random rho in [0, 1).
func randHetero(r *stats.Rand, n int, lo, hi float64) Heterogeneous {
	demands := make([]stats.Normal, n)
	for i := range demands {
		mu := r.UniformRange(lo, hi)
		demands[i] = stats.Normal{Mu: mu, Sigma: r.Float64() * mu}
	}
	req, err := NewHeterogeneous(demands)
	if err != nil {
		panic(err)
	}
	return req
}

// checkHeteroPlacement verifies a heterogeneous placement covers every VM
// index exactly once in addition to the generic validity invariants.
func checkHeteroPlacement(t *testing.T, led *Ledger, req Heterogeneous, p *Placement, contribs []Contribution) {
	t.Helper()
	if err := ValidatePlacement(led, contribs, p, req.N()); err != nil {
		t.Fatalf("invalid placement: %v", err)
	}
	var all []int
	for _, e := range p.Entries {
		all = append(all, e.VMs...)
	}
	sort.Ints(all)
	if len(all) != req.N() {
		t.Fatalf("placement lists %d VM indices, want %d", len(all), req.N())
	}
	for i, vm := range all {
		if vm != i {
			t.Fatalf("VM indices %v do not cover 0..%d exactly once", all, req.N()-1)
		}
	}
}

func TestOrderByPercentile(t *testing.T) {
	req, _ := NewHeterogeneous([]stats.Normal{
		{Mu: 300, Sigma: 0},   // p95 = 300
		{Mu: 100, Sigma: 10},  // p95 ~ 116
		{Mu: 200, Sigma: 100}, // p95 ~ 364
	})
	order := orderByPercentile(req)
	if want := []int{1, 0, 2}; !equalInts(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	for pos := 1; pos < len(order); pos++ {
		if req.Demands[order[pos-1]].Quantile(Percentile95) > req.Demands[order[pos]].Quantile(Percentile95) {
			t.Errorf("sorted demands out of order at %d", pos)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestHeteroSubstringBasic(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	req, _ := NewHeterogeneous([]stats.Normal{
		{Mu: 5, Sigma: 1}, {Mu: 10, Sigma: 3}, {Mu: 2, Sigma: 0.5},
		{Mu: 8, Sigma: 2}, {Mu: 4, Sigma: 1}, {Mu: 6, Sigma: 2},
	})
	p, contribs, err := AllocateHeteroSubstring(led, req, MinMaxOccupancy)
	if err != nil {
		t.Fatalf("AllocateHeteroSubstring: %v", err)
	}
	checkHeteroPlacement(t, led, req, &p, contribs)
}

func TestHeteroSubstringSingleMachine(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	req := randHetero(stats.NewRand(3), 4, 1, 10)
	p, contribs, err := AllocateHeteroSubstring(led, req, MinMaxOccupancy)
	if err != nil {
		t.Fatalf("AllocateHeteroSubstring: %v", err)
	}
	if len(p.Entries) != 1 {
		t.Errorf("placement uses %d machines, want 1 (fits in a machine)", len(p.Entries))
	}
	if len(contribs) != 0 {
		t.Errorf("contribs = %v, want none", contribs)
	}
}

func TestHeteroSubstringRejects(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	req := randHetero(stats.NewRand(5), 11, 1, 5) // more VMs than slots
	if _, _, err := AllocateHeteroSubstring(led, req, MinMaxOccupancy); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("err = %v, want ErrNoCapacity", err)
	}
}

func TestHeteroExactLimits(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	big := randHetero(stats.NewRand(7), MaxExactHeteroVMs+1, 1, 5)
	if _, _, err := AllocateHeteroExact(led, big); !errors.Is(err, ErrBadRequest) {
		t.Errorf("err = %v, want ErrBadRequest", err)
	}
}

// bruteForceHetero enumerates every VM-to-machine assignment and returns
// the lexicographic best (level, value), mirroring bruteForceHomog.
func bruteForceHetero(led *Ledger, req Heterogeneous) (level int, value float64, found bool) {
	tp := led.Topology()
	machines := tp.Machines()
	n := req.N()
	assign := make([]int, n)
	best := struct {
		level int
		value float64
		found bool
	}{}
	var recurse func(vm int)
	recurse = func(vm int) {
		if vm == n {
			counts := make(map[topology.NodeID][]int)
			for i, mi := range assign {
				m := machines[mi]
				counts[m] = append(counts[m], i)
			}
			var p Placement
			for m, vms := range counts {
				p.Entries = append(p.Entries, PlacementEntry{Machine: m, Count: len(vms), VMs: vms})
			}
			p.normalize()
			contribs := heteroContributions(tp, req, &p)
			if ValidatePlacement(led, contribs, &p, n) != nil {
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
		for mi := range machines {
			assign[vm] = mi
			recurse(vm + 1)
		}
	}
	recurse(0)
	return best.level, best.value, best.found
}

// TestHeteroExactMatchesBruteForce cross-checks the exact subset DP against
// exhaustive assignment enumeration on small random instances.
func TestHeteroExactMatchesBruteForce(t *testing.T) {
	r := stats.NewRand(777)
	spec := topology.Spec{Children: []topology.Spec{
		{UpCap: 30, Slots: 2},
		{UpCap: 30, Slots: 2},
		{UpCap: 30, Slots: 2},
	}}
	for trial := 0; trial < 40; trial++ {
		led := newTestLedger(t, mustTopo(spec), 0.05)
		for _, link := range led.Topology().Links() {
			if r.Float64() < 0.5 {
				led.AddDet(link, r.UniformRange(0, 15))
			}
		}
		n := r.UniformInt(2, 5)
		req := randHetero(r, n, 1, 12)

		p, contribs, err := AllocateHeteroExact(led, req)
		bfLevel, bfValue, bfFound := bruteForceHetero(led, req)
		if bfFound != (err == nil) {
			t.Fatalf("trial %d: exact err=%v, brute force found=%v", trial, err, bfFound)
		}
		if err != nil {
			continue
		}
		checkHeteroPlacement(t, led, req, &p, contribs)
		sub := enclosingSubtree(led.Topology(), &p)
		lv := led.Topology().Node(sub).Level
		val := maxOccInSubtree(led, sub, contribs)
		if lv != bfLevel {
			t.Fatalf("trial %d: exact level %d, brute force %d", trial, lv, bfLevel)
		}
		if math.Abs(val-bfValue) > 1e-9 {
			t.Fatalf("trial %d: exact value %v, brute force %v", trial, val, bfValue)
		}
	}
}

// TestHeteroSubstringNeverBeatsExact: the heuristic explores a subset of
// the exact DP's placements, so when both succeed inside the same lowest
// subtree its min-max value cannot be smaller.
func TestHeteroSubstringNeverBeatsExact(t *testing.T) {
	r := stats.NewRand(2024)
	spec := topology.Spec{Children: []topology.Spec{
		{UpCap: 40, Slots: 3},
		{UpCap: 40, Slots: 3},
		{UpCap: 40, Slots: 3},
	}}
	compared := 0
	for trial := 0; trial < 60; trial++ {
		led := newTestLedger(t, mustTopo(spec), 0.05)
		for _, link := range led.Topology().Links() {
			led.AddDet(link, r.UniformRange(0, 12))
		}
		req := randHetero(r, r.UniformInt(3, 7), 1, 10)

		pe, ce, errE := AllocateHeteroExact(led, req)
		ph, ch, errH := AllocateHeteroSubstring(led, req, MinMaxOccupancy)
		if errH == nil && errE != nil {
			t.Fatalf("trial %d: heuristic succeeded where exact failed", trial)
		}
		if errE != nil || errH != nil {
			continue
		}
		checkHeteroPlacement(t, led, req, &ph, ch)
		subE := enclosingSubtree(led.Topology(), &pe)
		subH := enclosingSubtree(led.Topology(), &ph)
		lvE := led.Topology().Node(subE).Level
		lvH := led.Topology().Node(subH).Level
		if lvH < lvE {
			t.Fatalf("trial %d: heuristic level %d below exact level %d", trial, lvH, lvE)
		}
		if lvE != lvH {
			continue
		}
		valE := maxOccInSubtree(led, subE, ce)
		valH := maxOccInSubtree(led, subH, ch)
		if valE > valH+1e-9 {
			t.Fatalf("trial %d: exact value %v worse than heuristic %v", trial, valE, valH)
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no trial produced comparable placements")
	}
}

// TestHeteroSubstringEqualsHomogOnIdenticalVMs: with identical VMs,
// substrings lose no generality, so the heuristic must match the
// homogeneous DP's optimal value.
func TestHeteroSubstringEqualsHomogOnIdenticalVMs(t *testing.T) {
	r := stats.NewRand(31415)
	for trial := 0; trial < 30; trial++ {
		led := newTestLedger(t, mustTopo(smallThreeTier()), 0.05)
		for _, link := range led.Topology().Links() {
			led.AddDet(link, r.UniformRange(0, 10))
		}
		n := r.UniformInt(2, 8)
		d := stats.Normal{Mu: r.UniformRange(1, 8), Sigma: r.UniformRange(0, 3)}
		homogReq := Homogeneous{N: n, Demand: d}
		demands := make([]stats.Normal, n)
		for i := range demands {
			demands[i] = d
		}
		heteroReq := Heterogeneous{Demands: demands}

		ph, ch, errHomog := AllocateHomog(led, homogReq, MinMaxOccupancy)
		ps, cs, errSub := AllocateHeteroSubstring(led, heteroReq, MinMaxOccupancy)
		if (errHomog == nil) != (errSub == nil) {
			t.Fatalf("trial %d: homog err=%v, substring err=%v", trial, errHomog, errSub)
		}
		if errHomog != nil {
			continue
		}
		subH := enclosingSubtree(led.Topology(), &ph)
		subS := enclosingSubtree(led.Topology(), &ps)
		lvH := led.Topology().Node(subH).Level
		lvS := led.Topology().Node(subS).Level
		if lvH != lvS {
			t.Fatalf("trial %d: homog level %d, substring level %d", trial, lvH, lvS)
		}
		valH := maxOccInSubtree(led, subH, ch)
		valS := maxOccInSubtree(led, subS, cs)
		if math.Abs(valH-valS) > 1e-9 {
			t.Fatalf("trial %d: homog value %v, substring value %v", trial, valH, valS)
		}
	}
}

func TestFirstFitBasic(t *testing.T) {
	led := newTestLedger(t, mustTopo(smallThreeTier()), 0.05)
	req := randHetero(stats.NewRand(8), 6, 1, 8)
	p, contribs, err := AllocateFirstFit(led, req)
	if err != nil {
		t.Fatalf("AllocateFirstFit: %v", err)
	}
	checkHeteroPlacement(t, led, req, &p, contribs)
}

func TestFirstFitRejectsOversize(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	req := randHetero(stats.NewRand(9), 11, 1, 5)
	if _, _, err := AllocateFirstFit(led, req); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("err = %v, want ErrNoCapacity", err)
	}
}

// TestFirstFitAlwaysValid commits a stream of first-fit placements and
// verifies each re-validates, including under accumulating load.
func TestFirstFitAlwaysValid(t *testing.T) {
	r := stats.NewRand(10)
	led := newTestLedger(t, mustTopo(smallThreeTier()), 0.05)
	admitted := 0
	for trial := 0; trial < 60; trial++ {
		req := randHetero(r, r.UniformInt(1, 6), 1, 10)
		p, contribs, err := AllocateFirstFit(led, req)
		if err != nil {
			continue
		}
		checkHeteroPlacement(t, led, req, &p, contribs)
		commit(led, &p, contribs)
		admitted++
	}
	if admitted == 0 {
		t.Fatal("first fit admitted nothing")
	}
}

// TestHeteroSubstringOccupancyBeatsFirstFitOnAverage reproduces the
// paper's Section VI-B3 claim in aggregate: across a seeded stream of
// requests, the substring heuristic's post-allocation max occupancy is no
// worse on average than first fit's.
func TestHeteroSubstringOccupancyBeatsFirstFitOnAverage(t *testing.T) {
	run := func(useFF bool) (float64, int) {
		r := stats.NewRand(424242)
		led := newTestLedger(t, mustTopo(smallThreeTier()), 0.05)
		var occSum float64
		count, admitted := 0, 0
		for trial := 0; trial < 40; trial++ {
			req := randHetero(r, r.UniformInt(2, 6), 1, 6)
			var (
				p        Placement
				contribs []Contribution
				err      error
			)
			if useFF {
				p, contribs, err = AllocateFirstFit(led, req)
			} else {
				p, contribs, err = AllocateHeteroSubstring(led, req, MinMaxOccupancy)
			}
			if err != nil {
				continue
			}
			commit(led, &p, contribs)
			admitted++
			occSum += led.MaxOccupancy()
			count++
		}
		return occSum / float64(count), admitted
	}
	subOcc, subAdmitted := run(false)
	ffOcc, ffAdmitted := run(true)
	if subAdmitted == 0 || ffAdmitted == 0 {
		t.Fatalf("admissions: substring=%d, first fit=%d", subAdmitted, ffAdmitted)
	}
	if subOcc > ffOcc+1e-9 {
		t.Errorf("substring mean max occupancy %v worse than first fit %v", subOcc, ffOcc)
	}
}
