package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// The reference below is the homogeneous combine as it stood before it
// was trimmed to live cells: refHomogCombine is homogCombine and
// refComputeHomog is homogTable.compute, both verbatim, with only their
// names changed and homogCombine's call renamed. Its loops run the
// partial sum h outside and the child's count e inside over every cell up
// to the static caps, and rec.cap is min(N, sum of the children's caps).
// The kernel in homog.go must fill the same records: equal bits in every
// cell up to its own cap, and above that cap the reference must hold
// nothing feasible.

func refComputeHomog(t *homogTable, led *Ledger, topo *topology.Topology, v topology.NodeID) {
	node := topo.Node(v)
	rec := &t.recs[v]
	optIn, upOcc, alloc := t.rows(rec)
	if node.IsMachine() {
		// Leaf base case: any count up to the free slots fits, and VMs on
		// the same machine use no links, so the in-subtree occupancy is 0.
		// A repair's pinned VMs are already counted free (the job was
		// rolled back), so they only rule out the counts below them.
		rec.cap = min(t.req.N, led.FreeSlots(v))
		clear(optIn[:rec.cap+1])
		if t.pinned > 0 {
			for e := range optIn[:t.pins[v]] {
				optIn[e] = infeasible
			}
		}
	} else {
		// Combine children left to right: acc[s] is the optimal value of
		// placing s VMs in the first i child subtrees — Eq. 11 specialized
		// to the incremental tree T_v[i]. acc and next ping-pong between
		// v's own two float rows (upOcc is not needed until the combine is
		// over), starting on the one that leaves the last result in optIn.
		// Only sums up to reach exist at any point, so only those cells are
		// initialised and read; reach ends at rec.cap.
		capV := 0
		for _, c := range node.Children {
			capV += t.recs[c].cap
		}
		rec.cap = min(t.req.N, capV)
		acc, next := optIn, upOcc
		if len(node.Children)%2 == 1 {
			acc, next = next, acc
		}
		acc[0] = 0
		reach := 0 // largest sum reachable with the children combined so far
		for i, c := range node.Children {
			child := &t.recs[c]
			cOpt, cUp, cAlloc := t.rows(child)
			grown := min(rec.cap, reach+child.cap)
			pick := t.choice(rec, i)[:grown+1]
			for s := range pick {
				next[s] = infeasible
				pick[s] = -1
			}
			refHomogCombine(t.policy, acc[:reach+1], next[:grown+1], pick, cOpt, cUp, cAlloc[:child.cap+1])
			acc, next = next, acc
			reach = grown
		}
	}

	// Uplink occupancy and the allocable VM set (Definition 1). The root
	// has no uplink; every other vertex must keep its uplink admissible,
	// unless the plan is a repair's relaxed pass, where the occupancy only
	// enters the min-max objective.
	isRoot, relax := node.Parent == topology.None, t.relax
	for e := 0; e <= rec.cap; e++ {
		switch {
		case optIn[e] == infeasible:
			alloc[e] = false
		case isRoot:
			alloc[e] = true
		default:
			upOcc[e] = led.OccupancyWith(v, t.crossing[e])
			alloc[e] = upOcc[e] < 1 || relax
		}
	}
	rec.ver, rec.filled = led.SubtreeVersion(v), true
}

func refHomogCombine(policy Policy, acc, next []float64, pick []int32, cOpt, cUp []float64, cAlloc []bool) {
	for h, cur := range acc {
		if cur == infeasible {
			continue
		}
		room := min(len(cAlloc), len(next)-h)
		into, from := next[h:h+room], pick[h:h+room]
		cOpt, cUp := cOpt[:room], cUp[:room]
		switch policy {
		case MinMaxOccupancy:
			for e, ok := range cAlloc[:room] {
				if !ok {
					continue
				}
				val := cur
				if cOpt[e] > val {
					val = cOpt[e]
				}
				if cUp[e] > val {
					val = cUp[e]
				}
				if val < into[e] {
					into[e], from[e] = val, int32(e)
				}
			}
		case GreedyPack:
			for e, ok := range cAlloc[:room] {
				if ok {
					into[e], from[e] = 0, int32(e)
				}
			}
		default: // FirstFeasible keeps the split found first
			for e, ok := range cAlloc[:room] {
				if ok && into[e] == infeasible {
					into[e], from[e] = 0, int32(e)
				}
			}
		}
	}
}

// unwritten fills a table's slabs with values no kernel writes — NaN
// floats, choice -2, allocable true — so a cell read before it is written
// shows up as a mismatch, and a choice cell no kernel wrote is told apart
// from an empty one.
func unwritten(t *homogTable) {
	for i := range t.f64 {
		t.f64[i] = math.NaN()
	}
	for i := range t.i32 {
		t.i32[i] = -2
	}
	for i := range t.bl {
		t.bl[i] = true
	}
}

// kernelCase is one DP input: a ledger, a request shape and the repair
// inputs, planned by both kernels in tables of their own.
type kernelCase struct {
	led    *Ledger
	req    Homogeneous
	policy Policy
	pins   map[topology.NodeID]int
	relax  bool
}

// tables fills every record of the whole tree bottom-up, once with the
// reference and once with compute.
func (c kernelCase) tables() (ref, got *homogTable) {
	topo := c.led.Topology()
	ref, got = new(homogTable), new(homogTable)
	for _, t := range []*homogTable{ref, got} {
		t.reset(c.led, nil, c.req, c.policy, false) // every record laid out, also a refused request's
		t.relax = c.relax
		for m, n := range c.pins {
			t.pin(topo, m, n)
		}
		unwritten(t)
	}
	for level := 0; level <= scopeHeight(topo, nil); level++ {
		for _, v := range scopeAtLevel(topo, nil, level) {
			refComputeHomog(ref, c.led, topo, v)
			got.compute(c.led, topo, v)
		}
	}
	return ref, got
}

// diffRecords compares every vertex record of got against ref and returns
// the first difference.
func diffRecords(topo *topology.Topology, ref, got *homogTable) error {
	for v := topology.NodeID(0); int(v) < topo.Len(); v++ {
		node := topo.Node(v)
		rr, gr := &ref.recs[v], &got.recs[v]
		rOpt, rUp, rAlloc := ref.rows(rr)
		gOpt, gUp, gAlloc := got.rows(gr)
		if gr.cap > rr.cap {
			return fmt.Errorf("node %d: cap %d above the reference's %d", v, gr.cap, rr.cap)
		}
		if gOpt[gr.cap] == infeasible && gr.cap != 0 {
			return fmt.Errorf("node %d: optIn[cap=%d] is infeasible", v, gr.cap)
		}
		for e := 0; e <= gr.cap; e++ {
			if math.Float64bits(gOpt[e]) != math.Float64bits(rOpt[e]) || gAlloc[e] != rAlloc[e] {
				return fmt.Errorf("node %d, count %d: optIn %v alloc %v, reference %v %v", v, e, gOpt[e], gAlloc[e], rOpt[e], rAlloc[e])
			}
			if rOpt[e] != infeasible && node.Parent != topology.None && math.Float64bits(gUp[e]) != math.Float64bits(rUp[e]) {
				return fmt.Errorf("node %d, count %d: upOcc %v, reference %v", v, e, gUp[e], rUp[e])
			}
		}
		for e := gr.cap + 1; e <= rr.cap; e++ {
			if rOpt[e] != infeasible || rAlloc[e] {
				return fmt.Errorf("node %d, count %d above cap %d: reference optIn %v alloc %v", v, e, gr.cap, rOpt[e], rAlloc[e])
			}
		}
		if gr.cap == 0 && gOpt[0] == infeasible {
			continue // v takes no count: no choice row is ever read
		}
		for i := range node.Children {
			rPick, gPick := ref.choice(rr, i), got.choice(gr, i)
			for s := 0; s <= gr.cap; s++ {
				// A recorded choice is equal; a cell without one (-1) or
				// never written (-2) is so on both sides.
				if r, g := rPick[s], gPick[s]; r != g && (r >= 0 || g >= 0) {
					return fmt.Errorf("node %d, child %d, sum %d: choice %d, reference %d", v, i, s, g, r)
				}
			}
		}
	}
	return nil
}

// randomKernelCase loads a ledger over tp at risk factor eps at random —
// deterministic and stochastic reservations on links, used slots, failed
// machines and links — and
// draws a request shape, a policy and, half the time, repair inputs:
// pins on live machines and, half of those times, the relaxed pass.
func randomKernelCase(r *stats.Rand, tp *topology.Topology, maxN int, mu, eps float64) kernelCase {
	led, err := NewLedger(tp, eps)
	if err != nil {
		panic(err)
	}
	for _, m := range tp.Machines() {
		led.UseSlots(m, r.IntN(tp.Node(m).Slots+1))
	}
	for _, link := range tp.Links() {
		cap := tp.LinkCap(link)
		switch r.IntN(4) {
		case 0:
			led.AddDet(link, r.UniformRange(0, 0.6*cap))
		case 1:
			led.AddStochastic(link, stats.Normal{Mu: r.UniformRange(0, 0.5*cap), Sigma: r.UniformRange(0, 0.2*cap)})
		}
		if r.Float64() < 0.05 {
			led.Faults().FailLink(link)
		}
	}
	for _, m := range tp.Machines() {
		if r.Float64() < 0.05 {
			led.Faults().FailMachine(m)
		}
	}
	n := r.UniformInt(1, min(maxN, tp.TotalSlots()))
	c := kernelCase{
		led:    led,
		req:    Homogeneous{N: n, Demand: stats.Normal{Mu: r.UniformRange(0.1*mu, mu), Sigma: r.UniformRange(0, 0.5*mu)}},
		policy: []Policy{MinMaxOccupancy, FirstFeasible, GreedyPack}[r.IntN(3)],
	}
	if r.Float64() < 0.5 {
		c.pins = map[topology.NodeID]int{}
		left := n
		for _, m := range tp.Machines() {
			if free := led.FreeSlots(m); free > 0 && left > 0 && r.Float64() < 0.2 {
				k := r.UniformInt(1, min(free, left))
				c.pins[m] = k
				left -= k
			}
		}
		c.relax = r.Float64() < 0.5
	}
	return c
}

// TestHomogKernelMatchesReference runs the reference and the trimmed
// kernel over random trees (depth up to 3, fanout up to 4) and over the
// paper tree's Scaled(5) cut with rows up to 160 long, under all three
// policies, with failed machines and links, pinned repairs and relaxed
// passes, and compares every vertex record.
func TestHomogKernelMatchesReference(t *testing.T) {
	r := stats.NewRand(3232)
	scaled, err := topology.NewThreeTier(topology.PaperConfig().Scaled(5))
	if err != nil {
		t.Fatal(err)
	}
	var trimmed, dead, pinned int
	for trial := 0; trial < 1000; trial++ {
		tp, maxN, mu := randomTopology(r), 40, 40.0
		if trial%10 == 0 {
			tp, maxN, mu = scaled, 160, 500
		}
		c := randomKernelCase(r, tp, maxN, mu, 0.05)
		ref, got := c.tables()
		if err := diffRecords(tp, ref, got); err != nil {
			t.Fatalf("trial %d (req %v, policy %v, pins %v, relax %v): %v", trial, c.req, c.policy, c.pins, c.relax, err)
		}
		for v := range got.recs {
			if tp.Node(topology.NodeID(v)).IsMachine() {
				continue
			}
			if got.recs[v].cap < ref.recs[v].cap {
				trimmed++
			}
			if optIn, _, _ := got.rows(&got.recs[v]); got.recs[v].cap == 0 && optIn[0] == infeasible {
				dead++
			}
		}
		if len(c.pins) > 0 {
			pinned++
		}
	}
	// The cases must reach the regimes the trim changes.
	if trimmed < 1500 || dead < 150 || pinned < 300 {
		t.Errorf("weak coverage: %d trimmed switches, %d that take no count, %d pinned cases", trimmed, dead, pinned)
	}
	t.Logf("%d trimmed switches, %d that take no count, %d pinned cases", trimmed, dead, pinned)
}

// FuzzHomogCombine compares homogCombine with the reference on arbitrary
// rows: acc and the child's rows up to 24 long, next at least as long as
// acc, values from a small set with many ties (zero,
// a few fractions, one, above one, +Inf), a random starting next row and
// every policy. next and pick must come out bit-equal.
func FuzzHomogCombine(f *testing.F) {
	f.Add([]byte{0, 5, 9, 4, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2})
	f.Add([]byte{1, 12, 20, 8, 7, 7, 0, 0, 3, 3, 3, 1, 2, 2, 5, 6})
	f.Add([]byte{2, 3, 3, 3, 0, 0, 0, 7, 7, 7, 1, 1, 1})
	f.Add([]byte{0, 23, 23, 23, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	values := []float64{0, 0.25, 0.5, 0.5, 0.75, 1, 1.5, infeasible}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		policy := []Policy{MinMaxOccupancy, FirstFeasible, GreedyPack}[next()%3]
		nAcc := 1 + int(next()%24)
		nNext, nChild := nAcc+int(next()%24), 1+int(next()%24) // a combine never shrinks the sums
		acc := make([]float64, nAcc)
		for i := range acc {
			acc[i] = values[next()%8]
		}
		cOpt, cUp, cAlloc := make([]float64, nChild), make([]float64, nChild), make([]bool, nChild)
		for e := range cAlloc {
			b := next()
			cOpt[e], cUp[e], cAlloc[e] = values[b%8], values[b/8%8], b >= 64
		}
		refNext, refPick := make([]float64, nNext), make([]int32, nNext)
		for s := range refNext {
			b := next()
			refNext[s], refPick[s] = values[b%8], int32(b/8%4)-1
		}
		gotNext, gotPick := append([]float64(nil), refNext...), append([]int32(nil), refPick...)
		refHomogCombine(policy, acc, refNext, refPick, cOpt, cUp, cAlloc)
		homogCombine(policy, acc, gotNext, gotPick, cOpt, cUp, cAlloc)
		for s := range refNext {
			if math.Float64bits(gotNext[s]) != math.Float64bits(refNext[s]) || gotPick[s] != refPick[s] {
				t.Fatalf("%v, sum %d: next %v pick %d, reference %v %d (acc %v, cOpt %v, cUp %v, cAlloc %v)",
					policy, s, gotNext[s], gotPick[s], refNext[s], refPick[s], acc, cOpt, cUp, cAlloc)
			}
		}
	})
}
