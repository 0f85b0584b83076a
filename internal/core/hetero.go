package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/stats"
	"repro/internal/topology"
)

// MaxExactHeteroVMs bounds the exact heterogeneous allocator: beyond this
// the O(2^N) allocable VM sets make it infeasible (paper Section V-B), and
// AllocateHeteroExact returns an error directing callers to the heuristic.
const MaxExactHeteroVMs = 14

// orderByPercentile returns the request's VM indices sorted ascending by
// the 95th percentile of their demand, the ordering the paper prescribes
// for the substring heuristic and first fit.
func orderByPercentile(req Heterogeneous) []int {
	order := make([]int, req.N())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return req.Demands[order[a]].Quantile(Percentile95) < req.Demands[order[b]].Quantile(Percentile95)
	})
	return order
}

// substrTable is the DP table of the substring heuristic (paper Section
// V-B) for one percentile-sorted demand sequence: the allocable VM sets of
// homogTable restricted to contiguous substrings [a, a+length) of the
// sequence. A record's rows are indexed by idx(length, a), length up to
// the record's cap; choice(i)[idx] is the split point k — child i received
// [k, b). Permutations of one demand multiset share a table: a plan-cache
// hit rebinds req and order, which map substring positions back to the
// request's VM indices, and keeps the records.
type substrTable struct {
	dpTable
	req    Heterogeneous
	order  []int // order[pos] is req's VM at sorted position pos
	policy Policy
	prefix demandPrefix // over the canonicalized (canonDemand) sorted demands
	// crossing[idx(length, a)] is the demand a link carries with the
	// substring [a, a+length) below it — the same for every vertex, so it
	// is computed once per table, a length at a time as vertices need them
	// (needCrossing); lengths below crossLens are filled.
	crossing  []stats.Normal
	crossLens int
}

var substrTablePool = sync.Pool{New: func() any { return new(substrTable) }}

func (t *substrTable) idx(length, a int) int { return length*(t.n+1) + a }

// reset binds the table to req, whose VMs in percentile order are order,
// and lays it out over the scope's vertices; every record is stale
// afterwards. The empty-link refusal turns the request away instead when
// some VM lies in no substring of at most MaxMachineSlots VMs whose
// crossing demand an empty host link carries, so no machine can take it:
// one sweep, each start trying its longest substring first, with the VMs
// below reach covered.
func (t *substrTable) reset(led *Ledger, scope *planScope, req Heterogeneous, order []int, policy Policy) {
	t.req, t.order, t.policy, t.n, t.stride = req, order, policy, len(order), len(order)+1
	t.hostTop = t.n // no host-link bound: dpRec.top is the static bound on cap
	t.prefix.reset(req.Demands, order)
	t.crossing = grow(t.crossing, t.stride*t.stride)
	t.crossLens, t.refused = 0, false
	if s := led.Topology().MaxMachineSlots(); led.judgesEmptyLinks(t.n) {
		t.needCrossing(s)
		for a, reach := 0, 0; a < t.n && !t.refused; a++ {
			for length := min(s, t.n-a); a+length > reach; length-- {
				if led.emptyHostCarries(t.crossing[t.idx(length, a)]) {
					reach = a + length
				}
			}
			t.refused = reach <= a
		}
	}
	if !t.refused {
		t.layout(led.Topology(), scope)
	}
}

// needCrossing extends the crossing table to substring length maxLen.
// compute calls it, so kernels on one table run one at a time: a settle
// that computed records on several goroutines would call needCrossing(n)
// before it split the work.
func (t *substrTable) needCrossing(maxLen int) {
	for ; t.crossLens <= maxLen; t.crossLens++ {
		for a := 0; a+t.crossLens <= t.n; a++ {
			t.crossing[t.idx(t.crossLens, a)] = t.prefix.crossing(a, a+t.crossLens)
		}
	}
}

// AllocateHeteroSubstring runs the paper's polynomial-time heterogeneous
// heuristic: VMs are sorted by 95th-percentile demand and allocable VM sets
// are restricted to contiguous substrings of the sorted sequence, searched
// bottom-up with the same lowest-subtree, min-max-occupancy dynamic program
// as the homogeneous algorithm. It returns the placement without
// committing it.
func AllocateHeteroSubstring(led *Ledger, req Heterogeneous, policy Policy) (Placement, error) {
	return allocateHeteroSubstringScoped(led, req, policy, nil)
}

// allocateHeteroSubstringScoped is the scope-aware cold plan behind
// AllocateHeteroSubstring; see allocateHomogScoped.
func allocateHeteroSubstringScoped(led *Ledger, req Heterogeneous, policy Policy, scope *planScope) (Placement, error) {
	if err := req.Validate(); err != nil {
		return Placement{}, err
	}
	order := orderByPercentile(req)
	return coldPlan(&substrTablePool, led, scope, func(t *substrTable) {
		t.reset(led, scope, req, order, policy)
	})
}

// settle is dpTable.settle for the whole sorted sequence, the substring
// [0, n).
func (t *substrTable) settle(led *Ledger, scope *planScope) (topology.NodeID, int, error) {
	best, recomputed := t.dpTable.settle(led, scope, t.n, t.idx(t.n, 0), t.policy, nil, t.compute, nil)
	if best == topology.None {
		return best, recomputed, fmt.Errorf("%w: %v", ErrNoCapacity, t.req)
	}
	return best, recomputed, nil
}

// plan is settle followed by build, as homogTable.plan.
func (t *substrTable) plan(led *Ledger, scope *planScope) (Placement, int, error) {
	best, recomputed, err := t.settle(led, scope)
	if err != nil {
		return Placement{}, recomputed, err
	}
	var p Placement
	t.build(led.Topology(), best, 0, t.n, &p)
	p.normalize()
	return p, recomputed, nil
}

// compute fills the substring DP record for vertex v. Like
// homogTable.compute it reads the ledger and the children's records and
// writes only v's own cells, after extending the shared crossing table to
// what v's uplink can see: up to its static cap bound (the root has none).
func (t *substrTable) compute(led *Ledger, topo *topology.Topology, v topology.NodeID) {
	node := topo.Node(v)
	if node.Parent != topology.None {
		t.needCrossing(t.recs[v].cells/(t.n+1) - 1)
	}
	rec := &t.recs[v]
	optIn, upOcc, alloc := t.rows(rec)
	n := t.n
	if node.IsMachine() {
		// A machine can hold any substring short enough to fit its free
		// slots; VMs sharing a machine use no links.
		rec.cap = min(n, led.FreeSlots(v))
		clear(optIn[:(rec.cap+1)*(n+1)])
	} else {
		capV := 0
		for _, c := range node.Children {
			capV += t.recs[c].cap
		}
		rec.cap = min(n, capV)
		// acc and next ping-pong between v's own float rows, and only the
		// lengths up to reach are initialised and read, as in
		// homogTable.compute.
		acc, next := optIn, upOcc
		if len(node.Children)%2 == 1 {
			acc, next = next, acc
		}
		clear(acc[:n+1]) // the empty substring, anchored anywhere
		reach := 0
		for i, c := range node.Children {
			child := &t.recs[c]
			cOpt, cUp, cAlloc := t.rows(child)
			grown := min(rec.cap, reach+child.cap)
			pick := t.choice(rec, i)[:(grown+1)*(n+1)]
			for j := range pick {
				next[j] = infeasible
				pick[j] = -1
			}
			for aLen := 0; aLen <= reach; aLen++ {
				for a := 0; a+aLen <= n; a++ {
					cur := acc[t.idx(aLen, a)]
					if cur == infeasible {
						continue
					}
					k := a + aLen // child i continues the substring at k
					maxChildLen := min(child.cap, rec.cap-aLen, n-k)
					for cl := 0; cl <= maxChildLen; cl++ {
						cIdx := t.idx(cl, k)
						if !cAlloc[cIdx] {
							continue
						}
						tIdx := t.idx(aLen+cl, a)
						val := 0.0
						if t.policy == MinMaxOccupancy {
							// Occupancies are never NaN, so these compares
							// select exactly what math.Max would.
							val = cur
							if cOpt[cIdx] > val {
								val = cOpt[cIdx]
							}
							if cUp[cIdx] > val {
								val = cUp[cIdx]
							}
						} else if next[tIdx] != infeasible {
							continue
						}
						if val < next[tIdx] {
							next[tIdx] = val
							pick[tIdx] = int32(k)
						}
					}
				}
			}
			acc, next = next, acc
			reach = grown
		}
	}

	isRoot := node.Parent == topology.None
	for length := 0; length <= rec.cap; length++ {
		for a := 0; a+length <= n; a++ {
			i := t.idx(length, a)
			switch {
			case optIn[i] == infeasible:
				alloc[i] = false
			case isRoot:
				alloc[i] = true
			default:
				upOcc[i] = led.OccupancyWith(v, t.crossing[i])
				alloc[i] = upOcc[i] < 1
			}
		}
	}
	rec.ver, rec.filled = led.SubtreeVersion(v), true
}

// build reconstructs the substring assignment [a, b) at vertex v.
func (t *substrTable) build(topo *topology.Topology, v topology.NodeID, a, b int, p *Placement) {
	if a == b {
		return
	}
	node := topo.Node(v)
	if node.IsMachine() {
		vms := make([]int, 0, b-a)
		for pos := a; pos < b; pos++ {
			vms = append(vms, t.order[pos])
		}
		p.Entries = append(p.Entries, PlacementEntry{Machine: v, Count: b - a, VMs: vms})
		return
	}
	rec := &t.cachedRecords()[v]
	for i := len(node.Children) - 1; i >= 0; i-- {
		k := int(t.choice(rec, i)[t.idx(b-a, a)])
		if k < 0 {
			panic(fmt.Sprintf("core: no recorded split for child %d of node %d over [%d,%d)", i, v, a, b))
		}
		t.build(topo, node.Children[i], k, b, p)
		b = k
	}
	if b != a {
		panic(fmt.Sprintf("core: reconstruction at node %d left [%d,%d) unassigned", v, a, b))
	}
}

// heteroMaskState is the exact DP's per-vertex state: for each subset of
// the request's VMs that can be placed in the subtree, the optimal max
// in-subtree occupancy and the per-child submask split.
type heteroMaskState struct {
	opt   float64
	split []uint32 // per-child submask (internal vertices only)
}

// AllocateHeteroExact runs the paper's exact (exponential) heterogeneous
// dynamic program, which maintains every allocable VM subset per subtree.
// It is only practical for small requests (N <= MaxExactHeteroVMs) and
// exists as the optimality reference for the substring heuristic.
func AllocateHeteroExact(led *Ledger, req Heterogeneous) (Placement, error) {
	if err := req.Validate(); err != nil {
		return Placement{}, err
	}
	n := req.N()
	if n > MaxExactHeteroVMs {
		return Placement{}, fmt.Errorf("%w: exact allocator supports at most %d VMs, got %d",
			ErrBadRequest, MaxExactHeteroVMs, n)
	}
	topo := led.Topology()

	// Aggregate demand of every subset, built by peeling the lowest bit.
	size := 1 << n
	aggMu := make([]float64, size)
	aggVar := make([]float64, size)
	for mask := 1; mask < size; mask++ {
		low := mask & -mask
		rest := mask ^ low
		d := req.Demands[bits.TrailingZeros32(uint32(mask))]
		aggMu[mask] = aggMu[rest] + d.Mu
		aggVar[mask] = aggVar[rest] + d.Var()
	}
	fullMask := uint32(size - 1)
	cross := func(mask uint32) stats.Normal {
		inside := stats.Normal{Mu: aggMu[mask], Sigma: sqrtNonNeg(aggVar[mask])}
		out := fullMask &^ mask
		outside := stats.Normal{Mu: aggMu[out], Sigma: sqrtNonNeg(aggVar[out])}
		return CrossingSets(inside, outside)
	}

	records := make([]map[uint32]heteroMaskState, topo.Len())
	for level := 0; level <= topo.Height(); level++ {
		var (
			best    topology.NodeID = topology.None
			bestVal                 = infeasible
		)
		for _, v := range topo.AtLevel(level) {
			rec := heteroExactCompute(led, topo, v, n, cross, records)
			records[v] = rec
			if st, ok := rec[fullMask]; ok {
				if st.opt < bestVal || best == topology.None {
					best, bestVal = v, st.opt
				}
			}
		}
		if best != topology.None {
			var p Placement
			heteroExactBuild(topo, records, best, fullMask, &p)
			p.normalize()
			return p, nil
		}
	}
	return Placement{}, fmt.Errorf("%w: %v", ErrNoCapacity, req)
}

// heteroExactCompute fills the exact-DP record for vertex v: the map from
// allocable subsets (including the uplink constraint) to their state.
func heteroExactCompute(led *Ledger, topo *topology.Topology, v topology.NodeID, n int,
	cross func(uint32) stats.Normal, records []map[uint32]heteroMaskState) map[uint32]heteroMaskState {

	node := topo.Node(v)
	inSubtree := make(map[uint32]heteroMaskState)
	if node.IsMachine() {
		free := led.FreeSlots(v)
		for mask := uint32(0); mask < 1<<n; mask++ {
			if bits.OnesCount32(mask) <= free {
				inSubtree[mask] = heteroMaskState{}
			}
		}
	} else {
		acc := map[uint32]heteroMaskState{0: {split: nil}}
		for _, c := range node.Children {
			// The child's record is already filtered to its allocable set
			// (its uplink constraint applied); the uplink occupancy is
			// recomputed here only because it participates in the min-max
			// objective.
			child := records[c]
			childUp := make(map[uint32]float64, len(child))
			for mask, st := range child {
				childUp[mask] = math.Max(st.opt, led.OccupancyWith(c, cross(mask)))
			}
			next := make(map[uint32]heteroMaskState)
			for accMask, accSt := range acc {
				for childMask, up := range childUp {
					if accMask&childMask != 0 {
						continue
					}
					union := accMask | childMask
					val := math.Max(accSt.opt, up)
					if cur, ok := next[union]; !ok || val < cur.opt {
						split := make([]uint32, len(accSt.split)+1)
						copy(split, accSt.split)
						split[len(accSt.split)] = childMask
						next[union] = heteroMaskState{opt: val, split: split}
					}
				}
			}
			acc = next
		}
		inSubtree = acc
	}

	// Apply this vertex's own uplink constraint to form the allocable set.
	// (The root keeps every placeable subset.)
	if node.Parent == topology.None {
		return inSubtree
	}
	allocable := make(map[uint32]heteroMaskState, len(inSubtree))
	for mask, st := range inSubtree {
		if mask == 0 || led.OccupancyWith(v, cross(mask)) < 1 {
			allocable[mask] = st
		}
	}
	return allocable
}

// heteroExactBuild reconstructs the exact DP's placement.
func heteroExactBuild(topo *topology.Topology, records []map[uint32]heteroMaskState,
	v topology.NodeID, mask uint32, p *Placement) {
	if mask == 0 {
		return
	}
	node := topo.Node(v)
	if node.IsMachine() {
		var vms []int
		for m := mask; m != 0; m &= m - 1 {
			vms = append(vms, bits.TrailingZeros32(m))
		}
		p.Entries = append(p.Entries, PlacementEntry{Machine: v, Count: len(vms), VMs: vms})
		return
	}
	st := records[v][mask]
	for i, childMask := range st.split {
		heteroExactBuild(topo, records, node.Children[i], childMask, p)
	}
}
