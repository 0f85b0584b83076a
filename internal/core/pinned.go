package core

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/topology"
)

// This file implements the partial-placement variant of Algorithm 1 used
// by failure repair: re-run the homogeneous min-max occupancy DP with a
// subset of the request's VMs pinned to the machines that survived a
// failure. Surviving VMs never move; only the displaced VMs are placed,
// and the chosen subtree must contain every pinned machine so the whole
// cluster stays mutually reachable.
//
// The DP is the same bottom-up recurrence as AllocateHomog, except that
// every subtree carries a lower bound (the pinned VMs it contains) in
// addition to its capacity, and in relaxed mode the uplink admission
// condition O_L < 1 (paper Eq. 4) becomes advisory: the placement is
// chosen to minimize the maximum occupancy but may exceed 1, which the
// manager reports as a weakened effective eps rather than silently
// violating the guarantee.

// pinnedRecord is the per-vertex DP state. Indexes are total VM counts in
// the subtree (pinned + newly placed).
type pinnedRecord struct {
	cap      int       // largest total VM count the subtree can hold
	lower    int       // pinned VMs inside: every feasible count is >= lower
	optIn    []float64 // optIn[e]: min over placements of max in-subtree occupancy
	upOcc    []float64 // upOcc[e]: uplink occupancy with e VMs inside
	alloc    []bool    // alloc[e]: e is achievable and the uplink admits it
	choice   [][]int32 // per-child split choices for reconstruction
	pinnedIn int       // pinned VMs in this subtree (== lower)
}

// AllocateHomogPinned places a homogeneous request with some VMs pinned:
// pinned maps machines to the VM counts that must remain there. The
// returned placement includes the pinned VMs (entry counts are totals per
// machine). The ledger must not be carrying the request being repaired —
// the caller rolls the job back first, so pinned slots are free again.
//
// With relax == false the admission condition O_L < 1 is enforced on every
// uplink, exactly like AllocateHomog; ErrNoCapacity means no
// guarantee-preserving repair exists. With relax == true only slot
// capacity and reachability constrain the placement, and the min-max
// objective limits (but does not bound) the resulting occupancy — the
// graceful-degradation path.
func AllocateHomogPinned(led *Ledger, req Homogeneous, policy Policy, pinned map[topology.NodeID]int, relax bool) (Placement, []linkDemand, error) {
	return allocateHomogPinnedScoped(led, req, policy, pinned, relax, nil)
}

// allocateHomogPinnedScoped is the scope-aware driver behind
// AllocateHomogPinned; a non-nil scope confines the repair DP to the
// scope's subtree exactly like allocateHomogScoped does for admissions.
func allocateHomogPinnedScoped(led *Ledger, req Homogeneous, policy Policy, pinned map[topology.NodeID]int, relax bool, scope *planScope) (Placement, []linkDemand, error) {
	if err := req.Validate(); err != nil {
		return Placement{}, nil, err
	}
	topo := led.Topology()

	totalPinned := 0
	pinnedIn := make([]int, topo.Len())
	for m, count := range pinned {
		if count == 0 {
			continue
		}
		if count < 0 || int(m) < 0 || int(m) >= topo.Len() || !topo.Node(m).IsMachine() {
			return Placement{}, nil, fmt.Errorf("%w: pinned %d VMs on node %d", ErrBadRequest, count, m)
		}
		if !led.Faults().Alive(m) {
			return Placement{}, nil, fmt.Errorf("%w: pinned machine %d is not alive", ErrBadRequest, m)
		}
		if free := led.FreeSlots(m); count > free {
			return Placement{}, nil, fmt.Errorf("%w: pinned %d VMs on machine %d with %d free slots", ErrBadRequest, count, m, free)
		}
		totalPinned += count
		pinnedIn[m] += count
		for _, link := range topo.PathToRoot(m) {
			if link != m {
				pinnedIn[link] += count
			}
		}
		pinnedIn[topo.Root()] += count
	}
	if totalPinned > req.N {
		return Placement{}, nil, fmt.Errorf("%w: %d pinned VMs exceed request size %d", ErrBadRequest, totalPinned, req.N)
	}

	crossing := crossingTableHomog(nil, req.Demand, req.N)
	records := make([]pinnedRecord, topo.Len())

	for level := 0; level <= scopeHeight(topo, scope); level++ {
		verts := scopeAtLevel(topo, scope, level)
		for _, v := range verts {
			pinnedCompute(led, topo, v, req.N, crossing, records, policy, pinnedIn[v], pinned, relax)
		}
		// Select the lowest feasible subtree containing every pinned VM,
		// breaking ties exactly like AllocateHomog.
		var (
			best    topology.NodeID = topology.None
			bestVal                 = infeasible
		)
		for _, v := range verts {
			rec := &records[v]
			if rec.pinnedIn != totalPinned || rec.cap < req.N || rec.optIn[req.N] == infeasible {
				continue
			}
			val := rec.optIn[req.N]
			if policy == FirstFeasible && best != topology.None {
				continue
			}
			if val < bestVal || best == topology.None {
				best, bestVal = v, val
			}
		}
		if best != topology.None {
			var p Placement
			pinnedBuild(topo, records, best, req.N, &p)
			p.normalize()
			return p, homogContributions(topo, req, &p), nil
		}
	}
	return Placement{}, nil, fmt.Errorf("%w: %v with %d pinned VMs", ErrNoCapacity, req, totalPinned)
}

// pinnedCompute fills the DP record for one vertex; the mirror of
// homogTable.compute with lower bounds and the optional relaxed uplink check.
func pinnedCompute(led *Ledger, topo *topology.Topology, v topology.NodeID, n int,
	crossing []stats.Normal, records []pinnedRecord, policy Policy,
	pinnedInside int, pinned map[topology.NodeID]int, relax bool) {

	node := topo.Node(v)
	rec := &records[v]
	*rec = pinnedRecord{pinnedIn: pinnedInside}
	if node.IsMachine() {
		rec.lower = pinned[v]
		// FreeSlots already includes the pinned slots (the caller rolled the
		// job back), so capacity is simply the free slots; validation
		// guaranteed lower <= FreeSlots.
		rec.cap = min(n, led.FreeSlots(v))
		rec.optIn = make([]float64, rec.cap+1)
		for e := 0; e < rec.lower && e <= rec.cap; e++ {
			rec.optIn[e] = infeasible
		}
	} else {
		capV, lowerV := 0, 0
		for _, c := range node.Children {
			capV += records[c].cap
			lowerV += records[c].lower
		}
		rec.cap = min(n, capV)
		rec.lower = lowerV
		acc := make([]float64, rec.cap+1)
		next := make([]float64, rec.cap+1)
		for s := 1; s <= rec.cap; s++ {
			acc[s] = infeasible
		}
		rec.choice = make([][]int32, len(node.Children))
		reach := 0
		for i, c := range node.Children {
			child := &records[c]
			pick := make([]int32, rec.cap+1)
			for s := range next {
				next[s] = infeasible
				pick[s] = -1
			}
			homogCombine(policy, acc[:reach+1], next, pick, child.optIn, child.upOcc, child.alloc)
			acc, next = next, acc
			rec.choice[i] = pick
			reach = min(rec.cap, reach+child.cap)
		}
		rec.optIn = acc
	}

	rec.alloc = make([]bool, rec.cap+1)
	isRoot := node.Parent == topology.None
	rec.upOcc = make([]float64, rec.cap+1)
	for e := 0; e <= rec.cap; e++ {
		if rec.optIn[e] == infeasible {
			continue
		}
		if isRoot {
			rec.alloc[e] = true
			continue
		}
		rec.upOcc[e] = led.OccupancyWith(v, crossing[e])
		if relax {
			rec.alloc[e] = true
		} else {
			rec.alloc[e] = rec.upOcc[e] < 1
		}
	}
}

// pinnedBuild reconstructs the chosen placement (mirror of homogTable.build).
func pinnedBuild(topo *topology.Topology, records []pinnedRecord, v topology.NodeID, s int, p *Placement) {
	if s == 0 {
		return
	}
	node := topo.Node(v)
	if node.IsMachine() {
		p.Entries = append(p.Entries, PlacementEntry{Machine: v, Count: s})
		return
	}
	rec := &records[v]
	for i := len(node.Children) - 1; i >= 0; i-- {
		e := int(rec.choice[i][s])
		if e < 0 {
			panic(fmt.Sprintf("core: no recorded pinned choice for child %d of node %d at sum %d", i, v, s))
		}
		pinnedBuild(topo, records, node.Children[i], e, p)
		s -= e
	}
	if s != 0 {
		panic(fmt.Sprintf("core: pinned reconstruction at node %d left %d VMs unassigned", v, s))
	}
}
