package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/stats"
	"repro/internal/topology"
)

// Policy selects how the allocators break ties between multiple valid
// placements inside the chosen subtree.
type Policy int

const (
	// MinMaxOccupancy is the paper's SVC algorithm: among all valid
	// placements in the lowest feasible subtree, pick the one minimizing
	// the maximum bandwidth occupancy ratio of the subtree's links
	// (Algorithm 1, recurrences Eq. 11-12).
	MinMaxOccupancy Policy = iota + 1
	// FirstFeasible is the adapted TIVC baseline (paper Section VI-B3):
	// the same validity condition and lowest-subtree search, but no
	// occupancy optimization — the first valid VM split found is kept.
	FirstFeasible
	// GreedyPack mimics Oktopus's greedy allocation: within the lowest
	// feasible subtree, pack as many VMs as possible into each child in
	// turn (maximum locality), again without occupancy optimization.
	GreedyPack
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case MinMaxOccupancy:
		return "min-max-occupancy"
	case FirstFeasible:
		return "first-feasible"
	case GreedyPack:
		return "greedy-pack"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// infeasible marks unreachable DP states.
var infeasible = math.Inf(1)

// homogTable is the DP table of Algorithm 1 for one request shape. Per
// vertex it records the allocable VM set (paper Definition 1): for each
// count e up to the record's cap, the largest count with a finite optimum,
//
//   - optIn[e]: the min over placements of e VMs in the subtree of the max
//     occupancy of the links strictly inside it (infeasible if e cannot be
//     placed),
//   - upOcc[e]: the occupancy of the vertex's uplink with e VMs inside,
//   - alloc[e]: e satisfies the subtree and uplink constraints,
//   - choice(i)[s]: the VMs given to child i when the first i+1 children
//     hold s, which is what reconstructs the placement.
//
// The same table serves a cold plan (drawn from homogTablePool, every
// record computed), a plan-cache entry (kept between plans, only the
// records whose subtree version moved recomputed) and a failure repair (a
// cold plan with the two repair inputs below set), so the three cannot
// disagree.
type homogTable struct {
	dpTable
	req      Homogeneous // demand canonicalized (canonDemand)
	policy   Policy
	crossing []stats.Normal // crossing[m]: demand on a link with m of the N VMs below

	// Repair inputs (allocateHomogPinnedScoped); an admission sets neither.
	// Surviving VMs are lower bounds: a machine cannot take fewer VMs
	// than are pinned on it, and the chosen subtree must hold every pin.
	pins   []int // pins[v]: VMs pinned inside v's subtree; meaningful only while pinned > 0
	pinned int   // total pinned VMs
	relax  bool  // degraded pass: an uplink at O_L >= 1 stays allocable
}

var homogTablePool = sync.Pool{New: func() any { return new(homogTable) }}

// reset binds the table to a request shape and lays it out over the
// scope's vertices; every record is stale afterwards and no repair input
// survives, so a pooled table carries no lower bound into its next plan.
func (t *homogTable) reset(topo *topology.Topology, scope *planScope, req Homogeneous, policy Policy) {
	req.Demand = canonDemand(req.Demand)
	t.req, t.policy = req, policy
	t.pinned, t.relax = 0, false
	t.crossing = crossingTableHomog(t.crossing[:0], req.Demand, req.N)
	t.layout(topo, scope, req.N, 1)
}

// pin keeps count of the request's VMs on machine m: every subtree that
// contains m takes at least that many.
func (t *homogTable) pin(topo *topology.Topology, m topology.NodeID, count int) {
	if t.pinned == 0 {
		t.pins = grow(t.pins, topo.Len())
		clear(t.pins)
	}
	t.pinned += count
	for v := m; v != topology.None; v = topo.Node(v).Parent {
		t.pins[v] += count
	}
}

// holdingPins narrows one level's selection candidates to the subtree that
// contains every pinned VM — subtrees of one level are disjoint, so there
// is at most one. With nothing pinned every vertex qualifies.
func (t *homogTable) holdingPins(verts []topology.NodeID) []topology.NodeID {
	if t.pinned == 0 {
		return verts
	}
	for i, v := range verts {
		if t.pins[v] == t.pinned {
			return verts[i : i+1]
		}
	}
	return nil
}

// AllocateHomog runs the paper's homogeneous VM allocation over the current
// ledger state and returns the placement and its per-link crossing-demand
// contributions without committing them. It returns ErrNoCapacity when no
// subtree can host the request.
func AllocateHomog(led *Ledger, req Homogeneous, policy Policy) (Placement, []Contribution, error) {
	return allocateHomogScoped(led, req, policy, nil)
}

// allocateHomogScoped is the scope-aware cold plan behind AllocateHomog:
// with a non-nil scope the level loop, vertex records and selection scan
// are confined to the scope's subtree (see planScope), so a pod-local
// manager never places VMs outside its pod. It runs in a pooled table and,
// once the pool is warm, allocates nothing but the placement it returns.
func allocateHomogScoped(led *Ledger, req Homogeneous, policy Policy, scope *planScope) (Placement, []Contribution, error) {
	if err := req.Validate(); err != nil {
		return Placement{}, nil, err
	}
	return coldPlan(&homogTablePool, led, scope, func(t *homogTable) {
		t.reset(led.Topology(), scope, req, policy)
	})
}

// settle is dpTable.settle for this request, with a repair's pins
// narrowing each level's candidates. A dry run is settle and nothing else:
// it shares every DP line with an admission.
func (t *homogTable) settle(led *Ledger, scope *planScope) (topology.NodeID, int, error) {
	best, recomputed := t.dpTable.settle(led, scope, t.req.N, t.req.N, t.policy, t.holdingPins, t.compute)
	if best == topology.None {
		return best, recomputed, fmt.Errorf("%w: %v", ErrNoCapacity, t.req)
	}
	return best, recomputed, nil
}

// plan is settle followed by build: the placement in the subtree settle
// chose and the contributions a commit of it would charge.
func (t *homogTable) plan(led *Ledger, scope *planScope) (Placement, []Contribution, int, error) {
	best, recomputed, err := t.settle(led, scope)
	if err != nil {
		return Placement{}, nil, recomputed, err
	}
	var p Placement
	t.build(led.Topology(), best, t.req.N, &p)
	p.normalize()
	return p, homogContributions(led.Topology(), t.req, &p), recomputed, nil
}

// compute fills the DP record for vertex v from its children's records,
// which ensure has already brought up to date. It reads the ledger and the
// children's records and writes only v's own cells.
func (t *homogTable) compute(led *Ledger, topo *topology.Topology, v topology.NodeID) {
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
		// Each combine runs over live cells only — acc up to top, its
		// largest finite sum, times the child's counts up to its largest
		// allocable one — so only those cells are initialised and read,
		// and the last top is rec.cap.
		acc, next := optIn, upOcc
		if len(node.Children)%2 == 1 {
			acc, next = next, acc
		}
		acc[0] = 0
		top := 0 // -1 once no sum is finite: v takes no count, not even 0
		for i, c := range node.Children {
			child := &t.recs[c]
			cOpt, cUp, cAlloc := t.rows(child)
			ctop := child.cap
			for ctop >= 0 && !cAlloc[ctop] {
				ctop--
			}
			if ctop < 0 {
				top = -1
				break
			}
			reach := min(t.req.N, top+ctop)
			pick := t.choice(rec, i)[:reach+1]
			for s := range pick {
				next[s] = infeasible
				pick[s] = -1
			}
			homogCombine(t.policy, acc[:top+1], next[:reach+1], pick, cOpt, cUp, cAlloc[:ctop+1])
			acc, next = next, acc
			top = reach
			for top >= 0 && acc[top] == infeasible {
				top--
			}
			if top < 0 {
				break
			}
		}
		rec.cap = max(top, 0)
		if top < 0 {
			optIn[0] = infeasible
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

// homogCombine folds one child into the running combine of its parent:
// with acc[h] the optimum of h VMs in the children before it, and the
// child taking e of its allocable counts at cost max(cOpt[e], cUp[e]) —
// its in-subtree optimum and its uplink — it lowers next[h+e] and records
// e in pick[h+e]. len(next)-1 is the largest sum the parent keeps,
// len(cAlloc)-1 the child's largest count worth trying. The policy picks
// among feasible splits: MinMaxOccupancy the smallest max (first found on
// ties), GreedyPack the last found, FirstFeasible the first.
//
// The child's count e is the outer loop, descending: a count the child
// cannot take is skipped once, and its cost is read once. The partial sum
// h is the inner loop, ascending. A target cell s = h+e therefore sees its
// candidates in increasing h, the order an h-outer, e-ascending loop gives
// it, so "first found" and "last found" name the same split in both. An
// infeasible acc[h] makes the min-max value +Inf, which lowers no cell, so
// that loop needs no test for it. Occupancies are never NaN, so the
// compares below select exactly what math.Max would.
func homogCombine(policy Policy, acc, next []float64, pick []int32, cOpt, cUp []float64, cAlloc []bool) {
	for e := min(len(cAlloc), len(next)) - 1; e >= 0; e-- {
		if !cAlloc[e] {
			continue
		}
		room := min(len(acc), len(next)-e)
		into, from := next[e:e+room], pick[e:e+room]
		switch policy {
		case MinMaxOccupancy:
			cost := cOpt[e]
			if cUp[e] > cost {
				cost = cUp[e]
			}
			for h, val := range acc[:room] {
				if cost > val {
					val = cost
				}
				if val < into[h] {
					into[h], from[h] = val, int32(e)
				}
			}
		case GreedyPack:
			for h, cur := range acc[:room] {
				if cur != infeasible {
					into[h], from[h] = 0, int32(e)
				}
			}
		default: // FirstFeasible keeps the split found first
			for h, cur := range acc[:room] {
				if cur != infeasible && into[h] == infeasible {
					into[h], from[h] = 0, int32(e)
				}
			}
		}
	}
}

// build reconstructs the chosen placement by replaying the recorded
// per-child split choices top-down.
func (t *homogTable) build(topo *topology.Topology, v topology.NodeID, s int, p *Placement) {
	if s == 0 {
		return
	}
	node := topo.Node(v)
	if node.IsMachine() {
		p.Entries = append(p.Entries, PlacementEntry{Machine: v, Count: s})
		return
	}
	rec := &t.cachedRecords()[v]
	for i := len(node.Children) - 1; i >= 0; i-- {
		e := int(t.choice(rec, i)[s])
		if e < 0 {
			panic(fmt.Sprintf("core: no recorded choice for child %d of node %d at sum %d", i, v, s))
		}
		t.build(topo, node.Children[i], e, p)
		s -= e
	}
	if s != 0 {
		panic(fmt.Sprintf("core: reconstruction at node %d left %d VMs unassigned", v, s))
	}
}
