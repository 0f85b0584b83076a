package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/topology"
)

// This file holds the storage both allocation DPs (homog.go, hetero.go)
// keep their per-vertex records in — one table type, used as pooled
// scratch by a cold plan and as owned storage by a plan-cache entry — and
// settle, the selection both run over it.
//
// A vertex's record is three rows of equal length — optIn, upOcc, alloc —
// plus one choice row per child. Row lengths depend only on the topology
// and the request size, never on ledger state: a subtree can take at most
// min(N, slots below it) VMs. layout therefore assigns every vertex its
// offsets into three shared slabs before the DP runs, the kernels write
// only into their own vertex's cells, and a plan on a table whose slabs are
// large enough allocates nothing.

// dpRec locates one vertex's record in the slabs.
type dpRec struct {
	ver    uint64 // SubtreeVersion(v) the record was computed under
	filled bool   // false until computed, and again after a fault-epoch change
	// cap is, in the homogeneous DP, the largest VM count with a finite
	// optimum — 0, with optIn[0] = +Inf, when the subtree takes none — and
	// no cell above it is read; in the substring DP it bounds the
	// substring length the subtree takes now.
	cap   int
	cells int // length of each row: (static bound on cap + 1) x stride
	off   int // alloc row starts at bl[off]; optIn at f64[2*off], upOcc right behind it
	pick  int // child i's choice row starts at i32[pick+i*cells] (internal vertices)
	top   int // cells' static bound with machines' slots capped at hostTop: no count above it is allocable
}

// capMemo is an internal vertex's capacity bound (homogTable.capBound),
// current while ver is its SubtreeVersion; layout and a fault-epoch change
// zero ver. Only homogeneous tables keep them.
type capMemo struct {
	ver        uint64
	cap, reach int
}

// dpTable is the slab-backed record table.
type dpTable struct {
	recs      []dpRec // indexed by NodeID; only in-scope vertices are laid out
	f64       []float64
	i32       []int32
	bl        []bool
	n, stride int    // the bound request's VM count and cells per VM count (layout)
	hostTop   int    // no host link carries a larger count (homogTable.setHostTop; else n)
	lowest    int    // the lowest level with a vertex whose static bound reaches n
	epoch     uint64 // Faults().Epoch() the filled records were computed under
	stale     []staleCand
	bounds    []capMemo // by NodeID, beside recs: a warm plan's scan reads records only; nil in a substring table
	audit     bool      // under -tags invariants: the next settle checks every candidate it passed over
	refused   bool      // the empty-link refusal turned the bound request away: nothing is laid out
}

// staleCand is a stale candidate's index in its level and its bound.
type staleCand struct {
	i     int
	inner float64
}

// layout sizes the table for the bound request over the scope's vertices
// and marks every record unfilled and every capacity bound stale. stride
// is the number of cells per VM count: 1 for the homogeneous DP, n+1
// substring anchors for the substring DP. Slabs are reused when large
// enough; their contents are not cleared — the kernels write every cell
// before anything reads it.
func (t *dpTable) layout(topo *topology.Topology, scope *planScope) {
	n, stride := t.n, t.stride
	t.recs = grow(t.recs, topo.Len())
	cells, picks := 0, 0
	t.lowest = scopeHeight(topo, scope) + 1
	for level := 0; level <= scopeHeight(topo, scope); level++ {
		for _, v := range scopeAtLevel(topo, scope, level) {
			node := topo.Node(v)
			// cap starts at its static bound; compute lowers it to what
			// the ledger leaves free.
			bound, top := node.Slots, min(node.Slots, t.hostTop)
			for _, c := range node.Children {
				bound, top = bound+t.recs[c].cap, top+t.recs[c].top
			}
			bound = min(n, bound)
			if bound == n {
				t.lowest = min(t.lowest, level)
			}
			// Field by field: a literal is built on the stack and copied.
			r := &t.recs[v]
			r.filled, r.cap, r.cells, r.off, r.pick, r.top = false, bound, (bound+1)*stride, cells, picks, min(n, top)
			if t.bounds != nil {
				t.bounds[v].ver = 0
			}
			cells += r.cells
			picks += len(node.Children) * r.cells
		}
	}
	t.f64 = grow(t.f64, 2*cells)
	t.bl = grow(t.bl, cells)
	t.i32 = grow(t.i32, picks)
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// rows returns r's optIn, upOcc and alloc rows.
func (t *dpTable) rows(r *dpRec) (optIn, upOcc []float64, alloc []bool) {
	f := t.f64[2*r.off : 2*(r.off+r.cells)]
	return f[:r.cells], f[r.cells:], t.bl[r.off : r.off+r.cells]
}

// choice returns r's choice row for its i-th child.
func (t *dpTable) choice(r *dpRec, i int) []int32 {
	return t.i32[r.pick+i*r.cells : r.pick+(i+1)*r.cells]
}

// cachedRecords returns the record table for read-only use by the
// selection scan and placement reconstruction. A plan-cache entry's table
// outlives the plan that filled it (the snapshotro analyzer tracks this
// accessor): all writes go through the compute kernels, never through the
// returned view, so a cached record always equals a cold recompute.
func (t *dpTable) cachedRecords() []dpRec { return t.recs }

func (t *dpTable) table() *dpTable { return t }

// syncEpoch drops every record and capacity bound when the ledger's fault
// state is not the one they were computed under: reachability is the one
// input that is not subtree-local, so no subtree version covers it.
func (t *dpTable) syncEpoch(led *Ledger) {
	if ep := led.Faults().Epoch(); t.epoch != ep {
		for i := range t.recs {
			t.recs[i].filled = false
		}
		for i := range t.bounds {
			t.bounds[i].ver = 0
		}
		t.epoch = ep
	}
}

// current reports whether v's record reflects led. A record whose subtree
// version matches is current together with every record below it: any
// mutation below v restamps v, and a record is only ever computed from
// current children.
func (t *dpTable) current(led *Ledger, v topology.NodeID) bool {
	r := &t.recs[v]
	return r.filled && r.ver == led.SubtreeVersion(v)
}

// settle finds the root of the lowest subtree that hosts a request of need
// VMs, whose optimum sits at optIn[whole], and returns it (None if no
// subtree does) with the number of records it recomputed. Level by level,
// from the lowest one whose static bounds reach need, the candidates (whose
// top reaches need, narrowed by within) compete: the smallest optimum
// wins, the first in topology order of equal ones. The machine level stops
// at its first fit, whose optimum is 0. Above it, settle reads the current
// records, then ensures the stale candidates with need free slots in
// (bound, position) order until one cannot beat the pick, passing over
// each never-filled one whose capacity bound (when the DP gives one) is
// below need: its record could not hold need either. The bound is
// Ledger.subtreeBound's inner occupancy under MinMaxOccupancy with c >= 0,
// where it bounds the optimum (ALGORITHMS.md §3), else 0.
// A refused table finds nothing; under -tags invariants every 16th refusal
// lays it out, with no host-link bound on top, and panics if a settle
// without the refusal finds a subtree.
func (t *dpTable) settle(led *Ledger, scope *planScope, need, whole int, policy Policy,
	within func([]topology.NodeID) []topology.NodeID, compute kernel, bound boundKernel) (best topology.NodeID, recomputed int) {
	topo, recs := led.Topology(), t.cachedRecords()
	if t.refused {
		if t.audit = false; invariantsEnabled && refusalSample.Add(1)%16 == 1 {
			t.refused, t.hostTop = false, t.n
			t.layout(topo, scope)
			best, _ = t.settle(led, scope, need, whole, policy, within, compute, bound)
			if t.refused = true; best != topology.None {
				panic(fmt.Sprintf("invariant violated: the empty-link refusal turned away a request the DP places at vertex %d", best))
			}
		}
		return topology.None, 0
	}
	t.syncEpoch(led)
	prune := policy == MinMaxOccupancy && led.RiskConstant() >= 0
	best = topology.None
	for level := t.lowest; level <= scopeHeight(topo, scope) && best == topology.None; level++ {
		verts := scopeAtLevel(topo, scope, level)
		if within != nil {
			verts = within(verts)
		}
		at, bestVal := len(verts), infeasible
		beats := func(val float64, i int) bool { // (val, i) precedes the pick (bestVal, at)
			//lint:ignore floatcmp a tie goes to topology order, as in a scan that keeps the first of equal optima
			return val < bestVal || val == bestVal && i < at
		}
		take := func(i int) { // reads verts[i]'s current record and picks it if it wins
			if v := verts[i]; recs[v].cap >= need {
				if optIn, _, _ := t.rows(&recs[v]); optIn[whole] != infeasible && beats(optIn[whole], i) {
					best, at, bestVal = v, i, optIn[whole]
				}
			}
		}
		t.stale = t.stale[:0]
		for i := 0; i < len(verts) && (level > 0 || best == topology.None); i++ {
			switch v := verts[i]; {
			case recs[v].top < need:
			case level == 0:
				recomputed += t.ensure(led, topo, v, compute)
				fallthrough
			case t.current(led, v):
				take(i)
			default:
				free, inner := led.subtreeBound(v)
				if !prune {
					inner = 0
				}
				if free >= need && beats(inner, i) {
					t.stale = append(t.stale, staleCand{i, inner})
				}
			}
		}
		slices.SortStableFunc(t.stale, func(a, b staleCand) int { return cmp.Compare(a.inner, b.inner) })
		for _, c := range t.stale {
			if !beats(c.inner, c.i) {
				break
			}
			if v := verts[c.i]; bound != nil && !recs[v].filled { // a filled record costs ensure only its stale paths
				if bcap, _ := bound(led, topo, v); bcap < need {
					continue
				}
			}
			recomputed += t.ensure(led, topo, verts[c.i], compute)
			take(c.i)
		}
		if pick := best; invariantsEnabled && t.audit { // a sampled cold plan: nothing passed over wins
			for i, v := range verts {
				if recs[v].cells > whole {
					t.ensure(led, topo, v, compute)
					if take(i); best != pick {
						panic(fmt.Sprintf("invariant violated: settle picked vertex %d, but %d beats it", pick, best))
					}
				}
			}
		}
	}
	t.audit = false
	return best, recomputed
}

// kernel fills vertex v's record from led and its children's records.
type kernel func(led *Ledger, topo *topology.Topology, v topology.NodeID)

// boundKernel bounds, without computing v's record, the largest count it
// can hold, cap, and the largest it can pass up its uplink, reach
// (homogTable.capBound).
type boundKernel func(led *Ledger, topo *topology.Topology, v topology.NodeID) (cap, reach int)

// ensure brings v's record up to date with led, stale children first, and
// returns the number of records it recomputed. A current record needs
// nothing, because everything below it is current too; machine children
// are computed in the loop, not through a call each.
func (t *dpTable) ensure(led *Ledger, topo *topology.Topology, v topology.NodeID, compute kernel) (recomputed int) {
	if t.current(led, v) {
		return 0
	}
	for _, c := range topo.Node(v).Children {
		switch {
		case !topo.Node(c).IsMachine():
			recomputed += t.ensure(led, topo, c, compute)
		case !t.current(led, c):
			compute(led, topo, c)
			recomputed++
		}
	}
	compute(led, topo, v)
	return recomputed + 1
}
