package core

import (
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
}

// dpTable is the slab-backed record table.
type dpTable struct {
	recs   []dpRec // indexed by NodeID; only in-scope vertices are laid out
	f64    []float64
	i32    []int32
	bl     []bool
	lowest int    // the lowest level with a vertex whose static bound reaches n
	epoch  uint64 // Faults().Epoch() the filled records were computed under
}

// layout sizes the table for a request of n VMs over the scope's vertices
// and marks every record unfilled. stride is the number of cells per VM
// count: 1 for the homogeneous DP, n+1 substring anchors for the substring
// DP. Slabs are reused when large enough; their contents are not cleared —
// the kernels write every cell before anything reads it.
func (t *dpTable) layout(topo *topology.Topology, scope *planScope, n, stride int) {
	t.recs = grow(t.recs, topo.Len())
	cells, picks := 0, 0
	t.lowest = scopeHeight(topo, scope) + 1
	for level := 0; level <= scopeHeight(topo, scope); level++ {
		for _, v := range scopeAtLevel(topo, scope, level) {
			node := topo.Node(v)
			// cap starts at its static bound; compute lowers it to what
			// the ledger leaves free.
			bound := node.Slots
			for _, c := range node.Children {
				bound += t.recs[c].cap
			}
			bound = min(n, bound)
			if bound == n {
				t.lowest = min(t.lowest, level)
			}
			t.recs[v] = dpRec{cap: bound, cells: (bound + 1) * stride, off: cells, pick: picks}
			cells += t.recs[v].cells
			picks += len(node.Children) * t.recs[v].cells
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

// syncEpoch drops every record when the ledger's fault state is not the
// one they were computed under: reachability is the one DP input that is
// not subtree-local, so no subtree version covers it.
func (t *dpTable) syncEpoch(led *Ledger) {
	if ep := led.Faults().Epoch(); t.epoch != ep {
		for i := range t.recs {
			t.recs[i].filled = false
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
// subtree does) with the number of records it recomputed. It brings up to
// date only the records the selection reads. Level by level, from the
// lowest one whose static bounds reach need, each candidate — a vertex
// whose rows hold the whole cell, narrowed by within when it is set — is
// ensured and read in topology order, and the smallest optimum wins, the
// first of equal ones. A machine that fits costs exactly 0, so the machine
// level stops at the first one; FirstFeasible stops at its first feasible
// vertex on every level.
func (t *dpTable) settle(led *Ledger, scope *planScope, need, whole int, policy Policy,
	within func([]topology.NodeID) []topology.NodeID, compute kernel) (best topology.NodeID, recomputed int) {
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

// kernel fills vertex v's record from led and its children's records.
type kernel func(led *Ledger, topo *topology.Topology, v topology.NodeID)

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
