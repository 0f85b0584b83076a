package core

import (
	"fmt"

	"repro/internal/topology"
)

// planScope restricts every planning dynamic program of a Manager to one
// subtree of the topology. A scoped manager is the planning half of a
// pod-local shard controller (see internal/shard): it owns the full
// topology and ledger — node IDs, journal records and exported state stay
// globally addressed — but its DPs only ever visit, and its selection
// scans only ever pick, vertices inside the scope root's subtree. The
// subtree root's own uplink is still admission-checked (the vertex is not
// the tree root), which is exactly the paper's Eq. 4 condition on the
// pod's core uplink.
type planScope struct {
	height int // level of the scope root; the level loop stops here
	// levels[l] is the subset of topo.AtLevel(l) inside the subtree, in
	// the same relative order, so scoped selection breaks ties exactly
	// like an unscoped scan restricted to the subtree.
	levels [][]topology.NodeID
}

// newPlanScope precomputes the per-level vertex lists of root's subtree
// by walking each node's path to the root of the tree.
func newPlanScope(topo *topology.Topology, root topology.NodeID) (*planScope, error) {
	if root < 0 || int(root) >= topo.Len() {
		return nil, fmt.Errorf("core: plan subtree root %d out of range", root)
	}
	s := &planScope{
		height: topo.Node(root).Level,
		levels: make([][]topology.NodeID, topo.Node(root).Level+1),
	}
	inScope := func(v topology.NodeID) bool {
		for {
			if v == root {
				return true
			}
			p := topo.Node(v).Parent
			if p == topology.None {
				return false
			}
			v = p
		}
	}
	for level := 0; level <= s.height; level++ {
		for _, v := range topo.AtLevel(level) {
			if inScope(v) {
				s.levels[level] = append(s.levels[level], v)
			}
		}
	}
	return s, nil
}

// scopeHeight and scopeAtLevel resolve the level iteration of a DP for an
// optional scope: nil means the whole tree.
func scopeHeight(topo *topology.Topology, s *planScope) int {
	if s == nil {
		return topo.Height()
	}
	return s.height
}

func scopeAtLevel(topo *topology.Topology, s *planScope, level int) []topology.NodeID {
	if s == nil {
		return topo.AtLevel(level)
	}
	return s.levels[level]
}

type planSubtreeOption topology.NodeID

func (o planSubtreeOption) apply(m *Manager) {
	s, err := newPlanScope(m.led.Topology(), topology.NodeID(o))
	if err != nil {
		// ManagerOption.apply cannot fail; an out-of-range root is a
		// programming error on the same footing as a bad topology index.
		panic(err)
	}
	m.scope = s
}

// WithPlanSubtree restricts the manager's planning DPs (homogeneous,
// substring-heterogeneous, pinned repair, headroom, dry runs) to the
// subtree rooted at root. Mutations addressed outside the subtree are
// still accepted through Replay/CommitExternal — the ledger covers the
// whole topology — but the manager will never *place* VMs outside it.
// Scoped managers plan heterogeneous requests with the substring
// algorithm regardless of WithHeteroAlgorithm (the exact and first-fit
// allocators have no scoped variants).
func WithPlanSubtree(root topology.NodeID) ManagerOption { return planSubtreeOption(root) }
