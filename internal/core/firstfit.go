package core

import (
	"fmt"

	"repro/internal/topology"
)

// AllocateFirstFit is the paper's heterogeneous baseline (Section V-B):
// VMs are sorted ascending by 95th-percentile demand and placed
// sequentially, depth-first, into the first subtree with spare slots and an
// admissible uplink. When a VM cannot be added to the current subtree the
// next sibling subtree is tried; VMs that would violate an ancestor's
// uplink are handed back to be placed further right. No occupancy
// optimization is performed. The returned placement is not committed.
func AllocateFirstFit(led *Ledger, req Heterogeneous) (Placement, []Contribution, error) {
	if err := req.Validate(); err != nil {
		return Placement{}, nil, err
	}
	topo := led.Topology()
	order := orderByPercentile(req)
	prefix := newDemandPrefix(req.Demands, order)
	n := req.N()

	ff := &firstFitter{led: led, topo: topo, prefix: prefix, n: n}
	end := ff.place(topo.Root(), 0)
	if end != n {
		return Placement{}, nil, fmt.Errorf("%w: first fit placed %d of %d VMs: %v", ErrNoCapacity, end, n, req)
	}

	var p Placement
	for i, m := range ff.assigned {
		p.Entries = append(p.Entries, PlacementEntry{Machine: m, Count: 1, VMs: []int{order[i]}})
	}
	p.normalize()
	contribs := heteroContributions(topo, req, &p)
	// First fit's greedy checks are per-subtree-prefix and can, in corner
	// cases where an inside group outgrows the outside group, admit a
	// final split a later hand-back invalidated elsewhere. Re-validate the
	// complete placement so the baseline never violates the guarantee.
	if err := ValidatePlacement(led, contribs, &p, n); err != nil {
		return Placement{}, nil, fmt.Errorf("%w: first fit produced no valid placement: %w", ErrNoCapacity, err)
	}
	return p, contribs, nil
}

// firstFitter tracks the machine assigned to each sorted-VM position while
// the greedy descent runs. Nothing touches the ledger until the caller
// commits.
type firstFitter struct {
	led      *Ledger
	topo     *topology.Topology
	prefix   *demandPrefix
	n        int
	assigned []topology.NodeID // assigned[pos] = machine of sorted VM pos
}

// place assigns sorted VMs [start, end) into the subtree rooted at v for
// the largest end it can manage, and returns end.
func (f *firstFitter) place(v topology.NodeID, start int) int {
	if start == f.n {
		return start
	}
	node := f.topo.Node(v)
	end := start
	if node.IsMachine() {
		free := f.led.FreeSlots(v)
		for end < f.n && end-start < free && f.uplinkOK(v, start, end+1) {
			f.assigned = append(f.assigned, v)
			end++
		}
		return end
	}
	for _, c := range node.Children {
		end = f.place(c, end)
		if end == f.n {
			break
		}
	}
	// Hand back tail VMs while this vertex's uplink would be violated by
	// the substring it ended up holding.
	for end > start && !f.uplinkOK(v, start, end) {
		end--
		f.assigned = f.assigned[:end]
	}
	return end
}

// uplinkOK reports whether v's uplink stays admissible when the sorted VMs
// [a, b) sit below it. The root has no uplink.
func (f *firstFitter) uplinkOK(v topology.NodeID, a, b int) bool {
	if f.topo.Node(v).Parent == topology.None {
		return true
	}
	return f.led.OccupancyWith(v, f.prefix.crossing(a, b)) < 1
}
