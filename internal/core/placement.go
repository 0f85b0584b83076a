package core

import (
	"fmt"
	"sort"

	"repro/internal/stats"
	"repro/internal/topology"
)

// Placement describes where a request's VMs were allocated: how many VMs —
// and for heterogeneous requests, exactly which VM indices — landed on each
// machine.
type Placement struct {
	Entries []PlacementEntry
}

// PlacementEntry is the allocation on one machine. For heterogeneous
// requests VMs lists the indices of the request's VMs placed here and
// len(VMs) == Count; for homogeneous requests VMs is nil because the VMs
// are indistinguishable.
type PlacementEntry struct {
	Machine topology.NodeID
	Count   int
	VMs     []int
}

// TotalVMs returns the number of VMs placed.
func (p *Placement) TotalVMs() int {
	total := 0
	for _, e := range p.Entries {
		total += e.Count
	}
	return total
}

// Machines returns the distinct machines used, in entry order.
func (p *Placement) Machines() []topology.NodeID {
	ms := make([]topology.NodeID, len(p.Entries))
	for i, e := range p.Entries {
		ms[i] = e.Machine
	}
	return ms
}

// Clone returns an independent deep copy of the placement.
func (p *Placement) Clone() Placement {
	entries := make([]PlacementEntry, len(p.Entries))
	copy(entries, p.Entries)
	for i := range entries {
		if entries[i].VMs != nil {
			vms := make([]int, len(entries[i].VMs))
			copy(vms, entries[i].VMs)
			entries[i].VMs = vms
		}
	}
	return Placement{Entries: entries}
}

// String implements fmt.Stringer.
func (p *Placement) String() string {
	s := fmt.Sprintf("placement of %d VMs on %d machines:", p.TotalVMs(), len(p.Entries))
	for _, e := range p.Entries {
		s += fmt.Sprintf(" m%d=%d", e.Machine, e.Count)
	}
	return s
}

// normalize merges duplicate machine entries and sorts by machine ID, so
// that placements compare deterministically.
func (p *Placement) normalize() {
	byMachine := make(map[topology.NodeID]*PlacementEntry, len(p.Entries))
	var order []topology.NodeID
	for _, e := range p.Entries {
		if e.Count == 0 {
			continue
		}
		if cur, ok := byMachine[e.Machine]; ok {
			cur.Count += e.Count
			cur.VMs = append(cur.VMs, e.VMs...)
			continue
		}
		ec := e
		byMachine[e.Machine] = &ec
		order = append(order, e.Machine)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	entries := make([]PlacementEntry, 0, len(order))
	for _, m := range order {
		entries = append(entries, *byMachine[m])
	}
	p.Entries = entries
}

// linkDemand is one request's crossing-demand contribution to one link,
// remembered so that Release can undo exactly what Allocate added.
type linkDemand struct {
	link   topology.LinkID
	demand stats.Normal
	det    bool
}

// commit applies the contributions and slot usage of a placement to the
// ledger. det selects deterministic (D_L) versus stochastic bookkeeping.
func commit(led *Ledger, p *Placement, contribs []linkDemand) {
	for _, e := range p.Entries {
		led.UseSlots(e.Machine, e.Count)
	}
	for _, c := range contribs {
		if c.det {
			led.AddDet(c.link, c.demand.Mu)
		} else {
			led.AddStochastic(c.link, c.demand)
		}
	}
}

// rollback undoes commit.
func rollback(led *Ledger, p *Placement, contribs []linkDemand) {
	for _, e := range p.Entries {
		led.ReleaseSlots(e.Machine, e.Count)
	}
	for _, c := range contribs {
		if c.det {
			led.RemoveDet(c.link, c.demand.Mu)
		} else {
			led.RemoveStochastic(c.link, c.demand)
		}
	}
}

// vmsInsideLink returns, for every link, how many of the placement's VMs
// lie in the subtree below it. Links not on any used machine's root path
// are absent from the map (zero VMs inside).
func vmsInsideLink(topo *topology.Topology, p *Placement) map[topology.LinkID]int {
	inside := make(map[topology.LinkID]int)
	for _, e := range p.Entries {
		// The uplinks from the machine to the root, walked in place:
		// PathToRoot would allocate the path for every entry.
		for link := e.Machine; topo.Node(link).Parent != topology.None; link = topo.Node(link).Parent {
			inside[link] += e.Count
		}
	}
	return inside
}

// homogContributions computes the per-link crossing-demand contributions of
// a homogeneous placement (zero-demand links omitted).
func homogContributions(topo *topology.Topology, req Homogeneous, p *Placement) []linkDemand {
	var contribs []linkDemand
	det := req.Deterministic()
	for link, m := range vmsInsideLink(topo, p) {
		d := CrossingHomog(req.Demand, m, req.N)
		if isZero(d) {
			continue
		}
		contribs = append(contribs, linkDemand{link: link, demand: d, det: det})
	}
	sortLinkDemands(contribs)
	return contribs
}

// sortLinkDemands orders contributions by link ID. The maps the builders
// aggregate over iterate in random order; sorting makes the committed
// mutation — and therefore the journal bytes and every exported state —
// deterministic for a given placement.
func sortLinkDemands(cs []linkDemand) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].link < cs[j].link })
}

// heteroContributions computes the per-link crossing-demand contributions
// of a heterogeneous placement.
func heteroContributions(topo *topology.Topology, req Heterogeneous, p *Placement) []linkDemand {
	// Aggregate the inside-group demand per link.
	type agg struct {
		mu, vr float64
		n      int
	}
	inside := make(map[topology.LinkID]agg)
	var totalMu, totalVar float64
	for _, d := range req.Demands {
		totalMu += d.Mu
		totalVar += d.Var()
	}
	for _, e := range p.Entries {
		var mu, vr float64
		for _, vm := range e.VMs {
			mu += req.Demands[vm].Mu
			vr += req.Demands[vm].Var()
		}
		for link := e.Machine; topo.Node(link).Parent != topology.None; link = topo.Node(link).Parent {
			a := inside[link]
			a.mu += mu
			a.vr += vr
			a.n += e.Count
			inside[link] = a
		}
	}
	var contribs []linkDemand
	for link, a := range inside {
		// Count the split exactly, like CrossingHomog does: a link with
		// every VM of the group below it carries no crossing traffic.
		// Deciding this from the float sums instead (totalMu - a.mu)
		// leaves a summation-order residue, and the moment-matched min
		// against that near-degenerate "outside" can even dip below zero.
		if a.n >= len(req.Demands) {
			continue
		}
		in := stats.Normal{Mu: a.mu, Sigma: sqrtNonNeg(a.vr)}
		out := stats.Normal{Mu: totalMu - a.mu, Sigma: sqrtNonNeg(totalVar - a.vr)}
		d := CrossingSets(in, out)
		if isZero(d) {
			continue
		}
		// min(inside, outside) is a nonnegative bandwidth; clamp the rare
		// slightly-negative mean the normal approximation of min yields
		// when one side's mass sits far below the other, so the ledger's
		// per-link sums (validated nonnegative on restore) stay sound.
		if d.Mu < 0 {
			d.Mu = 0
		}
		contribs = append(contribs, linkDemand{link: link, demand: d})
	}
	sortLinkDemands(contribs)
	return contribs
}

// ValidatePlacement independently re-checks a placement against the ledger
// state *before* the placement is committed: machine slot limits, VM count,
// and the admission condition O_L < 1 on every affected link. It is the
// invariant checker used by tests and by the paper-facing examples; the
// allocators must never produce a placement that fails it.
func ValidatePlacement(led *Ledger, contribs []linkDemand, p *Placement, wantVMs int) error {
	if got := p.TotalVMs(); got != wantVMs {
		return fmt.Errorf("core: placement has %d VMs, want %d", got, wantVMs)
	}
	seen := make(map[topology.NodeID]bool, len(p.Entries))
	for _, e := range p.Entries {
		if seen[e.Machine] {
			return fmt.Errorf("core: duplicate machine %d in placement", e.Machine)
		}
		seen[e.Machine] = true
		if !led.Topology().Node(e.Machine).IsMachine() {
			return fmt.Errorf("core: node %d is not a machine", e.Machine)
		}
		if e.Count <= 0 {
			return fmt.Errorf("core: non-positive count %d on machine %d", e.Count, e.Machine)
		}
		if free := led.FreeSlots(e.Machine); e.Count > free {
			return fmt.Errorf("core: machine %d needs %d slots, has %d free", e.Machine, e.Count, free)
		}
		if e.VMs != nil && len(e.VMs) != e.Count {
			return fmt.Errorf("core: machine %d lists %d VMs for count %d", e.Machine, len(e.VMs), e.Count)
		}
	}
	for _, c := range contribs {
		var occ float64
		if c.det {
			occ = led.OccupancyWithDet(c.link, c.demand.Mu)
		} else {
			occ = led.OccupancyWith(c.link, c.demand)
		}
		if occ >= 1 {
			return fmt.Errorf("core: link %d would reach occupancy %v >= 1", c.link, occ)
		}
	}
	return nil
}

// Spread summarizes a placement's locality footprint: how many machines
// and racks it touches and the level of the lowest subtree enclosing it
// (0 = a single machine). Better locality (smaller spread) conserves
// upper-level bandwidth for future tenants.
type Spread struct {
	Machines int
	Racks    int // distinct level-1 ancestors (machines' direct parents)
	Level    int // level of the lowest enclosing subtree
}

// PlacementSpread computes the spread of a placement on a topology.
func PlacementSpread(topo *topology.Topology, p *Placement) Spread {
	s := Spread{Machines: len(p.Entries)}
	racks := make(map[topology.NodeID]bool)
	for _, e := range p.Entries {
		if parent := topo.Node(e.Machine).Parent; parent != topology.None {
			racks[parent] = true
		}
	}
	s.Racks = len(racks)
	if sub := EnclosingSubtree(topo, p); sub != topology.None {
		s.Level = topo.Node(sub).Level
	}
	return s
}

// EnclosingSubtree returns the root of the lowest subtree containing every
// machine of the placement, or topology.None for an empty placement.
func EnclosingSubtree(topo *topology.Topology, p *Placement) topology.NodeID {
	if len(p.Entries) == 0 {
		return topology.None
	}
	cur := p.Entries[0].Machine
	for _, e := range p.Entries[1:] {
		for cur != e.Machine && !nodeIsAncestor(topo, cur, e.Machine) {
			cur = topo.Node(cur).Parent
		}
	}
	return cur
}

func nodeIsAncestor(topo *topology.Topology, anc, n topology.NodeID) bool {
	for n != topology.None {
		if n == anc {
			return true
		}
		n = topo.Node(n).Parent
	}
	return false
}
