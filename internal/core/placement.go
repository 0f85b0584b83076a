package core

import (
	"fmt"
	"slices"
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
// are indistinguishable. The tags are the entry's form in an exported
// state and a legacy log record; httpapi's responses key VMs differently
// and keep an entry type of their own.
type PlacementEntry struct {
	Machine topology.NodeID `json:"machine"`
	Count   int             `json:"count"`
	VMs     []int           `json:"vms,omitempty"`
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
	return Placement{Entries: cloneEntries(make([]PlacementEntry, len(p.Entries)), p.Entries)}
}

// cloneEntries deep-copies src into dst, which has its length, and
// returns dst: Clone allocates dst, the idempotency table cuts it from a
// slab (see cut).
func cloneEntries(dst, src []PlacementEntry) []PlacementEntry {
	copy(dst, src)
	for i := range dst {
		if dst[i].VMs != nil {
			dst[i].VMs = slices.Clone(dst[i].VMs)
		}
	}
	return dst
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

// Contribution is one request's crossing-demand contribution to one link,
// exactly as committed to the ledger. The planners build it, the Mutation
// carries it, the job keeps it — so that Release can undo exactly what
// Allocate added — and the state exports it: journaling the committed
// values (rather than recomputing them on replay) is what makes recovery
// bit-identical.
type Contribution struct {
	Link  topology.LinkID `json:"link"`
	Mu    float64         `json:"mu,omitempty"`
	Sigma float64         `json:"sigma,omitempty"`
	Det   bool            `json:"det,omitempty"`
}

func (c Contribution) demand() stats.Normal { return stats.Normal{Mu: c.Mu, Sigma: c.Sigma} }

// cloneContribs gives a job, or an exported state, its own copy of a
// contribution list — nil for an empty one, which keeps exports canonical:
// a zero-contribution job (one placed entirely inside a single machine)
// compares equal before and after a JSON round trip, where omitempty drops
// the field.
func cloneContribs(cs []Contribution) []Contribution {
	return append([]Contribution(nil), cs...)
}

// commit applies the contributions and slot usage of a placement to the
// ledger. Det selects deterministic (D_L) versus stochastic bookkeeping.
func commit(led *Ledger, p *Placement, contribs []Contribution) {
	for _, e := range p.Entries {
		led.UseSlots(e.Machine, e.Count)
	}
	for _, c := range contribs {
		if c.Det {
			led.AddDet(c.Link, c.Mu)
		} else {
			led.AddStochastic(c.Link, c.demand())
		}
	}
}

// rollback undoes commit.
func rollback(led *Ledger, p *Placement, contribs []Contribution) {
	for _, e := range p.Entries {
		led.ReleaseSlots(e.Machine, e.Count)
	}
	for _, c := range contribs {
		if c.Det {
			led.RemoveDet(c.Link, c.Mu)
		} else {
			led.RemoveStochastic(c.Link, c.demand())
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
func homogContributions(topo *topology.Topology, req Homogeneous, p *Placement) []Contribution {
	var contribs []Contribution
	det := req.Deterministic()
	for link, m := range vmsInsideLink(topo, p) {
		d := CrossingHomog(req.Demand, m, req.N)
		if isZero(d) {
			continue
		}
		contribs = append(contribs, Contribution{Link: link, Mu: d.Mu, Sigma: d.Sigma, Det: det})
	}
	sortContribs(contribs)
	return contribs
}

// sortContribs orders contributions by link ID (each link appears at most
// once per job). The maps the builders aggregate over iterate in random
// order; sorting makes the committed mutation — and therefore the journal
// bytes and every exported state — deterministic for a given placement.
func sortContribs(cs []Contribution) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Link < cs[j].Link })
}

// heteroContributions computes the per-link crossing-demand contributions
// of a heterogeneous placement.
func heteroContributions(topo *topology.Topology, req Heterogeneous, p *Placement) []Contribution {
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
	var contribs []Contribution
	for link, a := range inside {
		// Count the split exactly, like CrossingHomog does: a link with
		// every VM of the group below it carries no crossing traffic.
		// Deciding this from the float sums instead (totalMu - a.mu)
		// leaves a summation-order residue, and the min against that
		// near-degenerate "outside" would charge the link a residue too.
		if a.n >= len(req.Demands) {
			continue
		}
		in := stats.Normal{Mu: a.mu, Sigma: sqrtNonNeg(a.vr)}
		out := stats.Normal{Mu: totalMu - a.mu, Sigma: sqrtNonNeg(totalVar - a.vr)}
		d := CrossingSets(in, out)
		if isZero(d) {
			continue
		}
		contribs = append(contribs, Contribution{Link: link, Mu: d.Mu, Sigma: d.Sigma})
	}
	sortContribs(contribs)
	return contribs
}

// ValidatePlacement independently re-checks a placement against the ledger
// state *before* the placement is committed: machine slot limits, VM count,
// and the admission condition O_L < 1 on every affected link. It is the
// invariant checker used by tests and by the paper-facing examples; the
// allocators must never produce a placement that fails it.
func ValidatePlacement(led *Ledger, contribs []Contribution, p *Placement, wantVMs int) error {
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
		if c.Det {
			occ = led.OccupancyWithDet(c.Link, c.Mu)
		} else {
			occ = led.OccupancyWith(c.Link, c.demand())
		}
		if occ >= 1 {
			return fmt.Errorf("core: link %d would reach occupancy %v >= 1", c.Link, occ)
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
