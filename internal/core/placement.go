package core

import (
	"cmp"
	"fmt"
	"slices"

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

// normalize drops empty entries, sorts the rest by machine ID and merges
// the entries of one machine, its VMs in the order they were emitted, so
// that placements compare deterministically. It works in place: a stable
// sort, then one pass that merges neighbours.
func (p *Placement) normalize() {
	es := slices.DeleteFunc(p.Entries, func(e PlacementEntry) bool { return e.Count == 0 })
	slices.SortStableFunc(es, func(a, b PlacementEntry) int { return cmp.Compare(a.Machine, b.Machine) })
	merged := es[:0]
	for _, e := range es {
		if last := len(merged) - 1; last >= 0 && merged[last].Machine == e.Machine {
			merged[last].Count += e.Count
			merged[last].VMs = append(merged[last].VMs, e.VMs...)
			continue
		}
		merged = append(merged, e)
	}
	p.Entries = merged
}

// Contribution is one job's crossing-demand charge on one link, exactly
// as committed to the ledger. It is derived, never stored (deriver), and
// the job keeps its list so that Release undoes exactly what Allocate
// added.
type Contribution struct {
	Link  topology.LinkID
	Mu    float64
	Sigma float64
	Det   bool
}

func (c Contribution) demand() stats.Normal { return stats.Normal{Mu: c.Mu, Sigma: c.Sigma} }

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

// deriver is the one derivation of contributions, (topology, request,
// placement) -> Lemma 1's crossing demand per split link, for live
// commits, replay and restore alike: no log or snapshot carries them, so
// crossing's arithmetic is part of what a log means. It walks uplinks into
// per-node counts and a touched list (no map, no sort; links in walk
// order). A homogeneous job reads crossing[m] from a memo keyed by
// homogKey sans policy, filled at the splits placements cross and reset
// past 64 shapes; a heterogeneous one sums each link's inside group in
// placement order. A manager keeps one, guarded by its mu.
type deriver struct {
	inside  []int     // per node: the walked VMs below its uplink; 0 between walks
	mu, vr  []float64 // per node: their summed means and variances (heterogeneous)
	touched []topology.LinkID
	memo    map[homogKey][]stats.Normal // entry m is zero until computed
}

// contribs derives the contributions of a job placed at p; exactly one of
// homog and hetero is set, and p places it (placesRequest).
func (d *deriver) contribs(topo *topology.Topology, homog *Homogeneous, hetero *Heterogeneous, p *Placement) []Contribution {
	d.walk(topo, p, hetero)
	var (
		key             homogKey
		cross           []stats.Normal
		totalMu, totalV float64
		out             []Contribution
	)
	if homog != nil {
		key = homogKey{demand: canonDemand(homog.Demand), n: homog.N}
		if cross = d.memo[key]; cross == nil {
			if len(d.memo) >= 64 || d.memo == nil {
				d.memo = make(map[homogKey][]stats.Normal)
			}
			cross = make([]stats.Normal, key.n+1)
			d.memo[key] = cross
		}
	} else {
		key.n = len(hetero.Demands)
		for _, dm := range hetero.Demands {
			totalMu += dm.Mu
			totalV += dm.Var()
		}
	}
	for _, l := range d.touched {
		n, mu, vr := d.inside[l], d.mu[l], d.vr[l]
		d.inside[l], d.mu[l], d.vr[l] = 0, 0, 0
		// Count the split exactly: a link with every VM below it carries
		// no crossing traffic, where the float sums (totalMu - mu) would
		// leave a summation-order residue the min would charge.
		if n >= key.n {
			continue
		}
		var c stats.Normal
		if cross != nil {
			if isZero(cross[n]) {
				cross[n] = CrossingHomog(key.demand, n, key.n)
			}
			c = cross[n]
		} else {
			c = CrossingSets(stats.Normal{Mu: mu, Sigma: sqrtNonNeg(vr)},
				stats.Normal{Mu: totalMu - mu, Sigma: sqrtNonNeg(totalV - vr)})
		}
		if isZero(c) {
			continue
		}
		if out == nil {
			out = make([]Contribution, 0, len(d.touched))
		}
		out = append(out, Contribution{Link: l, Mu: c.Mu, Sigma: c.Sigma, Det: homog != nil && key.demand.Sigma == 0})
	}
	d.touched = d.touched[:0]
	return out
}

// walk adds each entry's VMs — and, with hetero, their summed demands —
// to every uplink from its machine to the root, and lists each link the
// first time it is reached. The caller reads d.inside (d.mu, d.vr) at the
// touched links, zeroes them and empties d.touched.
func (d *deriver) walk(topo *topology.Topology, p *Placement, hetero *Heterogeneous) {
	if len(d.inside) < topo.Len() {
		d.inside = make([]int, topo.Len())
		d.mu, d.vr = make([]float64, topo.Len()), make([]float64, topo.Len())
	}
	for _, e := range p.Entries {
		var mu, vr float64
		if hetero != nil {
			for _, vm := range e.VMs {
				mu += hetero.Demands[vm].Mu
				vr += hetero.Demands[vm].Var()
			}
		}
		for l := e.Machine; topo.Node(l).Parent != topology.None; l = topo.Node(l).Parent {
			if d.inside[l] == 0 {
				d.touched = append(d.touched, l)
			}
			d.inside[l] += e.Count
			d.mu[l] += mu
			d.vr[l] += vr
		}
	}
}

// placesRequest checks that p places its request's N VMs, a heterogeneous
// one's as the derivation reads them: each index once, as many per entry as its count.
func placesRequest(p *Placement, homog *Homogeneous, hetero *Heterogeneous) error {
	if homog != nil {
		if got := p.TotalVMs(); got != homog.N {
			return fmt.Errorf("core: placement has %d VMs, want %d", got, homog.N)
		}
		return nil
	}
	seen := make([]bool, hetero.N())
	for _, e := range p.Entries {
		if len(e.VMs) != e.Count {
			return fmt.Errorf("core: machine %d lists %d VMs for count %d", e.Machine, len(e.VMs), e.Count)
		}
		for _, vm := range e.VMs {
			if vm < 0 || vm >= len(seen) || seen[vm] {
				return fmt.Errorf("core: machine %d lists VM %d twice or out of [0, %d)", e.Machine, vm, len(seen))
			}
			seen[vm] = true
		}
	}
	if slices.Contains(seen, false) {
		return fmt.Errorf("core: placement has fewer VMs than the request's %d", len(seen))
	}
	return nil
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
