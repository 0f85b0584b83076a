package core

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// contribsOf is the derivation as a one-off caller runs it, for tests that
// plan outside a manager: req is a Homogeneous or a Heterogeneous.
func contribsOf(topo *topology.Topology, req any, p *Placement) []Contribution {
	var d deriver
	switch r := req.(type) {
	case Homogeneous:
		return d.contribs(topo, &r, nil, p)
	case Heterogeneous:
		return d.contribs(topo, nil, &r, p)
	}
	panic("contribsOf: not a request")
}

// The reference: the map-and-sort builders the derivation replaced, kept
// verbatim. Their values are what every log written before contributions
// were derived stored, so the derivation must match them bit for bit.

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

// checkDerivation fails unless got holds exactly want's contributions,
// floats by their bits, in any order: the derivation lists links in walk
// order, the reference by ID.
func checkDerivation(t *testing.T, what string, got, want []Contribution) {
	t.Helper()
	got = slices.Clone(got)
	sortContribs(got)
	if !slices.EqualFunc(got, want, func(a, b Contribution) bool {
		return a.Link == b.Link && a.Det == b.Det && sameBits(a.Mu, b.Mu) && sameBits(a.Sigma, b.Sigma)
	}) {
		t.Fatalf("%s: derived %v, the reference %v", what, got, want)
	}
}

// randomPlacement spreads n VMs over up to k random machines of topo, a
// heterogeneous one as a random permutation of its VM indices.
func randomPlacement(r *stats.Rand, topo *topology.Topology, n, k int, hetero bool) Placement {
	ms := topo.Machines()
	var p Placement
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for left := n; left > 0; {
		c := min(left, 1+r.IntN(max(1, n/k)))
		e := PlacementEntry{Machine: ms[r.IntN(len(ms))], Count: c}
		if hetero {
			e.VMs = perm[n-left : n-left+c]
		}
		p.Entries = append(p.Entries, e)
		left -= c
	}
	p.normalize()
	return p
}

// TestDerivationMatchesReference: over random homogeneous and
// heterogeneous placements on the paper's datacenter — deterministic, and
// sigma up to 10 mu, where crossing clamps the mean — one deriver whose
// memo is reused across jobs and a fresh one each equal the reference.
func TestDerivationMatchesReference(t *testing.T) {
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(37)
	var shared deriver
	for i := 0; i < 3000; i++ {
		mu := []float64{5, 100, 300}[r.IntN(3)]
		rho := []float64{0, 0.25, 1, 1.77, 5, 10}[r.IntN(6)] * r.Float64()
		if r.IntN(2) == 0 {
			req := Homogeneous{N: 1 + r.IntN(64), Demand: stats.Normal{Mu: mu, Sigma: rho * mu}}
			if r.IntN(8) == 0 {
				req.Demand.Sigma = 0
			}
			p := randomPlacement(r, topo, req.N, 1+r.IntN(12), false)
			want := homogContributions(topo, req, &p)
			checkDerivation(t, req.String(), shared.contribs(topo, &req, nil, &p), want)
			checkDerivation(t, req.String(), contribsOf(topo, req, &p), want)
			continue
		}
		req := Heterogeneous{Demands: make([]stats.Normal, 2+r.IntN(16))}
		for v := range req.Demands {
			m := mu * (0.5 + r.Float64())
			req.Demands[v] = stats.Normal{Mu: m, Sigma: rho * m * r.Float64()}
		}
		p := randomPlacement(r, topo, req.N(), 1+r.IntN(8), true)
		want := heteroContributions(topo, req, &p)
		checkDerivation(t, "hetero", shared.contribs(topo, nil, &req, &p), want)
		checkDerivation(t, "hetero", contribsOf(topo, req, &p), want)
	}
	if len(shared.memo) > 64 {
		t.Fatalf("the memo holds %d shapes, over its bound of 64", len(shared.memo))
	}
	for _, n := range shared.inside {
		if n != 0 {
			t.Fatal("a walk left a count behind")
		}
	}
}

// TestPlacementMustPlaceItsRequest: the derivation reads a placement's VM
// counts and a heterogeneous job's VM indices, so replay and restore
// refuse a placement that does not place its request — short of N, an
// index out of range or listed twice, an entry without its VM list —
// instead of deriving from it or panicking.
func TestPlacementMustPlaceItsRequest(t *testing.T) {
	topo := mustTopo(smallThreeTier())
	ms := topo.Machines()
	homog := Homogeneous{N: 2, Demand: stats.Normal{Mu: 5, Sigma: 2}}
	hetero := Heterogeneous{Demands: []stats.Normal{{Mu: 5, Sigma: 2}, {Mu: 3, Sigma: 1}}}
	on := func(m topology.NodeID, count int, vms ...int) PlacementEntry {
		return PlacementEntry{Machine: m, Count: count, VMs: vms}
	}
	for _, tc := range []struct {
		name    string
		homog   *Homogeneous
		hetero  *Heterogeneous
		entries []PlacementEntry
	}{
		{"homogeneous, short of N", &homog, nil, []PlacementEntry{on(ms[0], 1)}},
		{"heterogeneous, short of N", nil, &hetero, []PlacementEntry{on(ms[0], 1, 0)}},
		{"index out of range", nil, &hetero, []PlacementEntry{on(ms[0], 1, 0), on(ms[2], 1, 2)}},
		{"index twice", nil, &hetero, []PlacementEntry{on(ms[0], 1, 1), on(ms[2], 1, 1)}},
		{"entry without its VMs", nil, &hetero, []PlacementEntry{on(ms[0], 2)}},
	} {
		m := mustManager(t, smallThreeTier(), 0.05)
		if err := m.Replay(Mutation{Op: OpAlloc, Job: 1, Homog: tc.homog, Hetero: tc.hetero, Placement: &Placement{Entries: tc.entries}}); err == nil {
			t.Errorf("%s: replay accepted it", tc.name)
		}
		js := JobState{ID: 1, Placement: tc.entries}
		if tc.homog != nil {
			h := HomogSpecOf(*tc.homog)
			js.Homog = &h
		} else {
			js.Hetero = tc.hetero.Demands
		}
		st := &ManagerState{NextID: 1, Links: make([]LinkRecord, topo.Len()), Used: make([]int, topo.Len()), Jobs: []JobState{js}}
		for _, e := range tc.entries {
			st.Used[e.Machine] += e.Count
		}
		if _, err := NewManagerFromState(topo, 0.05, st); err == nil {
			t.Errorf("%s: restore accepted it", tc.name)
		}
	}
}
