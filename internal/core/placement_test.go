package core

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

func TestPlacementNormalize(t *testing.T) {
	p := Placement{Entries: []PlacementEntry{
		{Machine: 5, Count: 2},
		{Machine: 3, Count: 1},
		{Machine: 5, Count: 1, VMs: nil},
		{Machine: 7, Count: 0}, // dropped
	}}
	p.normalize()
	if len(p.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(p.Entries))
	}
	if p.Entries[0].Machine != 3 || p.Entries[1].Machine != 5 {
		t.Errorf("order = %v", p.Entries)
	}
	if p.Entries[1].Count != 3 {
		t.Errorf("merged count = %d, want 3", p.Entries[1].Count)
	}
	if p.TotalVMs() != 4 {
		t.Errorf("TotalVMs = %d, want 4", p.TotalVMs())
	}
}

// refNormalize is normalize as it stood before it worked in place,
// verbatim but for its name: entries merged through a map, the machine
// order sorted apart.
func (p *Placement) refNormalize() {
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

// TestNormalizeMatchesReference runs normalize and refNormalize on random
// entry lists — machines repeated, zero counts, VM lists nil, empty or
// long, entries in any order — and requires equal results. The one
// difference allowed is that an empty list stays nil where the reference
// made an empty slice; no plan normalizes an empty placement.
func TestNormalizeMatchesReference(t *testing.T) {
	r := stats.NewRand(3939)
	var merged, dropped int
	for trial := 0; trial < 5000; trial++ {
		var in []PlacementEntry
		kept, machines := 0, r.UniformInt(1, 6)
		for i := r.IntN(24); i > 0; i-- {
			e := PlacementEntry{Machine: topology.NodeID(r.IntN(machines) * 7), Count: r.IntN(4)}
			switch r.IntN(3) {
			case 1:
				e.VMs = []int{}
			case 2:
				for k := r.UniformInt(1, 5); k > 0; k-- {
					e.VMs = append(e.VMs, r.IntN(100))
				}
			}
			if e.Count == 0 {
				dropped++
			} else {
				kept++
			}
			in = append(in, e)
		}
		// Each side gets its own copy: both append to VM lists in place.
		src := Placement{Entries: in}
		got, want := src.Clone(), src.Clone()
		got.normalize()
		want.refNormalize()
		if len(got.Entries) < kept {
			merged++
		}
		if len(got.Entries)+len(want.Entries) > 0 && !reflect.DeepEqual(got.Entries, want.Entries) {
			t.Fatalf("trial %d: normalize(%v) = %v, reference %v", trial, in, got.Entries, want.Entries)
		}
	}
	if dropped < 1000 || merged < 1000 {
		t.Errorf("weak coverage: %d zero-count entries, %d lists with a machine merged", dropped, merged)
	}
}

func TestPlacementString(t *testing.T) {
	p := Placement{Entries: []PlacementEntry{{Machine: 2, Count: 3}}}
	if got := p.String(); !strings.Contains(got, "m2=3") {
		t.Errorf("String = %q", got)
	}
}

func TestValidatePlacementErrors(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	m := led.Topology().Machines()

	tests := []struct {
		name string
		p    Placement
		want int
	}{
		{"wrong total", Placement{Entries: []PlacementEntry{{Machine: m[0], Count: 2}}}, 3},
		{"duplicate machine", Placement{Entries: []PlacementEntry{
			{Machine: m[0], Count: 1}, {Machine: m[0], Count: 1}}}, 2},
		{"not a machine", Placement{Entries: []PlacementEntry{
			{Machine: led.Topology().Root(), Count: 2}}}, 2},
		{"zero count", Placement{Entries: []PlacementEntry{{Machine: m[0], Count: 0}}}, 0},
		{"over slots", Placement{Entries: []PlacementEntry{{Machine: m[0], Count: 9}}}, 9},
		{"vm list mismatch", Placement{Entries: []PlacementEntry{
			{Machine: m[0], Count: 2, VMs: []int{0}}}}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := ValidatePlacement(led, nil, &tt.p, tt.want); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestValidatePlacementLinkViolation(t *testing.T) {
	led := newTestLedger(t, fig3Topology(t), 0.05)
	m := led.Topology().Machines()[0]
	p := Placement{Entries: []PlacementEntry{{Machine: m, Count: 1}}}
	contribs := []Contribution{{Link: m, Mu: 60, Det: true}} // 60 > 50 cap
	if err := ValidatePlacement(led, contribs, &p, 1); err == nil {
		t.Error("link violation accepted")
	}
}

func TestPlacementSpread(t *testing.T) {
	tp := mustTopo(smallThreeTier())
	ms := tp.Machines() // 4 machines: 2 per rack

	oneMachine := Placement{Entries: []PlacementEntry{{Machine: ms[0], Count: 2}}}
	s := PlacementSpread(tp, &oneMachine)
	if s.Machines != 1 || s.Racks != 1 || s.Level != 0 {
		t.Errorf("one machine spread = %+v", s)
	}

	oneRack := Placement{Entries: []PlacementEntry{
		{Machine: ms[0], Count: 1}, {Machine: ms[1], Count: 1}}}
	s = PlacementSpread(tp, &oneRack)
	if s.Machines != 2 || s.Racks != 1 || s.Level != 1 {
		t.Errorf("one rack spread = %+v", s)
	}

	crossRack := Placement{Entries: []PlacementEntry{
		{Machine: ms[0], Count: 1}, {Machine: ms[2], Count: 1}}}
	s = PlacementSpread(tp, &crossRack)
	if s.Machines != 2 || s.Racks != 2 || s.Level != 2 {
		t.Errorf("cross rack spread = %+v", s)
	}

	if got := EnclosingSubtree(tp, &Placement{}); got != topology.None {
		t.Errorf("empty placement subtree = %v, want None", got)
	}
}
