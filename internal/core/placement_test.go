package core

import (
	"strings"
	"testing"

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
