package topology

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// twoMachineSpec is the Fig. 3 topology of the paper: one switch over two
// machines with 5 slots each and link capacity 50.
func twoMachineSpec() Spec {
	return Spec{Children: []Spec{
		{UpCap: 50, Slots: 5},
		{UpCap: 50, Slots: 5},
	}}
}

func TestNewFromSpecSmall(t *testing.T) {
	tp, err := NewFromSpec(twoMachineSpec())
	if err != nil {
		t.Fatalf("NewFromSpec: %v", err)
	}
	if got := tp.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := tp.Root(); got != 0 {
		t.Errorf("Root = %d, want 0", got)
	}
	if got := tp.Height(); got != 1 {
		t.Errorf("Height = %d, want 1", got)
	}
	if got := len(tp.Machines()); got != 2 {
		t.Errorf("machines = %d, want 2", got)
	}
	if got := tp.TotalSlots(); got != 10 {
		t.Errorf("TotalSlots = %d, want 10", got)
	}
	if got := tp.MaxDegree(); got != 2 {
		t.Errorf("MaxDegree = %d, want 2", got)
	}
	for _, m := range tp.Machines() {
		if !tp.Node(m).IsMachine() {
			t.Errorf("node %d should be a machine", m)
		}
		if got := tp.LinkCap(m); got != 50 {
			t.Errorf("LinkCap(%d) = %v, want 50", m, got)
		}
	}
}

func TestPaperTopology(t *testing.T) {
	tp, err := NewThreeTier(PaperConfig())
	if err != nil {
		t.Fatalf("NewThreeTier: %v", err)
	}
	if got := len(tp.Machines()); got != 1000 {
		t.Errorf("machines = %d, want 1000", got)
	}
	if got := tp.TotalSlots(); got != 4000 {
		t.Errorf("slots = %d, want 4000", got)
	}
	if got := tp.Height(); got != 3 {
		t.Errorf("height = %d, want 3", got)
	}
	if got := len(tp.AtLevel(0)); got != 1000 {
		t.Errorf("level 0 nodes = %d, want 1000", got)
	}
	if got := len(tp.AtLevel(1)); got != 50 {
		t.Errorf("level 1 nodes = %d, want 50 ToRs", got)
	}
	if got := len(tp.AtLevel(2)); got != 5 {
		t.Errorf("level 2 nodes = %d, want 5 aggs", got)
	}
	if got := len(tp.AtLevel(3)); got != 1 {
		t.Errorf("level 3 nodes = %d, want 1 core", got)
	}
	if got := len(tp.Links()); got != tp.Len()-1 {
		t.Errorf("links = %d, want %d", got, tp.Len()-1)
	}
	// Capacity checks from the paper: 1 Gbps hosts, 10 Gbps ToR uplinks,
	// 50 Gbps agg uplinks at oversubscription 2.
	m := tp.Machines()[0]
	if got := tp.LinkCap(m); got != 1000 {
		t.Errorf("host link = %v, want 1000", got)
	}
	tor := tp.Node(m).Parent
	if got := tp.LinkCap(tor); got != 10000 {
		t.Errorf("ToR uplink = %v, want 10000", got)
	}
	agg := tp.Node(tor).Parent
	if got := tp.LinkCap(agg); got != 50000 {
		t.Errorf("agg uplink = %v, want 50000", got)
	}
}

func TestOversubscriptionOne(t *testing.T) {
	cfg := PaperConfig()
	cfg.Oversub = 1
	tp, err := NewThreeTier(cfg)
	if err != nil {
		t.Fatalf("NewThreeTier: %v", err)
	}
	tor := tp.Node(tp.Machines()[0]).Parent
	if got := tp.LinkCap(tor); got != 20000 {
		t.Errorf("non-blocking ToR uplink = %v, want 20000", got)
	}
}

func TestScaledConfig(t *testing.T) {
	c := PaperConfig().Scaled(5)
	if c.Aggs != 1 || c.ToRsPerAgg != 2 {
		t.Errorf("Scaled(5) = %+v, want 1 agg, 2 ToRs", c)
	}
	if got := c.Machines(); got != 40 {
		t.Errorf("Machines = %d, want 40", got)
	}
	if got := c.Slots(); got != 160 {
		t.Errorf("Slots = %d, want 160", got)
	}
	if c2 := PaperConfig().Scaled(1000); c2.Aggs != 1 || c2.ToRsPerAgg != 1 {
		t.Errorf("Scaled floor failed: %+v", c2)
	}
}

func TestPathToRoot(t *testing.T) {
	tp, err := NewThreeTier(ThreeTierConfig{
		Aggs: 2, ToRsPerAgg: 2, MachinesPerRack: 2, SlotsPerMachine: 1,
		HostCap: 100, Oversub: 1,
	})
	if err != nil {
		t.Fatalf("NewThreeTier: %v", err)
	}
	m := tp.Machines()[0]
	path := tp.PathToRoot(m)
	if len(path) != 3 {
		t.Fatalf("path length = %d, want 3", len(path))
	}
	if path[0] != m {
		t.Errorf("path[0] = %d, want machine %d", path[0], m)
	}
	if got := tp.Node(path[2]).Parent; got != tp.Root() {
		t.Errorf("last path link should attach to root, attaches to %d", got)
	}
	if got := tp.PathToRoot(tp.Root()); len(got) != 0 {
		t.Errorf("PathToRoot(root) = %v, want empty", got)
	}
}

func TestPath(t *testing.T) {
	tp, err := NewThreeTier(ThreeTierConfig{
		Aggs: 2, ToRsPerAgg: 2, MachinesPerRack: 2, SlotsPerMachine: 1,
		HostCap: 100, Oversub: 1,
	})
	if err != nil {
		t.Fatalf("NewThreeTier: %v", err)
	}
	ms := tp.Machines()
	sameRack := [2]NodeID{ms[0], ms[1]}
	up, down := tp.Path(sameRack[0], sameRack[1])
	if len(up) != 1 || len(down) != 1 {
		t.Errorf("same-rack path = %v/%v, want one uplink each side", up, down)
	}
	// Machines 0 and 7 are under different aggregation switches: the path
	// must traverse host, ToR and agg links on both sides.
	up, down = tp.Path(ms[0], ms[7])
	if len(up) != 3 || len(down) != 3 {
		t.Errorf("cross-agg path = %v/%v, want three links each side", up, down)
	}
	up, down = tp.Path(ms[3], ms[3])
	if len(up) != 0 || len(down) != 0 {
		t.Errorf("self path = %v/%v, want empty", up, down)
	}
}

// TestPathProperty checks that for random machine pairs the two path
// segments are disjoint and each lies on the corresponding root path.
func TestPathProperty(t *testing.T) {
	tp, err := NewThreeTier(ThreeTierConfig{
		Aggs: 3, ToRsPerAgg: 3, MachinesPerRack: 3, SlotsPerMachine: 2,
		HostCap: 100, Oversub: 2,
	})
	if err != nil {
		t.Fatalf("NewThreeTier: %v", err)
	}
	ms := tp.Machines()
	f := func(a, b uint8) bool {
		src := ms[int(a)%len(ms)]
		dst := ms[int(b)%len(ms)]
		up, down := tp.Path(src, dst)
		if src == dst {
			return len(up) == 0 && len(down) == 0
		}
		seen := make(map[NodeID]bool)
		for _, l := range up {
			seen[l] = true
		}
		for _, l := range down {
			if seen[l] {
				return false // segments must be disjoint
			}
		}
		// Both segments must start at the endpoint machines.
		return len(up) > 0 && len(down) > 0 && up[0] == src && down[0] == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubtreeSlotsAndMachines(t *testing.T) {
	tp, err := NewThreeTier(ThreeTierConfig{
		Aggs: 2, ToRsPerAgg: 2, MachinesPerRack: 3, SlotsPerMachine: 4,
		HostCap: 100, Oversub: 1,
	})
	if err != nil {
		t.Fatalf("NewThreeTier: %v", err)
	}
	if got := tp.SubtreeSlots(tp.Root()); got != tp.TotalSlots() {
		t.Errorf("SubtreeSlots(root) = %d, want %d", got, tp.TotalSlots())
	}
	tor := tp.Node(tp.Machines()[0]).Parent
	if got := tp.SubtreeSlots(tor); got != 12 {
		t.Errorf("SubtreeSlots(tor) = %d, want 12", got)
	}
	if got := len(tp.SubtreeMachines(nil, tor)); got != 3 {
		t.Errorf("SubtreeMachines(tor) = %d, want 3", got)
	}
	m := tp.Machines()[2]
	if got := tp.SubtreeSlots(m); got != 4 {
		t.Errorf("SubtreeSlots(machine) = %d, want 4", got)
	}
}

func TestBuildErrors(t *testing.T) {
	tests := []struct {
		name string
		spec Spec
	}{
		{"machine without slots", Spec{Children: []Spec{{UpCap: 10}}}},
		{"switch with slots", Spec{Slots: 3, Children: []Spec{{UpCap: 10, Slots: 1}}}},
		{"zero uplink capacity", Spec{Children: []Spec{{Slots: 1}}}},
		{"negative uplink capacity", Spec{Children: []Spec{{UpCap: -5, Slots: 1}}}},
		{"root-only machine without slots", Spec{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewFromSpec(tt.spec); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestThreeTierConfigErrors(t *testing.T) {
	base := PaperConfig()
	mutations := []func(*ThreeTierConfig){
		func(c *ThreeTierConfig) { c.Aggs = 0 },
		func(c *ThreeTierConfig) { c.ToRsPerAgg = -1 },
		func(c *ThreeTierConfig) { c.MachinesPerRack = 0 },
		func(c *ThreeTierConfig) { c.SlotsPerMachine = 0 },
		func(c *ThreeTierConfig) { c.HostCap = 0 },
		func(c *ThreeTierConfig) { c.Oversub = 0 },
	}
	for i, mutate := range mutations {
		c := base
		mutate(&c)
		if _, err := NewThreeTier(c); err == nil {
			t.Errorf("mutation %d: want error, got nil", i)
		}
	}
}

func TestSingleMachineTopology(t *testing.T) {
	tp, err := NewFromSpec(Spec{Slots: 8})
	if err != nil {
		t.Fatalf("NewFromSpec: %v", err)
	}
	if tp.Height() != 0 || tp.TotalSlots() != 8 || len(tp.Links()) != 0 {
		t.Errorf("single machine: height=%d slots=%d links=%d", tp.Height(), tp.TotalSlots(), len(tp.Links()))
	}
}

// TestLinksIsShared: Links is built once by the constructor — every
// non-root node in ID order — and handed out without allocating, under
// the same "callers must not modify it" contract as Machines.
func TestLinksIsShared(t *testing.T) {
	tp, err := NewThreeTier(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	links := tp.Links()
	for i, l := range links {
		if tp.Node(l).Parent == None || (i > 0 && links[i-1] >= l) {
			t.Fatalf("links[%d] = %d: want the non-root nodes in ascending ID order", i, l)
		}
	}
	if n := testing.AllocsPerRun(100, func() { links = tp.Links() }); n != 0 {
		t.Errorf("Links allocates %v times per call, want 0", n)
	}
	if len(links) != tp.Len()-1 {
		t.Errorf("links = %d, want %d", len(links), tp.Len()-1)
	}
}

// TestHostBounds holds MaxMachineSlots and MaxHostCap, computed once at
// build time, to a scan of every machine over random trees with mixed slot
// counts and host capacities, and pins the root-only topology: its one
// machine has no uplink, so MaxHostCap is 0.
func TestHostBounds(t *testing.T) {
	r := rand.New(rand.NewPCG(40, 4))
	var grow func(depth int) Spec
	grow = func(depth int) Spec {
		if depth == 0 || r.IntN(4) == 0 {
			return Spec{UpCap: 10 + 990*r.Float64(), Slots: 1 + r.IntN(8)}
		}
		s := Spec{UpCap: 100 + 9900*r.Float64()}
		for i := 1 + r.IntN(4); i > 0; i-- {
			s.Children = append(s.Children, grow(depth-1))
		}
		return s
	}
	for trial := 0; trial < 500; trial++ {
		tp, err := NewFromSpec(grow(3))
		if err != nil {
			t.Fatal(err)
		}
		slots, hostCap := 0, 0.0
		for _, m := range tp.Machines() {
			slots = max(slots, tp.Node(m).Slots)
			if m != tp.Root() {
				hostCap = max(hostCap, tp.LinkCap(m))
			}
		}
		if tp.MaxMachineSlots() != slots || tp.MaxHostCap() != hostCap {
			t.Fatalf("trial %d: MaxMachineSlots %d, MaxHostCap %v; a scan finds %d, %v",
				trial, tp.MaxMachineSlots(), tp.MaxHostCap(), slots, hostCap)
		}
	}
	tp, err := NewFromSpec(Spec{UpCap: 1000, Slots: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tp.MaxMachineSlots() != 8 || tp.MaxHostCap() != 0 {
		t.Errorf("root-only machine: MaxMachineSlots %d, MaxHostCap %v; want 8, 0", tp.MaxMachineSlots(), tp.MaxHostCap())
	}
}
