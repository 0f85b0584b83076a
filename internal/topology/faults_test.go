package topology

import "testing"

// faultTestTopo: root -> two racks (1, 4) -> two machines each.
func faultTestTopo(t *testing.T) *Topology {
	t.Helper()
	tp, err := NewFromSpec(Spec{Children: []Spec{
		{UpCap: 100, Children: []Spec{
			{UpCap: 50, Slots: 2},
			{UpCap: 50, Slots: 2},
		}},
		{UpCap: 100, Children: []Spec{
			{UpCap: 50, Slots: 2},
			{UpCap: 50, Slots: 2},
		}},
	}})
	if err != nil {
		t.Fatalf("NewFromSpec: %v", err)
	}
	return tp
}

func TestFaultsMachineFailRestore(t *testing.T) {
	tp := faultTestTopo(t)
	f := NewFaults(tp)
	m := tp.Machines()[0]

	if !f.Alive(m) || f.AnyDown() {
		t.Fatal("fresh overlay must have everything alive")
	}
	if got, want := f.AliveSlots(), tp.TotalSlots(); got != want {
		t.Fatalf("AliveSlots = %d, want %d", got, want)
	}
	e0 := f.Epoch()
	if !f.FailMachine(m) {
		t.Fatal("FailMachine reported no change")
	}
	if f.FailMachine(m) {
		t.Fatal("second FailMachine must be a no-op")
	}
	if f.Epoch() == e0 {
		t.Fatal("epoch did not move on failure")
	}
	if f.Alive(m) || !f.MachineDown(m) || f.MachinesDown() != 1 {
		t.Fatal("machine not recorded as down")
	}
	if got, want := f.AliveSlots(), tp.TotalSlots()-tp.Node(m).Slots; got != want {
		t.Fatalf("AliveSlots = %d, want %d", got, want)
	}
	// A failed machine is still reachable (the fault is the host, not the
	// path).
	if !f.Reachable(m) {
		t.Fatal("failed machine must remain reachable")
	}
	if !f.RestoreMachine(m) {
		t.Fatal("RestoreMachine reported no change")
	}
	if !f.Alive(m) || f.AnyDown() {
		t.Fatal("machine not restored")
	}
}

func TestFaultsLinkFailDisconnectsSubtree(t *testing.T) {
	tp := faultTestTopo(t)
	f := NewFaults(tp)
	rack := tp.Node(tp.Root()).Children[0]
	below := tp.SubtreeMachines(nil, rack)
	if len(below) != 2 {
		t.Fatalf("expected 2 machines under rack, got %d", len(below))
	}

	f.FailLink(rack)
	for _, m := range below {
		if f.Alive(m) || f.Reachable(m) {
			t.Fatalf("machine %d should be unreachable behind failed link", m)
		}
		if f.MachineDown(m) {
			t.Fatalf("machine %d is unreachable, not itself failed", m)
		}
	}
	for _, m := range tp.SubtreeMachines(nil, tp.Node(tp.Root()).Children[1]) {
		if !f.Alive(m) {
			t.Fatalf("machine %d in the other rack must stay alive", m)
		}
	}
	if got, want := f.AliveSlots(), tp.TotalSlots()-4; got != want {
		t.Fatalf("AliveSlots = %d, want %d", got, want)
	}
	if f.LinksDown() != 1 {
		t.Fatalf("LinksDown = %d, want 1", f.LinksDown())
	}

	f.RestoreLink(rack)
	for _, m := range below {
		if !f.Alive(m) {
			t.Fatalf("machine %d not alive after link restore", m)
		}
	}
}

func TestFaultsCloneIsIndependent(t *testing.T) {
	tp := faultTestTopo(t)
	f := NewFaults(tp)
	m := tp.Machines()[0]
	f.FailMachine(m)

	c := f.Clone()
	if c.Alive(m) {
		t.Fatal("clone lost fault state")
	}
	c.RestoreMachine(m)
	if f.Alive(m) {
		t.Fatal("restoring the clone mutated the original")
	}
	f.RestoreMachine(m)
	if !f.Alive(m) || !c.Alive(m) {
		t.Fatal("restore lost")
	}
}

func TestFaultsPanicsOnBadTargets(t *testing.T) {
	tp := faultTestTopo(t)
	f := NewFaults(tp)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("FailMachine(root)", func() { f.FailMachine(tp.Root()) })
	mustPanic("FailMachine(switch)", func() { f.FailMachine(tp.Node(tp.Root()).Children[0]) })
	mustPanic("FailLink(root)", func() { f.FailLink(tp.Root()) })
	mustPanic("FailLink(-1)", func() { f.FailLink(-1) })
}

// TestFaultCountsFollowEveryChange: MachinesDown and LinksDown are kept as
// counts, so every fail, restore, no-op and clone must leave them equal
// to a count of the fault bits, on the source and on a diverging clone.
func TestFaultCountsFollowEveryChange(t *testing.T) {
	tp := faultTestTopo(t)
	count := func(f *Faults) (machines, links int) {
		for _, m := range tp.Machines() {
			if f.MachineDown(m) {
				machines++
			}
		}
		for _, l := range tp.Links() {
			if f.LinkDown(l) {
				links++
			}
		}
		return machines, links
	}
	f := NewFaults(tp)
	overlays := []*Faults{f}
	for step := 0; step < 200; step++ {
		g := overlays[step%len(overlays)]
		m, l := tp.Machines()[step*7%len(tp.Machines())], tp.Links()[step*5%len(tp.Links())]
		switch step % 5 {
		case 0:
			g.FailMachine(m)
		case 1:
			g.RestoreMachine(m)
		case 2:
			g.FailLink(l)
		case 3:
			g.RestoreLink(l)
		default:
			if len(overlays) < 3 {
				overlays = append(overlays, g.Clone())
			} else {
				g.FailMachine(m)
			}
		}
		for i, o := range overlays {
			machines, links := count(o)
			if o.MachinesDown() != machines || o.LinksDown() != links || o.AnyDown() != (machines+links > 0) {
				t.Fatalf("step %d, overlay %d: counts (%d, %d, any %v), bits (%d, %d)",
					step, i, o.MachinesDown(), o.LinksDown(), o.AnyDown(), machines, links)
			}
		}
	}
}
