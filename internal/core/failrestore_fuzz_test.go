package core

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
)

// FuzzFailRestoreLedger drives a Manager through arbitrary interleavings
// of machine/link failures and restores, admissions, releases and repairs,
// and checks the ledger invariants after every step:
//
//   - slot accounting is exact: used slots per machine equal the VM counts
//     of the tracked placements, and never exceed capacity;
//   - while no job is running degraded, every live link's occupancy
//     satisfies the admission condition O_L < 1;
//   - after releasing every job and restoring every fault, the ledger is
//     exactly empty (no leaked reservations or slots).
//
// driveFailRestore is shared with TestFailRestoreRandomTrees.
func FuzzFailRestoreLedger(f *testing.F) {
	f.Add([]byte{0x04, 0x00, 0x00, 0x01, 0x14, 0x00})
	f.Add([]byte{0x04, 0x03, 0x04, 0x13, 0x00, 0x00, 0x06, 0x00, 0x05, 0x00})
	f.Add([]byte{0x04, 0x07, 0x02, 0x01, 0x04, 0x0b, 0x00, 0x05, 0x06, 0x01, 0x01, 0x01})
	f.Add([]byte{0x24, 0x31, 0x12, 0x43, 0x54, 0x65, 0x16, 0x07, 0x28, 0x39})
	f.Add([]byte{0x04, 0x01, 0xe0, 0x00, 0x04, 0x03, 0xe1, 0x00, 0xe0, 0x02, 0x06, 0x00}) // SetOffline

	f.Fuzz(func(t *testing.T, ops []byte) {
		m, err := NewManager(mustTopo(smallThreeTier()), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		driveFailRestore(t, m, ops)
	})
}

// TestFailRestoreRandomTrees runs driveFailRestore's invariants over
// random trees and random interleavings of admit / release / SetOffline /
// FailMachine / FailLink / restore / RepairAll.
func TestFailRestoreRandomTrees(t *testing.T) {
	r := stats.NewRand(20)
	for trial := 0; trial < 60; trial++ {
		m, err := NewManager(randomTopology(r), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]byte, 2*r.UniformInt(20, 120))
		for i := range ops {
			ops[i] = byte(r.IntN(256))
		}
		driveFailRestore(t, m, ops)
	}
}

// driveFailRestore interprets ops as (op, arg) byte pairs against m and
// checks the invariants FuzzFailRestoreLedger lists after every step.
func driveFailRestore(t *testing.T, m *Manager, ops []byte) {
	t.Helper()
	tp := m.Topology()
	machines := tp.Machines()
	links := tp.Links()
	var live []*Allocation

	checkInvariants := func(step int) {
		t.Helper()
		led := m.Ledger()
		// Slot accounting: per-machine usage must match the tracked
		// placements exactly (evicted jobs are pruned from live first).
		want := make(map[topology.NodeID]int)
		for _, a := range live {
			for _, e := range a.Placement.Entries {
				want[e.Machine] += e.Count
			}
		}
		for _, mc := range machines {
			if led.used[mc] != want[mc] {
				t.Fatalf("step %d: machine %d used %d slots, placements say %d", step, mc, led.used[mc], want[mc])
			}
			if led.used[mc] > tp.Node(mc).Slots {
				t.Fatalf("step %d: machine %d used %d slots of %d", step, mc, led.used[mc], tp.Node(mc).Slots)
			}
		}
		// Admission condition on live links while nothing is degraded.
		if m.FailureStats().DegradedJobs == 0 {
			for _, link := range links {
				if led.LinkLive(link) {
					if occ := led.Occupancy(link); occ >= 1+1e-9 {
						t.Fatalf("step %d: live link %d occupancy %v >= 1 with no degraded jobs", step, link, occ)
					}
				}
			}
		}
	}

	pruneEvicted := func() {
		kept := live[:0]
		for _, a := range live {
			if _, err := m.EffectiveEps(a.ID); err == nil {
				kept = append(kept, a)
			}
		}
		live = kept
	}

	for i := 0; i+1 < len(ops); i += 2 {
		// The decode of the stored corpus (op = byte%7, arg) is fixed: every
		// saved input replays the sequence it was saved for. Op bytes from
		// 224 up — none is stored — spell FailMachine/RestoreMachine as
		// SetOffline, the same overlay change through the other mutation.
		op, arg := ops[i]%7, int(ops[i+1])
		administrative := ops[i] >= 224
		switch op {
		case 0, 1:
			mc := machines[arg%len(machines)]
			if administrative {
				if err := m.SetOffline(mc, op == 0); err != nil {
					t.Fatalf("step %d: SetOffline: %v", i, err)
				}
			} else if op == 0 {
				m.FailMachine(mc)
			} else {
				m.RestoreMachine(mc)
			}
		case 2:
			m.FailLink(links[arg%len(links)])
		case 3:
			m.RestoreLink(links[arg%len(links)])
		case 4:
			req := Homogeneous{N: 1 + arg%4, Demand: stats.Normal{Mu: 4 + float64(arg%5), Sigma: float64(arg % 3)}}
			if a, err := m.AllocateHomog(req); err == nil {
				live = append(live, a)
			}
		case 5:
			if len(live) > 0 {
				idx := arg % len(live)
				if err := m.Release(live[idx].ID); err != nil {
					t.Fatalf("step %d: Release: %v", i, err)
				}
				live = append(live[:idx], live[idx+1:]...)
			}
		case 6:
			m.RepairAll()
			pruneEvicted()
		}
		// Odd args read through view after the step, so the dry runs' cache
		// entries see every kind of mutation in between.
		if arg%2 == 1 {
			m.CanAllocateHomog(Homogeneous{N: 1 + arg%4, Demand: stats.Normal{Mu: 5, Sigma: 1}})
			m.FreeSlots()
		}
		checkInvariants(i)
	}

	// Drain: restore everything, release every surviving job, and the
	// ledger must be exactly empty.
	for _, mc := range machines {
		m.RestoreMachine(mc)
	}
	for _, link := range links {
		m.RestoreLink(link)
	}
	pruneEvicted()
	for _, a := range live {
		if err := m.Release(a.ID); err != nil {
			t.Fatalf("drain: Release(%d): %v", a.ID, err)
		}
	}
	led := m.Ledger()
	if got, want := led.TotalFreeSlots(), tp.TotalSlots(); got != want {
		t.Fatalf("drain: %d free slots, want %d", got, want)
	}
	for _, link := range links {
		if occ := led.Occupancy(link); math.Abs(occ) > 1e-6 {
			t.Fatalf("drain: link %d occupancy %v != 0", link, occ)
		}
		if n := led.StochasticCount(link); n != 0 {
			t.Fatalf("drain: link %d still carries %d stochastic demands", link, n)
		}
		if d := led.DetReserved(link); math.Abs(d) > 1e-6 {
			t.Fatalf("drain: link %d still reserves %v deterministic", link, d)
		}
	}
	if m.Running() != 0 {
		t.Fatalf("drain: %d jobs still tracked", m.Running())
	}
	if st := m.FailureStats(); st.MachinesDown != 0 || st.LinksDown != 0 || st.DegradedJobs != 0 {
		t.Fatalf("drain: stats not clean: %+v", st)
	}
}
