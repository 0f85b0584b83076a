package core

import (
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/topology"
)

// TestClockSeamFakesRepairLatency drives the nowFunc seam with a clock
// that jumps 5ms per read: repair latency comes out exactly 5ms without
// sleeping, proving no code path consults the wall clock directly.
func TestClockSeamFakesRepairLatency(t *testing.T) {
	base := time.Unix(1700000000, 0)
	ticks := 0
	restore := SetClockForTesting(func() time.Time {
		ticks++
		return base.Add(time.Duration(ticks) * 5 * time.Millisecond)
	})
	defer restore()

	m := mustManager(t, smallThreeTier(), 0.05)
	a := mustAllocHomog(t, m, Homogeneous{N: 3, Demand: stats.Normal{Mu: 5, Sigma: 2}})

	var victim topology.NodeID = topology.None
	for _, e := range a.Placement.Entries {
		victim = e.Machine
		break
	}
	if _, err := m.FailMachine(victim); err != nil {
		t.Fatalf("FailMachine: %v", err)
	}
	res, err := m.RepairJob(a.ID)
	if err != nil {
		t.Fatalf("RepairJob: %v", err)
	}
	// start and end are consecutive reads of the fake clock.
	if res.Elapsed != 5*time.Millisecond {
		t.Fatalf("Elapsed = %v, want exactly 5ms from the fake clock", res.Elapsed)
	}
}

// TestClockSeamRestores checks the restore closure reinstates the wall
// clock, so a leaked fake cannot poison later tests.
func TestClockSeamRestores(t *testing.T) {
	fixed := time.Unix(42, 0)
	restore := SetClockForTesting(func() time.Time { return fixed })
	if !Now().Equal(fixed) {
		t.Fatal("fake clock not installed")
	}
	restore()
	if Now().Equal(fixed) {
		t.Fatal("restore did not reinstate the real clock")
	}
}
