package core_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wal"
)

// recoverPaper opens a no-sync journaled manager over the paper's
// topology in dir.
func recoverPaper(t *testing.T, dir string) (*core.Manager, *wal.Journal) {
	t.Helper()
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, j, err := wal.Recover(dir, topo, 0.05, nil, wal.WithNoSync(), wal.WithSnapshotEvery(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return m, j
}

// TestAdmissionAllocBudget pins what a warm admission may allocate: the
// placement, the job record and the journal frame — not a copy of the
// ledger (78 KB on this topology), which only readers cut.
func TestAdmissionAllocBudget(t *testing.T) {
	m, _ := recoverPaper(t, t.TempDir())
	req := core.Homogeneous{N: 49, Demand: stats.Normal{Mu: 100, Sigma: 40}}
	churn := func(ops int) {
		for i := 0; i < ops; i += 2 {
			a, err := m.AllocateHomog(req)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Release(a.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(20) // past the plan cache's second-sight admission

	const ops = 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	churn(ops)
	runtime.ReadMemStats(&after)
	const budget = 16 << 10
	if perOp := (after.TotalAlloc - before.TotalAlloc) / ops; perOp >= budget {
		t.Errorf("warm AllocateHomog+Release churn allocates %d B/op, budget %d", perOp, budget)
	}
}

// TestAdmissionAllocCount counts objects where TestAdmissionAllocBudget
// counts bytes: a warm AllocateHomog whose placement spans two machines
// allocated 31 objects (go1.24) while the planner's contributions were
// converted to the journaled type and back on their way into the job; held
// in one type they are copied once, for the job, and a conversion that
// creeps back in fails here.
func TestAdmissionAllocCount(t *testing.T) {
	topo, err := topology.NewThreeTier(topology.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewManager(topo, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	req := core.Homogeneous{N: 6, Demand: stats.Normal{Mu: 100, Sigma: 40}}
	admit := func() {
		if _, err := m.AllocateHomog(req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // past the plan cache's second-sight admission
		admit()
	}
	if got := testing.AllocsPerRun(200, admit); got > 30 {
		t.Errorf("a warm AllocateHomog allocates %v objects, want <= 30", got)
	}
}

// TestRepairAllIsOneGroupCommit: a sweep stages every repair under one
// hold of the manager lock and waits once, so a single caller's K repairs
// reach the log as one batch — and the log recovers to the live state.
func TestRepairAllIsOneGroupCommit(t *testing.T) {
	dir := t.TempDir()
	m, j := recoverPaper(t, dir)
	req := core.Homogeneous{N: 8, Demand: stats.Normal{Mu: 100, Sigma: 40}}
	for i := 0; i < 12; i++ {
		a, err := m.AllocateHomog(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.FailMachine(a.Placement.Entries[0].Machine); err != nil {
			t.Fatal(err)
		}
	}
	displaced := m.AffectedJobs()
	if len(displaced) < 8 {
		t.Fatalf("machine failures displaced %d jobs, want >= 8", len(displaced))
	}

	before := j.GroupCommitStats()
	results, err := m.RepairAll()
	if err != nil {
		t.Fatal(err)
	}
	after := j.GroupCommitStats()
	if len(results) != len(displaced) {
		t.Fatalf("RepairAll returned %d results for %d displaced jobs", len(results), len(displaced))
	}
	if got := after.Batches - before.Batches; got != 1 {
		t.Errorf("RepairAll of %d jobs flushed %d batches, want 1", len(results), got)
	}
	if got := after.Records - before.Records; got != int64(len(results)) {
		t.Errorf("RepairAll journaled %d records, want %d", got, len(results))
	}

	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, _ := recoverPaper(t, dir)
	if got, want := recovered.ExportState(), m.ExportState(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state differs from live state after the sweep")
	}
}
