package main

import (
	"context"
	"fmt"
	"math"

	"repro/bench/svcload"
	"repro/internal/core"
	"repro/internal/wal"
)

// stateDir is a state directory built in process, single-threaded and
// seeded — so the same seed writes the same bytes — together with the
// state a correct recovery of it must reproduce.
type stateDir struct {
	path    string
	records int // mutation records in the log after the last snapshot
	jobs    int
	state   *core.ManagerState
}

// buildStretch is how many requests a builder sends between two
// readings of the processor's speed: a few tenths of a second.
const buildStretch = 8192

// neverSnapshot keeps a builder's journal from asking for a checkpoint.
const neverSnapshot = math.MaxInt32

// buildLogDir writes a directory whose state lives in the log alone:
// a half-full datacenter, then admit/release churn from the catalogue
// until the log holds the given number of records. No snapshot. The
// work is timed on clock, a stretch of records at a time.
func (e *env) buildLogDir(ctx context.Context, clock *laps, seed uint64, records int) (*stateDir, error) {
	dir := e.dir("log")
	mgr, journal, err := wal.Recover(dir, e.topo, eps, nil, wal.WithNoSync(), wal.WithSnapshotEvery(neverSnapshot))
	if err != nil {
		return nil, err
	}
	gen := svcload.NewGen(svcload.Churn, seed)
	load := &svcload.Runner{Target: svcload.ControllerTarget{Ctrl: mgr}}
	clock.time(func() { load.Sequence(ctx, gen.Prefill(e.fillSlots())) })
	for journal.Appended() < records && ctx.Err() == nil {
		clock.time(func() { load.Sequence(ctx, gen.Take(min(records-journal.Appended(), buildStretch))) })
	}
	return sealDir(dir, mgr, journal, load)
}

// snapShape sizes a snapshot directory: the slots its live jobs fill
// (the jobs have two VMs each), the idempotency-key bindings the
// snapshot holds (every keyed mutation binds one), and the records of
// the log tail after it.
type snapShape struct{ liveSlots, bindings, tail int }

// fullSnap is the restart-recover workload's snapshot directory: about
// 1 500 live jobs and 50 000 bindings checkpointed, then a 1 000-record
// tail.
var fullSnap = snapShape{liveSlots: 3000, bindings: 50000, tail: 1000}

// buildSnapDir writes a directory whose state lives mostly in a
// snapshot, timed like buildLogDir.
func (e *env) buildSnapDir(ctx context.Context, clock *laps, seed uint64, shape snapShape) (*stateDir, error) {
	dir := e.dir("snap")
	mgr, journal, err := wal.Recover(dir, e.topo, eps, nil, wal.WithNoSync(), wal.WithSnapshotEvery(neverSnapshot))
	if err != nil {
		return nil, err
	}
	gen := svcload.NewGen(svcload.SmallKeyed, seed)
	load := &svcload.Runner{Target: svcload.ControllerTarget{Ctrl: mgr}}
	clock.time(func() { load.Sequence(ctx, gen.Prefill(shape.liveSlots)) })
	for journal.Appended() < shape.bindings && ctx.Err() == nil {
		clock.time(func() { load.Sequence(ctx, gen.Take(min(shape.bindings-journal.Appended(), buildStretch))) })
	}
	clock.time(func() {
		if err = mgr.Checkpoint(); err == nil {
			load.Sequence(ctx, gen.Take(shape.tail))
		}
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return sealDir(dir, mgr, journal, load)
}

func sealDir(dir string, mgr *core.Manager, journal *wal.Journal, load *svcload.Runner) (*stateDir, error) {
	if _, failed, _, _ := load.Tally(); failed > 0 {
		return nil, fmt.Errorf("building %s: %d requests failed: %v", dir, failed, load.Failures())
	}
	state := mgr.ExportState()
	records := journal.Appended()
	mgr.SetJournal(nil)
	if err := journal.Close(); err != nil {
		return nil, err
	}
	return &stateDir{path: dir, records: records, jobs: len(state.Jobs), state: state}, nil
}
