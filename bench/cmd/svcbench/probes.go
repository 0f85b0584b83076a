package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/bench/svcload"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wal"
)

// probeRecords is the size of the log directory the wal and replica
// probes read when the workload brings none of its own.
const probeRecords = 20000

// timeIt returns the median, in the given unit, of n timings of f.
func timeIt(n int, unit time.Duration, f func()) float64 {
	samples := make([]float64, n)
	for i := range samples {
		start := time.Now()
		f()
		samples[i] = float64(time.Since(start)) / float64(unit)
	}
	return svcload.Median(samples)
}

// allocated runs f and returns the bytes and objects it allocated.
func allocated(f func()) (bytes, objects float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)
}

// captureJournal keeps the last mutation offered to it, so that the wal
// probes can append a real admission record.
type captureJournal struct{ last core.Mutation }

func (c *captureJournal) Commit(m core.Mutation) error        { c.last = m; return nil }
func (c *captureJournal) Checkpoint(*core.ManagerState) error { return nil }

// layerProbes times direct calls into each layer's public functions on
// the half-full paper datacenter. They do not depend on the workload,
// only on the seed; every traced run makes them so that every run's
// layer report is complete. logDir is a log-only state directory to
// read, or nil to build a small one.
func layerProbes(ctx context.Context, e *env, seed uint64, logDir *stateDir) (values, error) {
	l := values{}
	l["topology.build_ms"] = timeIt(5, time.Millisecond, func() {
		topology.NewThreeTier(topology.PaperConfig())
	})

	// core, on a manager prefilled from the catalogue with no journal.
	mgr, err := core.NewManager(e.topo, eps)
	if err != nil {
		return nil, err
	}
	gen := svcload.NewGen(svcload.Churn, seed)
	fill := &svcload.Runner{Target: svcload.ControllerTarget{Ctrl: mgr}}
	fill.Sequence(ctx, gen.Prefill(e.fillSlots()))
	led := mgr.Ledger()
	homog, err := core.NewHomogeneous(49, stats.Normal{Mu: 300, Sigma: 120})
	if err != nil {
		return nil, err
	}
	demands := make([]stats.Normal, 8)
	for i := range demands {
		demands[i] = stats.Normal{Mu: float64(100 * (1 + i%5)), Sigma: float64(20 * (1 + i))}
	}
	hetero, err := core.NewHeterogeneous(demands)
	if err != nil {
		return nil, err
	}
	l["core.plan_cold_homog_us"] = timeIt(20, time.Microsecond, func() {
		core.AllocateHomog(led, homog, core.MinMaxOccupancy)
	})
	l["core.plan_hetero_us"] = timeIt(20, time.Microsecond, func() {
		core.AllocateHeteroSubstring(led, hetero, core.MinMaxOccupancy)
	})
	mgr.CanAllocateHomog(homog) // the first call builds the cache entry
	l["core.plan_warm_homog_us"] = timeIt(200, time.Microsecond, func() { mgr.CanAllocateHomog(homog) })
	l["core.snapshot_clone_us"] = timeIt(50, time.Microsecond, func() { led.Clone() })
	cloneBytes, _ := allocated(func() { led.Clone() })
	l["core.snapshot_clone_kb"] = cloneBytes / 1024
	l["core.export_state_ms"] = timeIt(5, time.Millisecond, func() { mgr.ExportState() })

	// One unjournaled admission through the whole pipeline: snapshot,
	// plan (warm), lock, revalidate, commit.
	small, err := core.NewHomogeneous(4, stats.Normal{Mu: 100, Sigma: 40})
	if err != nil {
		return nil, err
	}
	const admissions = 100
	var admitted []core.JobID
	mgr.CanAllocateHomog(small)
	bytes, objects := allocated(func() {
		for i := 0; i < admissions; i++ {
			if a, err := mgr.AllocateHomog(small); err == nil {
				admitted = append(admitted, a.ID)
			}
		}
	})
	if len(admitted) != admissions {
		return nil, fmt.Errorf("probe: %d of %d admissions fit a half-full datacenter", len(admitted), admissions)
	}
	l["core.admit_alloc_kb"] = bytes / 1024 / admissions
	l["core.admit_allocs"] = objects / admissions
	for _, id := range admitted {
		if err := mgr.Release(id); err != nil {
			return nil, err
		}
	}

	// Fail the first machine that holds VMs, repair every displaced job,
	// restore it.
	var busy topology.NodeID = topology.None
	for _, mc := range e.topo.Machines() {
		if led.FreeSlots(mc) < e.topo.Node(mc).Slots {
			busy = mc
			break
		}
	}
	if busy == topology.None {
		return nil, errors.New("probe: no machine holds a VM after the prefill")
	}
	var repairErr error
	l["core.fail_repair_ms"] = timeIt(5, time.Millisecond, func() {
		if _, err := mgr.FailMachine(busy); err != nil {
			repairErr = err
		}
		if _, err := mgr.RepairAll(); err != nil {
			repairErr = err
		}
		if err := mgr.RestoreMachine(busy); err != nil {
			repairErr = err
		}
	})
	if repairErr != nil {
		return nil, fmt.Errorf("probe: fail/repair: %w", repairErr)
	}

	if err := walProbes(ctx, e, seed, logDir, l); err != nil {
		return nil, err
	}
	if err := shardProbes(ctx, e, seed, l); err != nil {
		return nil, err
	}
	return l, nil
}

// walProbes times the journal directly — append with and without fsync,
// scan, replay, checkpoint, snapshot load — and the replica following
// and promoting over the same log.
func walProbes(ctx context.Context, e *env, seed uint64, logDir *stateDir, l values) error {
	// A real admission record to append.
	scratch, err := core.NewManager(e.topo, eps)
	if err != nil {
		return err
	}
	capture := &captureJournal{}
	scratch.SetJournal(capture)
	req, err := core.NewHomogeneous(8, stats.Normal{Mu: 300, Sigma: 100})
	if err != nil {
		return err
	}
	if _, err := scratch.AllocateHomog(req); err != nil {
		return err
	}
	appendCost := func(n int, opts ...wal.Option) (float64, error) {
		_, journal, err := wal.Recover(e.dir("append"), e.topo, eps, nil, opts...)
		if err != nil {
			return 0, err
		}
		defer journal.Close()
		var commitErr error
		mut := capture.last
		us := timeIt(n, time.Microsecond, func() {
			mut.Job++
			if err := journal.Commit(mut); err != nil {
				commitErr = err
			}
		})
		return us, commitErr
	}
	if l["wal.append_nosync_us"], err = appendCost(2000, wal.WithNoSync()); err != nil {
		return err
	}
	// The sandbox disk's sync cost: the sandbox's, not a device's.
	if l["wal.append_fsync_us"], err = appendCost(200); err != nil {
		return err
	}

	if logDir == nil {
		if logDir, err = e.buildLogDir(ctx, nil, seed, probeRecords); err != nil {
			return err
		}
		defer os.RemoveAll(logDir.path)
	}
	records := float64(logDir.records)
	data, err := os.ReadFile(filepath.Join(logDir.path, "wal-1.log"))
	if err != nil {
		return err
	}
	// Scan twice and keep the second pass: the first also pays for
	// faulting the file's pages in.
	var scan time.Duration
	for pass := 0; pass < 2; pass++ {
		start := time.Now()
		frames, _, err := wal.ScanLog(data)
		if err != nil {
			return err
		}
		for _, fr := range frames[1:] {
			if _, err := wal.DecodeRecord(fr.Payload); err != nil {
				return err
			}
		}
		scan = time.Since(start)
	}
	l["wal.scan_us_per_record"] = float64(scan) / float64(time.Microsecond) / records

	// Replay: scan plus apply, through the recovery path.
	replayDir := e.dir("replay")
	defer os.RemoveAll(replayDir)
	if err := copyDir(replayDir, logDir.path); err != nil {
		return err
	}
	start := time.Now()
	mgr, journal, err := wal.Recover(replayDir, e.topo, eps, nil, wal.WithNoSync())
	if err != nil {
		return err
	}
	l["wal.replay_us_per_record"] = float64(time.Since(start)) / float64(time.Microsecond) / records

	// Follow the recovered journal from an empty standby, then promote.
	mirror := e.dir("mirror")
	defer os.RemoveAll(mirror)
	standby, err := replica.New(replica.Config{
		Dir: mirror, Topo: e.topo, Eps: eps,
		Fetch: replica.JournalFetcher(journal), NoSync: true,
		WALOpts: []wal.Option{wal.WithNoSync()},
	})
	if err != nil {
		return err
	}
	start = time.Now()
	for caught := false; !caught; {
		if caught, err = standby.SyncOnce(ctx, 0); err != nil {
			return fmt.Errorf("probe: standby sync: %w", err)
		}
	}
	l["replica.catchup_records_s"] = records / time.Since(start).Seconds()
	start = time.Now()
	prom, err := standby.Promote(ctx)
	if err != nil {
		return fmt.Errorf("probe: promote: %w", err)
	}
	l["replica.promote_ms"] = ms(time.Since(start))
	if err := prom.Journal.Close(); err != nil {
		return err
	}

	// Checkpoint the recovered manager, then load what it wrote.
	start = time.Now()
	if err := mgr.Checkpoint(); err != nil {
		return err
	}
	l["wal.checkpoint_ms"] = ms(time.Since(start))
	mgr.SetJournal(nil)
	if err := journal.Close(); err != nil {
		return err
	}
	snaps, err := filepath.Glob(filepath.Join(replayDir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		return fmt.Errorf("probe: want one snapshot after a checkpoint, found %v (%v)", snaps, err)
	}
	st, err := os.Stat(snaps[0])
	if err != nil {
		return err
	}
	l["wal.snapshot_bytes_per_job"] = float64(st.Size()) / float64(max(logDir.jobs, 1))
	start = time.Now()
	_, journal, err = wal.Recover(replayDir, e.topo, eps, nil, wal.WithNoSync())
	if err != nil {
		return err
	}
	l["wal.snapshot_load_ms"] = ms(time.Since(start))
	return journal.Close()
}

// shardProbes opens the pod-sharded control plane and runs the
// catalogue's admit/release sequence through its router.
func shardProbes(ctx context.Context, e *env, seed uint64, l values) error {
	dir := e.dir("shards")
	defer os.RemoveAll(dir)
	pods := topology.NewPods(e.topo).Count()
	start := time.Now()
	router, err := shard.Open(dir, e.topo, eps, pods, shard.Options{Mode: shard.Fast, NoSync: true})
	if err != nil {
		return err
	}
	defer router.Close()
	l["shard.open_ms"] = ms(time.Since(start))

	var ctrl httpapi.Controller = router
	gen := svcload.NewGen(svcload.Churn, seed)
	load := &svcload.Runner{Target: svcload.ControllerTarget{Ctrl: ctrl}}
	load.Sequence(ctx, gen.Prefill(e.fillSlots()))
	ops := gen.Take(1000)
	var phase *svcload.Phase
	bytes, _ := allocated(func() { phase = load.Sequence(ctx, ops) })
	if _, failed, _, _ := load.Tally(); failed > 0 {
		return fmt.Errorf("probe: sharded sequence: %d requests failed: %v", failed, load.Failures())
	}
	l["shard.admit_us"] = svcload.Median(phase.Lat[svcload.KindAdmit]) * 1000
	l["shard.admit_alloc_kb"] = bytes / 1024 / float64(len(phase.Lat[svcload.KindAdmit]))
	return nil
}
