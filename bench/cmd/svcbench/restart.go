package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"time"

	"repro/bench/svcload"
	"repro/internal/core"
	"repro/internal/httpapi"
)

// Sizes of the restart-recover workload. It has no phase to time, so
// they do not follow -seconds; a traced run halves the repetitions. On
// the baseline host at its slowest a run of these takes 35 s, which is
// what the benchmark's time limit leaves it.
const (
	logRecords  = 100000 // records in the log-only directory
	restartLog  = 6      // restarts from the log-only directory
	restartSnap = 4      // restarts from the snapshot directory; a layer metric only
	failovers   = 6      // primary kills with a standby following
)

// runRestart measures the operator's path: how long svcd takes from
// exec to its first answer on a directory it must replay from the log,
// on one it loads from a snapshot, and how long tenants are without
// service when the primary is killed and a standby is promoted. There
// is no load phase; each recovered or promoted daemon must hold exactly
// the state its directory was built with, plus what was acknowledged
// since.
func runRestart(ctx context.Context, e *env, seed uint64, _ float64, trace bool) (*result, error) {
	res := newResult()
	nLog, nSnap, nFail := restartLog, restartSnap, failovers
	if trace {
		nLog, nSnap, nFail = nLog/2, nSnap/2, nFail/2
	}

	clock, err := e.directReference(res, seed, refRateRestart)
	if err != nil {
		return nil, err
	}
	defer clock.stop()
	setup := &laps{res: res}
	logDir, err := e.buildLogDir(ctx, setup, seed, logRecords)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(logDir.path)
	snapDir, err := e.buildSnapDir(ctx, setup, seed, fullSnap)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(snapDir.path)
	res.e2e["setup_s"] = setup.total.Seconds()
	logSize, err := walBytes(logDir.path)
	if err != nil {
		return nil, err
	}
	res.e2e["log_bytes_per_op"] = float64(logSize) / float64(logDir.records)

	// restart boots svcd on a copy of a built directory, checks what it
	// recovered, and kills it. It returns exec-to-ready and the child's
	// processor time.
	restart := func(from *stateDir) (ready, cpu time.Duration, err error) {
		dir := e.dir("restart")
		defer os.RemoveAll(dir)
		if err := copyDir(dir, from.path); err != nil {
			return 0, 0, err
		}
		// Recovery is decoding and applying records in one process, which is
		// what the calibration loops are made of: they alone time it. (With
		// the reference server in the scale the same restarts spread half
		// again as far.)
		var d *svcd
		scale := res.time(ctx, func() { d, err = e.startSvcd(ctx, "-state-dir", dir) })
		if err != nil {
			return 0, 0, err
		}
		got, serr := d.client.State(ctx)
		cpu = d.kill()
		res.attempted++
		if serr != nil {
			return 0, 0, fmt.Errorf("state after restart: %w", serr)
		}
		if !reflect.DeepEqual(&got, from.state) {
			res.failed++
			res.failf("restart from %s: recovered state differs from the state the directory was built with", from.path)
		}
		return time.Duration(scale * float64(d.boot)), time.Duration(scale * float64(cpu)), nil
	}

	var logMs, snapMs, failMs, boots []float64
	var logCPU time.Duration
	for i := 0; i < nLog; i++ {
		ready, cpu, err := restart(logDir)
		if err != nil {
			return nil, err
		}
		logMs = append(logMs, ms(ready))
		logCPU += cpu
	}
	for i := 0; i < nSnap; i++ {
		ready, _, err := restart(snapDir)
		if err != nil {
			return nil, err
		}
		snapMs = append(snapMs, ms(ready))
	}
	for i := 0; i < nFail; i++ {
		outage, boot, err := failover(ctx, e, res, clock, snapDir, seed, i)
		if err != nil {
			return nil, err
		}
		failMs = append(failMs, ms(outage))
		boots = append(boots, ms(boot))
	}

	// The headline numbers in the shared vector: replay throughput from
	// exec to ready and the outage a tenant sees across a failover. The
	// child's processor time per replayed record, a layer metric, covers
	// its whole life, including the state fetch that checks it.
	recoverLog := svcload.Median(logMs)
	res.e2e["ops_s"] = float64(logDir.records) / (recoverLog / 1000)
	res.e2e["latency_p50_ms"] = svcload.Median(failMs)
	if !trace {
		return res, nil
	}

	l := res.layers
	l["host.speed"] = res.speed()
	l["host.reference_speed"] = clock.speed()
	l["svcd.cpu_us_per_op"] = float64(logCPU) / float64(time.Microsecond) / float64(nLog*logDir.records)
	l["svcd.recover_log_ms"] = recoverLog
	l["svcd.recover_snap_ms"] = svcload.Median(snapMs)
	l["replica.failover_ms"] = svcload.Median(failMs)
	l["svcd.boot_ms"] = svcload.Median(boots)
	gen := svcload.NewGen(svcload.Churn, seed)
	prefill := gen.Prefill(e.fillSlots())
	if _, err := res.inProcessLayers(ctx, e, "restart-recover", seed, prefill, gen.Take(2000), false, logDir); err != nil {
		return nil, err
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tailOps is how many keyed writes each failover round sends to the
// primary, and the standby must hold, before the primary is killed.
// With the snapshot directory's own tail it stays under svcd's
// checkpoint threshold, so no checkpoint races the measurement.
const tailOps = 1000

// heldJobs lists a state's jobs oldest first, the order releases take
// them in.
func heldJobs(st *core.ManagerState) []int64 {
	ids := make([]int64, len(st.Jobs))
	for i, j := range st.Jobs {
		ids[i] = j.ID
	}
	return ids
}

// failover starts a primary on a copy of the snapshot directory and an
// empty standby following it, sends the primary a tail of keyed writes,
// waits until the standby has them, kills the primary, promotes the
// standby, and sends one keyed admit through a client that knows both
// addresses. The outage runs from the kill to that admit's 201: the
// standby's catch-up attempt against the dead primary, its recovery of
// the mirror (snapshot load plus tail replay), the epoch advance, and
// the client's retry. boot is the standby's exec-to-ready on its empty
// directory.
//
// The log-only directory would not do as the primary's: svcd checkpoints
// a log that long a second after it boots, and whether the standby then
// holds the log or the snapshot at the kill would be a race.
func failover(ctx context.Context, e *env, res *result, clock *reference, from *stateDir, seed uint64, round int) (outage, boot time.Duration, err error) {
	pdir, sdir := e.dir("primary"), e.dir("standby")
	defer os.RemoveAll(pdir)
	defer os.RemoveAll(sdir)
	if err := copyDir(pdir, from.path); err != nil {
		return 0, 0, err
	}
	primary, err := e.startSvcd(ctx, "-state-dir", pdir)
	if err != nil {
		return 0, 0, err
	}
	defer primary.kill()
	standby, err := e.startSvcd(ctx, "-state-dir", sdir, "-role", "standby", "-follow", primary.url)
	if err != nil {
		return 0, 0, err
	}
	defer standby.kill()

	// The acknowledged writes, sent to the primary and to an in-process
	// reference that starts from the directory's state.
	tail := svcload.NewGen(svcload.FailoverTail, seed+uint64(round)).Take(tailOps)
	one := svcload.NewHTTPTarget(primary.url, 1)
	defer one.Close()
	load := &svcload.Runner{Target: one}
	load.Hold(heldJobs(from.state))
	load.Sequence(ctx, tail)
	ref, err := core.NewManagerFromState(e.topo, eps, from.state)
	if err != nil {
		return 0, 0, err
	}
	refLoad := &svcload.Runner{Target: svcload.ControllerTarget{Ctrl: ref}}
	refLoad.Hold(heldJobs(from.state))
	refLoad.Sequence(ctx, tail)
	attempted, failed, _, _ := load.Tally()
	res.attempted += attempted
	res.failed += failed
	for _, f := range load.Failures() {
		res.failf("failover %d: write to the primary failed: %s", round, f)
	}

	want, err := primary.client.Status(ctx)
	if err != nil {
		return 0, 0, fmt.Errorf("primary status: %w", err)
	}
	if want.Replication == nil {
		return 0, 0, fmt.Errorf("primary reports no replication status")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := standby.client.Status(ctx)
		if err != nil {
			return 0, 0, fmt.Errorf("standby status: %w", err)
		}
		if r := st.Replication; r != nil && r.LagRecords == 0 &&
			r.Gen == want.Replication.Gen && r.AppliedOff == want.Replication.DurableOff {
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("standby did not catch up within 60s: %+v, primary %+v", st.Replication, want.Replication)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A tenant's client: both addresses, retrying under its idempotency
	// key without the default back-off, which would dominate the outage.
	tenant := httpapi.NewClient(primary.url, &http.Client{Transport: &http.Transport{}},
		httpapi.WithEndpoints(standby.url), httpapi.WithRetries(50),
		httpapi.WithBackoff(time.Millisecond, 2*time.Millisecond))
	req := httpapi.AllocationRequest{N: 4, Mu: 100, Sigma: 40}
	key := fmt.Sprintf("failover-%d-%d", seed, round)

	var (
		resp httpapi.AllocationResponse
		perr error
	)
	scale := clock.time(ctx, func() {
		began := time.Now()
		primary.kill()
		if _, perr = standby.client.Promote(ctx); perr == nil {
			resp, err = tenant.Allocate(ctx, req, httpapi.WithIdempotencyKey(key))
		}
		outage = time.Since(began)
	})
	if perr != nil {
		return 0, 0, fmt.Errorf("promote: %w", perr)
	}
	outage = time.Duration(scale * float64(outage))
	res.attempted++
	if err != nil {
		res.failed++
		return 0, 0, fmt.Errorf("admit after failover: %w", err)
	}

	// The promoted standby must hold the directory's state, every write
	// the primary acknowledged, and that admit — nothing else.
	homog, _, err := svcload.Requests(&req)
	if err != nil {
		return 0, 0, err
	}
	alloc, err := ref.AllocateHomog(*homog, core.WithIdemKey(key))
	if err != nil {
		return 0, 0, fmt.Errorf("reference admit: %w", err)
	}
	got, err := standby.client.State(ctx)
	if err != nil {
		return 0, 0, fmt.Errorf("state after failover: %w", err)
	}
	if int64(alloc.ID) != resp.ID || !reflect.DeepEqual(&got, ref.ExportState()) {
		res.failed++
		res.failf("failover %d: the promoted standby's state is not the built state plus the acknowledged writes", round)
	}
	return outage, standby.boot, nil
}
