package main

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"repro/bench/svcload"
	"repro/internal/core"
	"repro/internal/wal"
)

// ownCPU returns the processor time this process has used.
func ownCPU() (user, sys time.Duration, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano()), nil
}

// runEmbedded drives the library with no HTTP and no second process:
// one goroutine calls a journaled (nosync) core.Manager directly,
// admit/release over the catalogue on the half-full paper datacenter.
// Closed loop, because a library caller waits for its reply.
func runEmbedded(ctx context.Context, e *env, seed uint64, seconds float64, trace bool) (*result, error) {
	res := newResult()
	gen := svcload.NewGen(svcload.Churn, seed)
	prefill := gen.Prefill(e.fillSlots())
	replay := gen.Take(2000) // for the traced run; the closed loop continues the stream after them

	// Set-up: recover an empty directory and prefill, several times. A
	// round takes tens of milliseconds, so it can afford more of them
	// than a workload that boots a process.
	const rounds = 3 * setupRounds
	var (
		mgr     *core.Manager
		journal *wal.Journal
		load    *svcload.Runner
		dir     string
		setups  []float64
	)
	for round := 0; round < rounds; round++ {
		if journal != nil {
			mgr.SetJournal(nil)
			if err := journal.Close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		dir = e.dir("embedded")
		watch := res.stopwatch()
		var err error
		if mgr, journal, err = wal.Recover(dir, e.topo, eps, nil, wal.WithNoSync()); err != nil {
			return nil, err
		}
		load = &svcload.Runner{Target: svcload.ControllerTarget{Ctrl: mgr}}
		load.Sequence(ctx, prefill)
		setup, _ := watch.stop()
		setups = append(setups, setup.Seconds())
	}
	defer os.RemoveAll(dir)
	defer journal.Close()

	ref, err := core.NewManager(e.topo, eps)
	if err != nil {
		return nil, err
	}
	(&svcload.Runner{Target: svcload.ControllerTarget{Ctrl: ref}}).Sequence(ctx, prefill)
	if !reflect.DeepEqual(mgr.ExportState(), ref.ExportState()) {
		res.failf("prefill: the journaled manager's state differs from an unjournaled one fed the same %d admits", len(prefill))
	}

	slices := int(measuredShare * seconds)
	if trace {
		slices /= 2
	}
	logBefore, err := walBytes(dir)
	if err != nil {
		return nil, err
	}
	recBefore := journal.Appended()
	adm0 := mgr.AdmissionStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	clock, err := e.directReference(res, seed, refRateEmbedded)
	if err != nil {
		return nil, err
	}
	defer clock.stop()
	closed := &windowed{primary: []svcload.Kind{svcload.KindAdmit}, clock: clock.time}
	for n := 0; n < max(slices, 1) && ctx.Err() == nil; n++ {
		if err := closed.slice(ctx, load, gen, ownCPU); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)
	adm1 := mgr.AdmissionStats()
	logAfter, err := walBytes(dir)
	if err != nil {
		return nil, err
	}

	res.checkState(e, mgr.ExportState(), load.Held())
	if mgr.Running() != load.Held() {
		res.failf("conservation: the manager runs %d jobs, the callers hold %d", mgr.Running(), load.Held())
	}
	res.attempted, res.failed, _, _ = load.Tally()
	for _, f := range load.Failures() {
		res.failf("call failed: %s", f)
	}

	ops := float64(closed.done)
	res.e2e["setup_s"] = svcload.Median(setups)
	res.e2e["ops_s"] = closed.throughput()
	res.e2e["latency_p50_ms"] = svcload.Median(closed.latMs)
	if recs := journal.Appended() - recBefore; recs > 0 {
		res.e2e["log_bytes_per_op"] = float64(logAfter-logBefore) / float64(recs)
	}
	if !trace {
		return res, nil
	}

	l := res.layers
	l["host.speed"] = res.speed()
	l["host.reference_speed"] = clock.speed()
	l["core.cpu_us_per_op"] = svcload.Median(closed.cpuPerOp)
	l["core.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / ops
	admissionLayers(l, admissionStatus(adm0), admissionStatus(adm1))
	if _, err := res.inProcessLayers(ctx, e, "embedded-admit", seed, prefill, replay, false, nil); err != nil {
		return nil, err
	}
	return res, nil
}
