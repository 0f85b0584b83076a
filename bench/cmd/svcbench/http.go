package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/bench/svcload"
	"repro/internal/core"
	"repro/internal/httpapi"
)

// httpSpec is one workload that loads a real svcd over loopback HTTP.
type httpSpec struct {
	mix     svcload.Mix
	fsync   bool           // svcd runs with fsync (no -no-sync)
	rate    float64        // open-loop arrival rate, requests per second
	warmOps int            // requests of the single-client warm-up
	primary []svcload.Kind // the kinds whose latency is the headline
}

// The rates are frozen at about 40 % of the closed-loop rate the seed
// commit reaches on the reference host with two connections; see the
// README for the calibration.
var httpSpecs = map[string]httpSpec{
	"durable-churn": {mix: svcload.DurableChurn, fsync: true, rate: 900, warmOps: 1500,
		primary: []svcload.Kind{svcload.KindAdmit}},
	"plan-miss": {mix: svcload.PlanMiss, rate: 400, warmOps: 1000,
		primary: []svcload.Kind{svcload.KindAdmit}},
	"read-mix": {mix: svcload.ReadMix, rate: 2500, warmOps: 3000,
		primary: []svcload.Kind{svcload.KindDryRun, svcload.KindStatus, svcload.KindLinks}},
}

// fillShare is the share of the datacenter's slots the prefill occupies.
const fillShare = 0.5

// fillSlots is how many slots a prefill fills.
func (e *env) fillSlots() int { return int(fillShare * float64(e.topo.TotalSlots())) }

// setupRounds is how many times a run boots svcd and prefills it; the
// reported set-up time is the median, and the last instance is the one
// the run then measures.
const setupRounds = 9

func (s httpSpec) svcdArgs(dir string) []string {
	args := []string{"-state-dir", dir}
	if !s.fsync {
		args = append(args, "-no-sync")
	}
	return args
}

// instance is one svcd booted on an empty directory and prefilled.
type instance struct {
	d     *svcd
	dir   string
	conn  *svcload.HTTPTarget // the single client's connection
	load  *svcload.Runner
	setup time.Duration // exec to the last prefill reply
}

// bootPrefilled is a run's set-up: exec svcd on an empty state
// directory, then the deterministic single-client prefill.
func (e *env) bootPrefilled(ctx context.Context, res *result, spec httpSpec, prefill []svcload.Op) (*instance, error) {
	inst := &instance{dir: e.dir("state")}
	watch := res.stopwatch()
	var err error
	if inst.d, err = e.startSvcd(ctx, spec.svcdArgs(inst.dir)...); err != nil {
		return nil, err
	}
	inst.conn = svcload.NewHTTPTarget(inst.d.url, 1)
	inst.load = &svcload.Runner{Target: inst.conn}
	inst.load.Sequence(ctx, prefill)
	inst.setup, _ = watch.stop()
	return inst, nil
}

func (i *instance) stop() {
	i.conn.Close()
	i.d.kill()
	os.RemoveAll(i.dir)
}

// runHTTP runs one HTTP workload: set-up (boot and prefill, several
// times), a single-client warm-up whose end state is checked against an
// in-process reference, the open-loop phase, the closed-loop phase, and
// the final state checks.
func runHTTP(ctx context.Context, e *env, name string, seed uint64, seconds float64, trace bool) (*result, error) {
	spec := httpSpecs[name]
	res := newResult()
	if spec.fsync && fsType(e.tmp) == "tmpfs" {
		fmt.Fprintln(os.Stderr, "svcbench: WARNING: state directory is on tmpfs; fsync costs nothing there, so the durable numbers measure no device")
	}

	gen := svcload.NewGen(spec.mix, seed)
	prefill := gen.Prefill(e.fillSlots())
	warm := gen.Take(spec.warmOps)

	// Set-up, several times over; the last instance is the one measured.
	var (
		inst   *instance
		setups []float64
		boots  []float64
	)
	for round := 0; round < setupRounds; round++ {
		if inst != nil {
			inst.stop()
		}
		var err error
		if inst, err = e.bootPrefilled(ctx, res, spec, prefill); err != nil {
			return nil, err
		}
		setups = append(setups, inst.setup.Seconds())
		boots = append(boots, ms(inst.d.boot))
	}
	defer inst.stop()
	d, dir, load := inst.d, inst.dir, inst.load

	// Warm-up: the first requests of the stream from one client. One
	// caller means the outcome depends on the stream alone, so svcd must
	// now hold exactly the state an in-process manager reaches when fed
	// the same requests, and its log grew by an exactly repeatable amount.
	logBefore, err := walBytes(dir)
	if err != nil {
		return nil, err
	}
	st0, err := d.client.Status(ctx)
	if err != nil {
		return nil, fmt.Errorf("status before warm-up: %w", err)
	}
	warmPhase := load.Sequence(ctx, warm)
	st1, err := d.client.Status(ctx)
	if err != nil {
		return nil, fmt.Errorf("status after warm-up: %w", err)
	}
	logAfter, err := walBytes(dir)
	if err != nil {
		return nil, err
	}
	if st1.WAL == nil || st0.WAL == nil || st1.WAL.Gen != st0.WAL.Gen || st1.WAL.Appended <= st0.WAL.Appended {
		res.failf("warm-up: the log rotated or did not grow (status wal %+v -> %+v); log_bytes_per_op needs one generation", st0.WAL, st1.WAL)
	} else {
		res.e2e["log_bytes_per_op"] = float64(logAfter-logBefore) / float64(st1.WAL.Appended-st0.WAL.Appended)
	}

	ref, err := core.NewManager(e.topo, eps)
	if err != nil {
		return nil, err
	}
	refLoad := &svcload.Runner{Target: svcload.ControllerTarget{Ctrl: ref}}
	refLoad.Sequence(ctx, prefill)
	refLoad.Sequence(ctx, warm)
	got, err := d.client.State(ctx)
	if err != nil {
		return nil, fmt.Errorf("state after warm-up: %w", err)
	}
	if !reflect.DeepEqual(&got, ref.ExportState()) {
		res.failf("warm-up: svcd's state differs from the in-process reference fed the same %d requests", len(prefill)+len(warm))
	}
	// With one client no plan is retried, so the warm-up's plan-cache
	// counters show what the request stream alone does to the cache.
	if st0.Admission != nil && st1.Admission != nil {
		warmCache := values{}
		admissionLayers(warmCache, *st0.Admission, *st1.Admission)
		res.checkCache(name, warmCache["core.plan_cache_hit_share"])
	}
	_, _, admits, rejected := load.Tally()
	res.checkGolden(name, seed, golden{Admitted: admits - rejected, Rejected: rejected, MaxOccupancy: st1.MaxOccupancy})

	// The measured phases, from one worker with one connection, in
	// one-second slices with a reference slice between every two. A run
	// that reports the end-to-end metrics spends them all on the closed
	// loop those metrics come from; a traced run has a quarter as many
	// closed-loop slices, an open-loop slice after each, and spends the
	// rest of its time on the in-process probes.
	slices := max(int(measuredShare*seconds), 1)
	if trace {
		slices = max(slices/4, 1)
	}
	conn := svcload.NewHTTPTarget(d.url, workers)
	defer conn.Close()
	load.Target = conn
	clock, err := e.startReference(ctx, res, spec.fsync, seed)
	if err != nil {
		return nil, err
	}
	defer clock.stop()

	open, closed := &svcload.Phase{}, &windowed{primary: spec.primary, clock: clock.time}
	kept := 0 // open-loop slices whose generator kept up
	io0 := d.writeBytes()
	for n := 0; n < slices && ctx.Err() == nil; n++ {
		if err := closed.slice(ctx, load, gen, d.procCPU); err != nil {
			return nil, err
		}
		if !trace {
			continue
		}
		due := svcload.PoissonSchedule(seed+uint64(n+1)<<32, spec.rate, slice)
		var o *svcload.Phase
		o.Scale(clock.time(ctx, func() { o = load.OpenLoop(ctx, gen.Take(len(due)), due, workers) }))
		if svcload.Quantile(o.Late, 0.99) <= 1 && !backlogGrows(o.Backlog) {
			kept++
		}
		open.Add(o)
	}
	rss := d.rssPeakMB()
	io1 := d.writeBytes()
	st2, err := d.client.Status(ctx)
	if err != nil {
		return nil, fmt.Errorf("status after load: %w", err)
	}

	// Final checks on what svcd now holds.
	final, err := d.client.State(ctx)
	if err != nil {
		return nil, fmt.Errorf("state after load: %w", err)
	}
	res.checkState(e, &final, load.Held())
	if st2.RunningJobs != load.Held() {
		res.failf("conservation: svcd runs %d jobs, the generator holds %d", st2.RunningJobs, load.Held())
	}
	res.attempted, res.failed, _, _ = load.Tally()
	for _, f := range load.Failures() {
		res.failf("request failed: %s", f)
	}

	closed.print()
	ops := float64(open.Done + closed.done)
	res.e2e["setup_s"] = svcload.Median(setups)
	res.e2e["ops_s"] = closed.throughput()
	res.e2e["latency_p50_ms"] = svcload.Median(closed.latMs)
	if !trace {
		return res, nil
	}

	// Per-layer numbers this run can see from outside the process.
	l := res.layers
	loadgenLayers(l, open, load)
	l["loadgen.valid"] = float64(kept) / float64(slices)
	l["host.speed"] = res.speed()
	l["host.reference_speed"] = clock.speed()
	l["svcd.boot_ms"] = svcload.Median(boots)
	l["svcd.rss_peak_mb"] = rss
	l["svcd.cpu_us_per_op"] = svcload.Median(closed.cpuPerOp)
	l["svcd.cpu_user_share"] = closed.userShare()
	l["svcd.write_bytes_per_op"] = float64(io1-io0) / ops
	statusLayers(l, st1, st2, ops)

	// The same warm-up requests in process, bare and traced; what the
	// real process took longer for them is the transport.
	tr, err := res.inProcessLayers(ctx, e, name, seed, prefill, warm, spec.fsync, nil)
	if err != nil {
		return nil, err
	}
	l["httpapi.transport_us"] = (svcload.Mean(allLat(warmPhase)) - tr.untracedMeanMs) * 1000
	return res, nil
}

// slice is the length of one stretch of closed loop or open loop.
const slice = time.Second

// measuredShare is the share of --seconds spent in measured slices; the
// reference slices between them and the calibration work take the rest.
const measuredShare = 0.8

// windowed is a closed-loop phase measured slice by slice, so that a
// stall of the sandbox's disk or a neighbour's burst counts for one
// slice and not for the total.
type windowed struct {
	primary []svcload.Kind // the kinds whose latency is the headline
	// clock runs one slice and returns the scale of the clock over it
	clock func(ctx context.Context, run func()) (scale float64)

	opsPerSec []float64 // checked requests per second, per slice
	cpuPerOp  []float64 // processor µs per checked request, per slice
	latMs     []float64 // latency of every request of the primary kinds
	done      int
	user, sys time.Duration // processor time over all slices
}

// slice runs the closed loop for one slice and reads, before and after,
// the processor time of whoever does the work.
func (w *windowed) slice(ctx context.Context, load *svcload.Runner, gen *svcload.Gen,
	cpu func() (user, sys time.Duration, err error)) error {
	var (
		p                        *svcload.Phase
		user0, sys0, user1, sys1 time.Duration
		err0, err1               error
	)
	scale := w.clock(ctx, func() {
		user0, sys0, err0 = cpu()
		p = load.ClosedLoop(ctx, gen, slice, workers)
		user1, sys1, err1 = cpu()
	})
	if err := errors.Join(err0, err1); err != nil {
		return err
	}
	p.Scale(scale)
	if p.Done > 0 {
		w.opsPerSec = append(w.opsPerSec, float64(p.Done)/p.Elapsed.Seconds())
		w.cpuPerOp = append(w.cpuPerOp, scale*float64(user1+sys1-user0-sys0)/float64(time.Microsecond)/float64(p.Done))
	}
	w.user += user1 - user0
	w.sys += sys1 - sys0
	w.latMs = append(w.latMs, p.Pooled(w.primary...)...)
	w.done += p.Done
	return nil
}

// throughput is the phase's requests per second: the mean over the
// slices without the slowest and the fastest tenth of them. The host
// alternates between a fast and a slow state within a run (README,
// "Processor speed"), and over ten recorded runs the median of the slices
// spread up to half again as far as this does.
func (w *windowed) throughput() float64 { return svcload.TrimmedMean(w.opsPerSec, 0.1) }

// print shows how far the slices of one run lie apart.
func (w *windowed) print() {
	fmt.Fprintf(os.Stderr, "   closed-loop slices, requests/s:")
	for _, v := range w.opsPerSec {
		fmt.Fprintf(os.Stderr, " %.0f", v)
	}
	fmt.Fprintf(os.Stderr, "\n   closed-loop latency, ms: p10 %.4f p25 %.4f p50 %.4f p75 %.4f p90 %.4f\n",
		svcload.Quantile(w.latMs, 0.10), svcload.Quantile(w.latMs, 0.25), svcload.Quantile(w.latMs, 0.50),
		svcload.Quantile(w.latMs, 0.75), svcload.Quantile(w.latMs, 0.90))
}

// userShare is user time's share of the processor time.
func (w *windowed) userShare() float64 {
	if w.user+w.sys == 0 {
		return 0
	}
	return float64(w.user) / float64(w.user+w.sys)
}

func allLat(p *svcload.Phase) []float64 {
	return p.Pooled(svcload.KindAdmit, svcload.KindRelease, svcload.KindDryRun,
		svcload.KindStatus, svcload.KindLinks, svcload.KindReplay)
}

// loadgenLayers reports on the generator itself over the open-loop
// phase: how late it dispatched, how far it fell behind, and the tails
// the medians hide.
func loadgenLayers(l values, open *svcload.Phase, load *svcload.Runner) {
	l["loadgen.late_p99_ms"] = svcload.Quantile(open.Late, 0.99)
	l["loadgen.queued_share"] = 1 - float64(len(open.Late))/float64(max(len(open.Backlog), 1))
	maxBacklog := 0
	for _, b := range open.Backlog {
		maxBacklog = max(maxBacklog, b)
	}
	l["loadgen.backlog_max"] = float64(maxBacklog)
	l["loadgen.samples"] = float64(open.Done)
	admit, release := open.Lat[svcload.KindAdmit], open.Lat[svcload.KindRelease]
	read := open.Pooled(svcload.KindDryRun, svcload.KindStatus, svcload.KindLinks)
	l["loadgen.admit_p50_ms"] = svcload.Median(admit)
	l["loadgen.admit_p99_ms"] = svcload.Tail(admit, 0.99)
	l["loadgen.release_p50_ms"] = svcload.Median(release)
	l["loadgen.release_p99_ms"] = svcload.Tail(release, 0.99)
	l["loadgen.read_p50_ms"] = svcload.Median(read)
	l["loadgen.read_p99_ms"] = svcload.Tail(read, 0.99)
	if _, _, admits, rejected := load.Tally(); admits > 0 {
		l["loadgen.rejected_share"] = float64(rejected) / float64(admits)
	}
}

// backlogGrows reports whether the last third of the phase dispatched
// with a clearly deeper backlog than the first third: the sign of an
// offered rate the system cannot sustain.
func backlogGrows(backlog []int) bool {
	if len(backlog) < 30 {
		return false
	}
	mean := func(xs []int) float64 {
		sum := 0
		for _, x := range xs {
			sum += x
		}
		return float64(sum) / float64(len(xs))
	}
	third := len(backlog) / 3
	return mean(backlog[2*third:]) > 2*mean(backlog[:third])+4
}

// statusLayers turns /v1/status counter deltas over the measured phases
// into per-layer ratios.
func statusLayers(l values, before, after httpapi.Status, ops float64) {
	if after.Admission != nil && before.Admission != nil {
		admissionLayers(l, *before.Admission, *after.Admission)
	}
	if after.WAL != nil && before.WAL != nil {
		batches := float64(after.WAL.Batches - before.WAL.Batches)
		records := float64(after.WAL.Records - before.WAL.Records)
		if batches > 0 {
			l["wal.records_per_batch"] = records / batches
		}
		l["wal.max_batch"] = float64(after.WAL.MaxBatch)
		l["wal.fsyncs_per_op"] = batches / ops
		l["wal.checkpoints"] = float64(after.WAL.Gen - before.WAL.Gen)
	}
}

// admissionLayers reports how admissions traveled through core's
// pipeline between two readings of its counters.
func admissionLayers(l values, b, a httpapi.AdmissionStatus) {
	admitted := float64((a.FastPath + a.Revalidated + a.Fallbacks + a.Locked) - (b.FastPath + b.Revalidated + b.Fallbacks + b.Locked))
	if admitted > 0 {
		l["core.fast_path_share"] = float64(a.FastPath-b.FastPath) / admitted
		l["core.conflicts_per_admit"] = float64(a.Conflicts-b.Conflicts) / admitted
		l["core.retries_per_admit"] = float64(a.Retries-b.Retries) / admitted
		l["core.fallbacks_per_admit"] = float64(a.Fallbacks-b.Fallbacks) / admitted
	}
	hits, misses := float64(a.PlanCacheHits-b.PlanCacheHits), float64(a.PlanCacheMisses-b.PlanCacheMisses)
	if hits+misses > 0 {
		l["core.plan_cache_hit_share"] = hits / (hits + misses)
		l["core.plan_cache_invalidations_per_plan"] = float64(a.PlanCacheInvalidations-b.PlanCacheInvalidations) / (hits + misses)
	}
	if plans := float64(a.Plans - b.Plans); plans > 0 {
		l["core.mean_plan_ms"] = (a.MeanPlanMs*float64(a.Plans) - b.MeanPlanMs*float64(b.Plans)) / plans
	}
}

// admissionStatus is the wire form of the manager's own counters, for a
// workload that reads them in process.
func admissionStatus(s core.AdmissionStats) httpapi.AdmissionStatus {
	return httpapi.AdmissionStatus{
		FastPath: s.FastPath, Revalidated: s.Revalidated, Conflicts: s.Conflicts,
		Retries: s.Retries, Fallbacks: s.Fallbacks, Locked: s.Locked,
		Plans: s.Plan.Count, MeanPlanMs: float64(s.Plan.Mean()) / 1e6,
		PlanCacheHits: s.PlanCacheHits, PlanCacheMisses: s.PlanCacheMisses,
		PlanCacheInvalidations: s.PlanCacheInvalidations,
	}
}
