package main

// metricDef is one named metric. BENCHMARK.json lists the same names,
// units and directions; a test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; what each means per workload is in the
// README's table. Medians, measured with tracing off.
//
// The bounds are as wide as the contract allows for everything timed:
// the reference host's processor speed itself moves by a quarter within
// seconds (README, "Baseline"), and a bound tighter than the
// measurement's own spread would reject unchanged code. The log's size
// is a count; its bound covers how much it varies between seeds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"log_bytes_per_op", "B", "lower", 0.15},
}

// perLayer are the metrics of single layers, named after the repo's
// modules. A workload reports 0 for a metric it has no way to observe.
var perLayer = []metricDef{
	// host: the processor's speed over the run, as a share of the
	// reference speed every timed metric is scaled to (speed.go).
	{Name: "host.speed", Unit: "ratio", Better: "higher"},
	{Name: "host.reference_speed", Unit: "ratio", Better: "higher"},
	// loadgen: the generator itself, open-loop phase.
	{Name: "loadgen.valid", Unit: "ratio", Better: "higher"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.queued_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.backlog_max", Unit: "count", Better: "lower"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.admit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.admit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.release_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.release_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.rejected_share", Unit: "ratio", Better: "lower"},
	// svcd: the child process, from /proc and its exec-to-ready time.
	{Name: "svcd.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "svcd.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "svcd.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "svcd.cpu_user_share", Unit: "ratio", Better: "higher"},
	{Name: "svcd.write_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "svcd.recover_log_ms", Unit: "ms", Better: "lower"},
	{Name: "svcd.recover_snap_ms", Unit: "ms", Better: "lower"},
	// httpapi: traced in process, and the real-process difference.
	{Name: "httpapi.handle_self_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.req_bytes", Unit: "B", Better: "lower"},
	{Name: "httpapi.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "httpapi.transport_us", Unit: "us", Better: "lower"},
	// core: traced at the Controller seam, called directly, and from
	// /v1/status counter deltas.
	{Name: "core.admit_self_us", Unit: "us", Better: "lower"},
	{Name: "core.release_self_us", Unit: "us", Better: "lower"},
	{Name: "core.dryrun_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_cold_homog_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_hetero_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_warm_homog_us", Unit: "us", Better: "lower"},
	{Name: "core.snapshot_clone_us", Unit: "us", Better: "lower"},
	{Name: "core.snapshot_clone_kb", Unit: "KB", Better: "lower"},
	{Name: "core.admit_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "core.admit_allocs", Unit: "count", Better: "lower"},
	{Name: "core.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "core.export_state_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fail_repair_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fast_path_share", Unit: "ratio", Better: "higher"},
	{Name: "core.conflicts_per_admit", Unit: "count", Better: "lower"},
	{Name: "core.retries_per_admit", Unit: "count", Better: "lower"},
	{Name: "core.fallbacks_per_admit", Unit: "count", Better: "lower"},
	{Name: "core.plan_cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "core.plan_cache_invalidations_per_plan", Unit: "count", Better: "lower"},
	{Name: "core.mean_plan_ms", Unit: "ms", Better: "lower"},
	// wal: traced at the AsyncJournal seam, called directly, and from
	// /v1/status counter deltas.
	{Name: "wal.stage_us", Unit: "us", Better: "lower"},
	{Name: "wal.commit_wait_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_nosync_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_fsync_us", Unit: "us", Better: "lower"},
	{Name: "wal.scan_us_per_record", Unit: "us", Better: "lower"},
	{Name: "wal.replay_us_per_record", Unit: "us", Better: "lower"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.snapshot_load_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.snapshot_bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "wal.records_per_batch", Unit: "count", Better: "higher"},
	{Name: "wal.max_batch", Unit: "count", Better: "higher"},
	{Name: "wal.fsyncs_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower"},
	// replica, shard, topology: called directly.
	{Name: "replica.catchup_records_s", Unit: "1/s", Better: "higher"},
	{Name: "replica.promote_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.failover_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.open_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.admit_us", Unit: "us", Better: "lower"},
	{Name: "shard.admit_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "topology.build_ms", Unit: "ms", Better: "lower"},
	// trace: the tracer checking itself.
	{Name: "trace.span_sum_over_e2e", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// values maps metric names to measurements.
type values map[string]float64

func (v values) merge(w values) {
	for k, x := range w {
		v[k] = x
	}
}
