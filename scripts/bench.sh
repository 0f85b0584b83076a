#!/usr/bin/env bash
# bench.sh — run the benchmark suite and write the results as JSON, the
# perf trajectory across PRs (one BENCH_pr<N>.json per PR).
#
#   scripts/bench.sh                 # -> BENCH_pr<N>.json, N from git
#   PR=7 scripts/bench.sh            # -> BENCH_pr7.json
#   OUT=custom.json scripts/bench.sh
#   BENCH='AllocateHomog' BENCHTIME=50x scripts/bench.sh
#
# BENCH      benchmark regexp           (default: the full suite, -bench=.)
# BENCHTIME  go -benchtime value        (default: 100ms — keeps the
#            experiment-replay benchmarks to a couple of iterations while
#            still giving the micro benchmarks thousands)
# PR         PR number for the default output name (default: the number of
#            "PR N:" merge commits on the current branch, so each landed PR
#            gets the next file automatically)
# OUT        output file                (default: BENCH_pr${PR}.json)
# PARENT     a commit to compare the working tree against end to end with
#            svcbench (bench/run.sh): `-repeat 10` on both sides plus PAIRS
#            alternating single runs of WORKLOAD, and cell by cell on
#            BenchmarkAdmissionThroughput (five fresh processes a side,
#            alternating). Adds "host", "e2e", "layers" and
#            "admission_grid" to the output. About 1.5 h; off when unset.
# WORKLOAD   the workload the pairs run      (default: plan-miss)
# PAIRS      number of alternating pairs     (default: 10)
# LAYERS     regexp of the per-layer metrics kept in "layers"
# WORK       scratch directory for the two checkouts (default: mktemp -d)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${BENCH:-.}"
BENCHTIME="${BENCHTIME:-100ms}"
if [ -z "${PR:-}" ]; then
    PR=$(git log --oneline 2>/dev/null | grep -c '^[0-9a-f]* PR [0-9]*:' || true)
    [ "$PR" -gt 0 ] 2>/dev/null || PR=0
fi
OUT="${OUT:-BENCH_pr${PR}.json}"

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run='^$' -bench="$BENCH" -benchmem -benchtime="$BENCHTIME" . | tee "$raw"

# Parse `BenchmarkName-P  iters  X ns/op  Y B/op  Z allocs/op [extra metrics]`
# lines into a JSON array.
awk -v host="$(go env GOOS)/$(go env GOARCH)" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    iters = $2
    ns = ""; bytes = ""; allocs = ""; extras = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns = $i
        else if ($(i+1) == "B/op")      bytes = $i
        else if ($(i+1) == "allocs/op") allocs = $i
        else if ($(i+1) ~ /\//) {
            metric = $(i+1); gsub(/"/, "", metric)
            extras = extras sprintf("%s\"%s\": %s", (extras == "" ? "" : ", "), metric, $i)
        }
    }
    line = sprintf("  {\"name\": \"%s\", \"iterations\": %s", name, iters)
    if (ns != "")     line = line sprintf(", \"ns_per_op\": %s", ns)
    if (bytes != "")  line = line sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
    if (extras != "") line = line sprintf(", %s", extras)
    line = line "}"
    out[n++] = line
}
END {
    printf "{\n\"platform\": \"%s\",\n\"benchmarks\": [\n", host
    for (i = 0; i < n; i++) printf "%s%s\n", out[i], (i < n-1 ? "," : "")
    print "]\n}"
}' "$raw" > "$OUT"

echo "wrote $OUT"

# End-to-end comparison against PARENT: both sides are copied into clean
# directories side by side, so neither run sees the other's build cache
# or state, and svcbench builds what it measures from each copy.
if [ -n "${PARENT:-}" ]; then
    WORKLOAD="${WORKLOAD:-plan-miss}"
    PAIRS="${PAIRS:-10}"
    LAYERS="${LAYERS:-^(core\\.(mean_plan_ms|fail_repair_ms|admit_(self_us|alloc_kb|allocs)|alloc_kb_per_op|plan_(cold_homog|hetero|warm_homog)_us)|svcd\\.(cpu_us_per_op|rss_peak_mb)|wal\\.|httpapi\\.|trace\\.span_sum_over_e2e)}"
    work="${WORK:-$(mktemp -d)}"
    mkdir -p "$work/parent" "$work/change"
    git archive "$PARENT" | tar -x -C "$work/parent"
    git ls-files -co --exclude-standard -z | tar -c --null -T - | tar -x -C "$work/change"

    for side in parent change; do
        echo "==> svcbench -repeat 10 on $side"
        # svcbench exits non-zero when any run fails one of its own checks
        # (the traced runs' self-time sum is noisy on a small host) but still
        # writes the baseline; keep going and leave the verdict in the log.
        bash "$work/$side/bench/run.sh" -repeat 10 -out "$work/$side.json" > "$work/$side.log" ||
            echo "bench.sh: svcbench reported failed checks on $side (grep 'CHECK FAILED' above; table in $work/$side.log)" >&2
        [ -s "$work/$side.json" ]
    done

    # Alternating pairs, the side that runs first swapping every pair;
    # the last stdout line of a run is its result.
    : > "$work/pairs.jsonl"
    for i in $(seq 1 "$PAIRS"); do
        order="parent change"; [ $((i % 2)) -eq 0 ] && order="change parent"
        for side in $order; do
            echo "==> pair $i: $WORKLOAD on $side (seed $i)"
            bash "$work/$side/bench/run.sh" --workload "$WORKLOAD" --seed "$i" --seconds 20 --trace 0 \
                | tail -n1 > "$work/run.json"
            jq -c --arg side "$side" --argjson pair "$i" --arg first "${order%% *}" \
                '{pair: $pair, first: $first, side: $side, correct, attempted, failed} + (.metrics | map_values(.value))' \
                "$work/run.json" >> "$work/pairs.jsonl"
        done
    done

    # The admission grid, cell by cell: one test binary per side, every
    # run a fresh process over that side's whole grid, the side that runs
    # first swapping every run. Cells are keyed by the names each side's
    # benchmark prints, so a column only one side has stays visible.
    for side in parent change; do
        (cd "$work/$side" && go test -c -o "$work/$side.test" .)
    done
    : > "$work/grid.jsonl"
    for i in 1 2 3 4 5; do
        order="parent change"; [ $((i % 2)) -eq 0 ] && order="change parent"
        for side in $order; do
            echo "==> admission grid run $i on $side"
            (cd "$work/$side" && "$work/$side.test" -test.run '^$' -test.bench BenchmarkAdmissionThroughput \
                -test.benchtime 1s -test.benchmem -test.timeout 30m) \
                | awk -v side="$side" -v run="$i" '/^BenchmarkAdmissionThroughput/ {
                    name = $1; sub(/^BenchmarkAdmissionThroughput\//, "", name); sub(/-[0-9]+$/, "", name)
                    for (i = 3; i < NF; i++) {
                        if ($(i+1) == "ops/s") ops = $i
                        else if ($(i+1) == "B/op") bytes = $i
                        else if ($(i+1) == "allocs/op") allocs = $i
                    }
                    printf "{\"side\": \"%s\", \"run\": %d, \"cell\": \"%s\", \"ops_s\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}\n",
                           side, run, name, ops, bytes, allocs
                }' >> "$work/grid.jsonl"
        done
    done

    jq -n --slurpfile bench "$OUT" --slurpfile parent "$work/parent.json" --slurpfile change "$work/change.json" \
        --slurpfile runs "$work/pairs.jsonl" --slurpfile grid "$work/grid.jsonl" \
        --arg workload "$WORKLOAD" --arg layers "$LAYERS" \
        --arg parentRev "$(git rev-parse --short "$PARENT")" --arg changeRev "$(git describe --always --dirty)" '
        def median: sort | if length % 2 == 1 then .[length/2|floor] else (.[length/2-1] + .[length/2]) / 2 end;
        def keep: with_entries(.value |= with_entries(select(.key | test($layers))));
        ($runs | group_by(.pair) | map({pair: .[0].pair, first: .[0].first,
            parent: (map(select(.side == "parent"))[0] | del(.pair, .first, .side)),
            change: (map(select(.side == "change"))[0] | del(.pair, .first, .side))})) as $pairs
        | $bench[0] + {
            host: $change[0].host,
            commits: {parent: $parentRev, change: $changeRev},
            e2e: {
                repeat10: {seeds: $change[0].seeds, seconds: $change[0].seconds,
                           parent: $parent[0].e2e, change: $change[0].e2e},
                pairs: {workload: $workload, runs: $pairs,
                        ops_s: {parent_median: ($pairs | map(.parent.ops_s) | median),
                                change_median: ($pairs | map(.change.ops_s) | median),
                                change_wins: ($pairs | map(select(.change.ops_s > .parent.ops_s)) | length),
                                of: ($pairs | length)}}
            },
            layers: {parent: ($parent[0].layers | keep), change: ($change[0].layers | keep)},
            admission_grid: {
                benchtime: "1s", fresh_processes_per_side: 5,
                median_ops_s: ($grid | group_by(.side) | map({key: .[0].side, value:
                    (group_by(.cell) | map({key: .[0].cell, value: (map(.ops_s) | median)}) | from_entries)}) | from_entries),
                runs: $grid
            }
        }' > "$OUT.tmp"
    mv "$OUT.tmp" "$OUT"
    echo "added host, e2e, layers and admission_grid to $OUT (checkouts and logs in $work)"
fi

# Sharding: every cell's router/unsharded ratio on the same K-pod tree,
# printed; asserted (skipped when the cells are not in this run) only at
# shards=1, where the router must stay within noise (>= 0.75x) of the
# unsharded manager per sync mode — routing must be free when every
# admission is pod-local.
awk '
/^BenchmarkSharded/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    for (i = 3; i < NF; i++) if ($(i+1) == "ops/s") ops[name] = $i
}
END {
    fails = 0
    split("1 2 4 8", counts, " ")
    split("fsync nosync", modes, " ")
    for (c = 1; c <= 4; c++) for (m = 1; m <= 2; m++) {
        cell = "shards=" counts[c] "/" modes[m]
        router = ops["BenchmarkShardedAdmission/" cell]
        base   = ops["BenchmarkShardedBaseline/" cell]
        if (router > 0 && base > 0) {
            ratio = router / base
            verdict = ""
            if (counts[c] == 1) { verdict = (ratio >= 0.75 ? " ok (want >= 0.75)" : " FAIL (want >= 0.75)"); if (ratio < 0.75) fails++ }
            printf "router vs unsharded [%s]: %.0f vs %.0f ops/s (%.2fx)%s\n", cell, router, base, ratio, verdict
        }
    }
    exit fails
}' "$raw" || { echo "bench.sh: sharding assertion failed" >&2; exit 1; }

# svclint must stay usable as a pre-commit gate: the whole-program call
# graph plus the full analyzer suite over the module in under 60s.
echo "==> timing svclint ./... (budget 60s)"
lint_start=$(date +%s)
go run ./cmd/svclint ./...
lint_elapsed=$(( $(date +%s) - lint_start ))
echo "svclint ./... took ${lint_elapsed}s"
if [ "$lint_elapsed" -gt 60 ]; then
    echo "bench.sh: svclint exceeded its 60s budget (${lint_elapsed}s)" >&2
    exit 1
fi
