#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command). Builds svcbench
# from this directory's module and runs it with the arguments given:
#
#   bash bench/run.sh --workload durable-churn --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temporary files, binaries and state directories go under
# .bench_build/, trace files under bench/out/.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"

# The benchmark is a module of its own that replaces its parent by path;
# without the parent's go.mod beside it there is nothing to measure.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/svcd" ]]; then
  echo "svcbench: $root holds no go.mod and cmd/svcd: the benchmark runs from a checkout of the repository" >&2
  exit 3
fi

mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off

# Both binaries are built here, on every processor the host offers;
# svcbench then confines itself and its children to one (cmd/svcbench/pin.go).
go build -C "$bench" -o "$build/bin/svcbench" ./cmd/svcbench
go build -C "$root" -o "$build/bin/svcd" ./cmd/svcd
exec "$build/bin/svcbench" -root "$root" "$@"
