#!/usr/bin/env bash
# check.sh — the repo's verification gate: vet, project lint (svclint),
# build, race-enabled tests, and a race storm with runtime invariant
# assertions compiled in.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> svclint ./... (project invariant analyzers, incl. the v2 whole-program quartet: lockorder, durabilitycheck, errflow, goroutinelife)"
go run ./cmd/svclint ./...

# The same suite through go vet's unitchecker protocol: one package per
# process with a degraded single-package graph — both modes must be
# clean (see docs/INVARIANTS.md, escape hatches).
echo "==> go vet -vettool=svclint ./... (unitchecker mode)"
svclint_bin=$(mktemp /tmp/svclint.XXXXXX)
trap 'rm -f "$svclint_bin"' EXIT
go build -o "$svclint_bin" ./cmd/svclint
go vet -vettool="$svclint_bin" ./...

# Optional external linters: used when the toolchain is present, never
# a hard dependency of the gate (offline/container builds lack them).
if command -v staticcheck >/dev/null 2>&1; then
  echo "==> staticcheck ./..."
  staticcheck ./...
else
  echo "==> staticcheck not installed; skipping"
fi
if command -v govulncheck >/dev/null 2>&1; then
  echo "==> govulncheck ./..."
  govulncheck ./...
else
  echo "==> govulncheck not installed; skipping"
fi

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# bench/ is its own module (repro/bench) compiled against this module's
# internal packages, so nothing above sees a change that breaks svcbench.
echo "==> bench module: go vet + go test"
(cd bench && go vet ./... && go test ./...)

# The storm test under -tags invariants additionally asserts Eq. 4
# occupancy after every commit and staging-order == log-order in the
# WAL's group commit (see docs/INVARIANTS.md); its reader dry-runs the
# admitted shapes beside the writers, so a plan-cache access outside the
# manager lock is a race report (I5). Three rounds: the interleaving in
# which a repair evicts a job is roughly one in ten.
echo "==> go test -race -tags invariants (storm with a reader x3 + wal)"
go test -race -tags invariants -run 'TestAdmissionStormInvariants$' -count 3 ./internal/core/
go test -race -tags invariants ./internal/wal/

# The sharded router under the same tag: every pod's Eq. 4 assertion
# after each admission and moved repair, through every test in the
# package — the one-pod oracle (I10), the fault-and-repair storm and the
# idempotency contract table included.
echo "==> go test -race -tags invariants ./internal/shard/"
go test -race -tags invariants ./internal/shard/

# Promotion adopts the follower manager and its mirror after a byte check
# (INVARIANTS.md I9); the full recover-and-compare at promotion is compiled
# in only under this tag, so the packages that promote — every chaos
# boundary, differential and failover test in them — run with it.
echo "==> go test -race -tags invariants ./internal/replica/ ./internal/daemon/"
go test -race -tags invariants ./internal/replica/ ./internal/daemon/

# The whole core package with every sampled check compiled in (cached-plan
# recomputes, Eq. 4 after each commit); its allocation bounds say what the
# tag adds.
echo "==> go test -tags invariants ./internal/core/"
go test -tags invariants ./internal/core/

# The homogeneous combine against its pre-trim reference (h outside, e
# inside, every cell up to the static caps) on arbitrary rows: the two
# loop orders must leave the same bits and the same choices.
echo "==> fuzz smoke (FuzzHomogCombine, 10s)"
go test -run '^$' -fuzz FuzzHomogCombine -fuzztime 10s ./internal/core/

# Client smoke: the retry schedule (a free first pass over the endpoints,
# then backoff) and rotateFrom's rule that concurrent failures on one
# endpoint rotate once, which only an interleaving can break.
echo "==> client smoke (-race, TestClient* x3)"
go test -race -count 3 -run 'TestClient' ./internal/httpapi/

# Recovery smoke: a cold start over both record mixes, over svcbench's
# 100 000-record directory L (its log takes about a second to write) and
# from a snapshot, a standby's promotion, and the record codec alone (see
# bench_wal_test.go, internal/wal/record_test.go).
echo "==> recovery smoke (BenchmarkRecover, BenchmarkPromote, BenchmarkRecordCodec, 3 iterations)"
go test -run '^$' -bench 'BenchmarkRecover|BenchmarkPromote|BenchmarkRecordCodec' -benchtime 3x . ./internal/wal/

# Fuzz smoke: the decoder a crafted or damaged snapshot reaches first,
# and replay, the loop every log record goes through, against its
# fresh-decode oracle. (CI's fuzz-smoke job runs every target in the tree
# for 20 s each.)
echo "==> fuzz smoke (FuzzSnapshotDecode, FuzzWALDecode, 10s each)"
go test -run '^$' -fuzz '^FuzzSnapshotDecode$' -fuzztime 10s ./internal/wal/
go test -run '^$' -fuzz '^FuzzWALDecode$' -fuzztime 10s ./internal/wal/

# internal/wal reaches the file system through wal/dir.go and nowhere
# else, so injecting one (ROADMAP item 3, step 1) is a change to that
# file: outside it only the os.ErrNotExist sentinel and the *os.File type
# may be named.
echo "==> internal/wal: os calls in dir.go only"
if grep -n '\bos\.[A-Z]' $(ls internal/wal/*.go | grep -v -e '_test\.go$' -e '/dir\.go$') | grep -v -e 'os\.ErrNotExist' -e '\*os\.File'; then
  echo "check.sh: internal/wal calls the os package outside dir.go (route it through a stateDir helper)" >&2
  exit 1
fi

echo "==> size (scripts/loc.sh: non-test Go lines)"
bash scripts/loc.sh

echo "OK"
