#!/usr/bin/env bash
# loc.sh — non-test Go lines (wc -l: code, comments and blanks) in the
# control-plane packages whose size ROADMAP.md and CHANGES.md track, then
# — outside the total — the node assembly, the scenario runner and the
# svclint analyzers (internal/analysis with its subpackages, testdata
# excluded), so code moved out of the five cannot hide growth there and
# the lint suite's size shows beside the code it guards. The five-package
# total has a budget: growth past it fails the script (and with it
# scripts/check.sh and CI's `make loc` step), so raising it is an edit a
# reviewer sees. Lower it when a PR shrinks the total.
set -euo pipefail
budget=9860 # +95 (from 9765): the homogeneous DP's per-request capacity bound (homogTable.capBound with its capMemo table, setHostTop and the static dpRec.top that layout sums, the skip in settle and its boundKernel parameter, the sampled -tags invariants check in compute with allocTop), and the memo cleared in the loops layout and syncEpoch already run
cd "$(dirname "$0")/.."
lines() { find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; }
total=0
for pkg in core wal shard replica httpapi; do
  n=$(lines "internal/$pkg")
  printf '%-18s %6d\n' "internal/$pkg" "$n"
  total=$((total + n))
done
printf '%-18s %6d\n' total "$total"
for dir in cmd/svcd internal/daemon internal/scenario; do
  printf '%-18s %6d\n' "$dir" "$(lines "$dir")"
done
printf '%-18s %6d\n' internal/analysis \
  "$(find internal/analysis -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)"
if [ "$total" -gt "$budget" ]; then
  echo "loc.sh: the five-package total $total is over the budget of $budget (scripts/loc.sh)" >&2
  exit 1
fi
