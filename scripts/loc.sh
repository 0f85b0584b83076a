#!/usr/bin/env bash
# loc.sh — non-test Go lines (wc -l: code, comments and blanks) in the
# control-plane packages whose size ROADMAP.md and CHANGES.md track, then
# — outside the total — the node assembly and the scenario runner, so
# code moved out of the five cannot hide growth there. The five-package
# total has a budget: growth past it fails the script (and with it
# scripts/check.sh and CI's `make loc` step), so raising it is an edit a
# reviewer sees. Lower it when a PR shrinks the total.
set -euo pipefail
budget=9705 # -1032 (from 10737): the sharded router keeps one mode (strict mode, its shadow, two-phase commit and the intent log gone)
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
if [ "$total" -gt "$budget" ]; then
  echo "loc.sh: the five-package total $total is over the budget of $budget (scripts/loc.sh)" >&2
  exit 1
fi
