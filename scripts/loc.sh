#!/usr/bin/env bash
# loc.sh — non-test Go lines (wc -l: code, comments and blanks) in the
# control-plane packages whose size ROADMAP.md and CHANGES.md track.
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for pkg in core wal shard replica httpapi; do
  n=$(find "internal/$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
  printf '%-18s %6d\n' "internal/$pkg" "$n"
  total=$((total + n))
done
printf '%-18s %6d\n' total "$total"
