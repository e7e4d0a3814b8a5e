#!/usr/bin/env bash
# Regenerate every experiment table from an existing build.
#
#   cmake -B build -S . && cmake --build build -j
#   scripts/run_all.sh [build-dir]        # default build
#
# Runs the 19 experiment binaries (E1-E13, AB1-AB4, FW1, RW1), each of
# which checks a bound of the paper, and writes their tables to
# bench_output.txt at the repository root. Each must exit 0 and print
# "verdict: PASS", and the count pins the set, so a rename cannot drop an
# experiment silently.
set -euo pipefail
BUILD="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="$ROOT/bench_output.txt"

: > "$OUT"
n=0
for exp in "$BUILD"/bench/e[0-9]* "$BUILD"/bench/ab[0-9]* \
           "$BUILD"/bench/fw1_* "$BUILD"/bench/rw1_*; do
  echo "### $(basename "$exp")" | tee -a "$OUT"
  status=0
  table="$("$exp")" || status=$?
  printf '%s\n' "$table" | tee -a "$OUT"
  if [[ "$status" -ne 0 ]] || ! grep -q '^verdict: PASS' <<<"$table"; then
    echo "run_all.sh: $(basename "$exp") exited $status; each experiment" \
      "must exit 0 and print 'verdict: PASS'" >&2
    exit 1
  fi
  n=$((n + 1))
done
if [[ "$n" -ne 19 ]]; then
  echo "run_all.sh: ran $n experiments, expected 19" >&2
  exit 1
fi
echo "run_all.sh: 19 experiments PASS; tables in $OUT"
