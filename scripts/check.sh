#!/usr/bin/env bash
# Sanitized pre-merge gate: builds with ASan+UBSan and runs the tier1
# test label (fast unit/property/differential tests, including the
# min_load_node differential), then the Serve and contract suites again
# by name.
#
#   scripts/check.sh [build-dir]     # default build-asan
#   scripts/check.sh --tsan [build-dir]
#
# --tsan swaps the sanitizer to ThreadSanitizer (default dir build-tsan)
# and runs the same tests. The partition service is the library's one
# multithreaded component, so TSan checks its client and apply threads.
# TSan cannot be combined with ASan, hence the separate build tree.
set -euo pipefail

MODE=asan
if [[ "${1:-}" == "--tsan" ]]; then
  MODE=tsan
  shift
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

if [[ "$MODE" == "tsan" ]]; then
  BUILD="${1:-build-tsan}"
  SAN_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
else
  BUILD="${1:-build-asan}"
  SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
fi

# Contract suites that both legs run again by name, with --no-tests=error,
# so a filter rename can't silently drop them:
#   * the repack pipeline that feeds the serve apply thread: bucketed-pack
#     equivalence, the CopySet copy stack (unit and large-N oracles) and
#     the plan-delta oracles;
#   * the round-contract pins: a plan lists only movers, MachineState
#     aborts on a self-move, and each step counts a round by its plan's
#     length;
#   * the one task table behind every per-event id lookup: TaskTable's
#     oracle and reserved-id tests, MachineState's swap-remove,
#     TaskSequence::validate and the adversary's id-ordered departures.
# The Test suffixes keep the 2^20 LargeNOracleMachineState out.
CONTRACT_SUITES='Pack|CopySet|ReallocAccounting|ApplyEventTest|MachineState(Death)?Test|TaskTable|SequenceTest|DetAdversaryTest'

cmake -B "$BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
cmake --build "$BUILD" -j "$(nproc)"

if [[ "$MODE" == "tsan" ]]; then
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$BUILD" -L tier1 --output-on-failure -j "$(nproc)"
  # The partition-service differential tests are the load-bearing TSan
  # targets (client threads + apply thread); --no-tests=error makes a
  # registration failure a hard failure, not a silent skip.
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$BUILD" -R 'Serve' --no-tests=error \
      --output-on-failure -j "$(nproc)"
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$BUILD" -R "$CONTRACT_SUITES" \
      --no-tests=error --output-on-failure -j "$(nproc)"
  echo "check.sh: OK (TSan tier1 + serve + repack)"
  exit 0
fi

ctest --test-dir "$BUILD" -L tier1 --output-on-failure -j "$(nproc)"

# tier1 already ran these; --no-tests=error turns "the serve tests were
# filtered out / failed to register" into a hard failure, not a skip.
ctest --test-dir "$BUILD" -R 'Serve' --no-tests=error \
  --output-on-failure -j "$(nproc)"
ctest --test-dir "$BUILD" -R "$CONTRACT_SUITES" \
  --no-tests=error --output-on-failure -j "$(nproc)"

echo "check.sh: OK (ASan/UBSan tier1 + serve + repack)"
