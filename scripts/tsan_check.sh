#!/usr/bin/env bash
# ThreadSanitizer check for the sharded JIT, the parallel eager closure,
# the eager dispatch-table build (test_dispatch: its shards build as pool
# tasks), parallel trials (test_parallel_epochs runs serial batched trials
# fanned out over the pool) and the process-wide executor: configure a TSan
# build tree (CMAKE_BUILD_TYPE=TSan, see CMakeLists.txt), build the
# concurrency-sensitive test binaries, and run them under the race
# detector.  Registered as the tier-2 ctest target `tsan_concurrency` and
# run by the tier-2 CI job (.github/workflows/ci.yml); also runnable by
# hand:
#
#   scripts/tsan_check.sh [build-dir]     # default: ./build-tsan
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-${POPS_TSAN_BUILD_DIR:-build-tsan}}"
TARGETS=(test_executor test_lazy_compile test_jit_concurrency test_trials
         test_parallel_epochs test_dispatch)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=TSan
cmake --build "$BUILD_DIR" -j --target "${TARGETS[@]}"

# halt_on_error keeps a first race from scrolling away under gtest output;
# second_deadlock_stack improves lock-order reports from the sharded mutexes.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"
for t in "${TARGETS[@]}"; do
  if [[ "$t" == test_parallel_epochs ]]; then
    # The width-invariance tests assert per-seed bit-identical batched runs
    # while sweeping the executor width internally; run them under each
    # default width too, so the pool the other fixtures inherit is also
    # exercised.
    for w in 1 2 8; do
      echo "== tsan: $t (POPS_THREADS=$w)"
      POPS_THREADS=$w "$BUILD_DIR/$t"
    done
  else
    echo "== tsan: $t"
    "$BUILD_DIR/$t"
  fi
done
echo "tsan_check: no races reported"
