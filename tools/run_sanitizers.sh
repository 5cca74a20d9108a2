#!/usr/bin/env bash
# Builds the sanitizer configurations and runs the full ctest suite under
# each.
#
# Pass 1 — ASan+UBSan: the guard rail for the predicate engine's contracts
# (NaN-free strict weak orderings in IN-list sorting, in-bounds raw-span
# column access, overflow-free int64 range kernels) and for the v2 table
# file reader — tests/table_io_fuzz_test.cc sweeps every truncation and
# byte-flip of a chunked file through MappedTable::Open / GetChunk /
# ReadTableFile, and this pass is what turns "clean Status" into "no
# out-of-bounds read, ever". Run before merging changes to src/expr/ or
# src/table/.
#
# Pass 2 — TSan: the guard rail for the parallel execution engine
# (chunk-disjoint writes in the executors, the GroupIndex build and the
# statistics pass, the thread pool's batch handshake, plan-cache locking). The suite runs with CVOPT_THREADS=4 so every morsel
# path actually fans out even on small machines. Run before merging changes
# to src/exec/parallel.* or any code called from inside ParallelFor.
#
# Both passes run the FULL ctest suite, including the "slow"-labelled
# statistical sampling tests — the chi-square draws hammer the stratified
# draw and the statistics pass under it, which is exactly what the
# sanitizers should see.
#
# Usage: tools/run_sanitizers.sh [--asan-only|--tsan-only]
#                                [asan-build-dir] [tsan-build-dir]
# --asan-only / --tsan-only run a single pass (CI splits the two passes
# into separate jobs; the default runs both).
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_ASAN=1
RUN_TSAN=1
DIRS=()
for arg in "$@"; do
  case "$arg" in
    --asan-only) RUN_TSAN=0 ;;
    --tsan-only) RUN_ASAN=0 ;;
    *) DIRS+=("$arg") ;;
  esac
done
if [[ "$RUN_ASAN" == "0" && "$RUN_TSAN" == "0" ]]; then
  echo "--asan-only and --tsan-only are mutually exclusive" >&2
  exit 1
fi
ASAN_DIR=${DIRS[0]:-build-asan}
TSAN_DIR=${DIRS[1]:-build-tsan}

if [[ "$RUN_ASAN" == "1" ]]; then
  echo "=== ASan+UBSan pass (${ASAN_DIR}) ==="
  cmake -B "$ASAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCVOPT_SANITIZE=ON >/dev/null
  cmake --build "$ASAN_DIR" -j"$(nproc)"
  (
    cd "$ASAN_DIR"
    UBSAN_OPTIONS=print_stacktrace=1 ASAN_OPTIONS=detect_leaks=1 \
      ctest --output-on-failure -j"$(nproc)"
  )
fi

if [[ "$RUN_TSAN" == "1" ]]; then
  echo "=== TSan pass (${TSAN_DIR}, CVOPT_THREADS=4) ==="
  cmake -B "$TSAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCVOPT_TSAN=ON >/dev/null
  cmake --build "$TSAN_DIR" -j"$(nproc)"
  (
    cd "$TSAN_DIR"
    CVOPT_THREADS=4 TSAN_OPTIONS=halt_on_error=1 \
      ctest --output-on-failure -j"$(nproc)"
  )
fi

echo "sanitizers green"
