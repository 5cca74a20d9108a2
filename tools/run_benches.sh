#!/usr/bin/env bash
# Builds Release and runs the execution-substrate micro benches, then
# rewrites BENCH_groupby.json with the measured throughput (plus speedups
# against the recorded seed baseline) so PRs track the perf trajectory.
# Thread-scaling variants (<bench>Parallel/<threads>) land in a separate
# "parallel_items_per_second" section keyed by thread count, alongside the
# machine's hardware_concurrency so scaling numbers can be read in context.
#
# Single runs on a noisy host swing ±15-25% even on untouched code paths,
# which makes one-shot deltas meaningless; --repeats N runs the whole suite
# N times and records the per-bench MEDIAN across runs (the JSON notes the
# repeat count). Use --repeats 5 or more before trusting any delta.
#
# --filter <regex> forwards a --benchmark_filter to every suite and prints
# the console tables instead of rewriting the JSON — a filtered run measures
# a subset, so recording it would silently overwrite suite-wide medians with
# partial data. Use it to iterate on one bench cheaply, then do a full
# --repeats run before trusting the recorded numbers.
#
# Usage: tools/run_benches.sh [--repeats N] [--filter REGEX] [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-bench
OUT=BENCH_groupby.json
REPEATS=1
FILTER=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --repeats)
      REPEATS="$2"
      shift 2
      ;;
    --repeats=*)
      REPEATS="${1#--repeats=}"
      shift
      ;;
    --filter)
      FILTER="$2"
      shift 2
      ;;
    --filter=*)
      FILTER="${1#--filter=}"
      shift
      ;;
    --*)
      echo "unknown option: $1" >&2
      exit 1
      ;;
    *)
      BUILD_DIR="$1"
      shift
      ;;
  esac
done
if ! [[ "$REPEATS" =~ ^[1-9][0-9]*$ ]]; then
  echo "invalid --repeats value: $REPEATS" >&2
  exit 1
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target bench_micro_groupby bench_micro_sampling bench_micro_storage \
           bench_micro_governance bench_micro_server >/dev/null

if [[ -n "$FILTER" ]]; then
  for bench in bench_micro_groupby bench_micro_sampling bench_micro_storage \
               bench_micro_governance bench_micro_server; do
    echo "--- $bench (filter: $FILTER) ---"
    "$BUILD_DIR/$bench" --benchmark_filter="$FILTER" --benchmark_min_time=1
  done
  echo "filtered run: $OUT left untouched"
  exit 0
fi

TMP_DIR=$(mktemp -d)
trap 'rm -rf "$TMP_DIR"' EXIT

for ((rep = 0; rep < REPEATS; rep++)); do
  [[ "$REPEATS" -gt 1 ]] && echo "--- repeat $((rep + 1))/$REPEATS ---"
  "$BUILD_DIR"/bench_micro_groupby \
    --benchmark_format=json --benchmark_min_time=1 >"$TMP_DIR/groupby_$rep.json"
  "$BUILD_DIR"/bench_micro_sampling \
    --benchmark_format=json >"$TMP_DIR/sampling_$rep.json"
  "$BUILD_DIR"/bench_micro_storage \
    --benchmark_format=json >"$TMP_DIR/storage_$rep.json"
  "$BUILD_DIR"/bench_micro_governance \
    --benchmark_format=json --benchmark_min_time=1 \
    >"$TMP_DIR/governance_$rep.json"
  "$BUILD_DIR"/bench_micro_server \
    --benchmark_format=json >"$TMP_DIR/server_$rep.json"
done

python3 - "$TMP_DIR" "$REPEATS" "$OUT" <<'PY'
import json
import os
import statistics
import subprocess
import sys

tmp_dir, repeats, out_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]

def items_per_second(path):
    with open(path) as f:
        report = json.load(f)
    return {
        b["name"]: b["items_per_second"]
        for b in report["benchmarks"]
        if "items_per_second" in b
    }

# Per-bench median across the repeated runs (both suites merged per run).
runs = []
for rep in range(repeats):
    run = {}
    run.update(items_per_second(os.path.join(tmp_dir, f"groupby_{rep}.json")))
    run.update(items_per_second(os.path.join(tmp_dir, f"sampling_{rep}.json")))
    run.update(items_per_second(os.path.join(tmp_dir, f"storage_{rep}.json")))
    run.update(items_per_second(os.path.join(tmp_dir, f"governance_{rep}.json")))
    run.update(items_per_second(os.path.join(tmp_dir, f"server_{rep}.json")))
    runs.append(run)
measured = {
    name: round(statistics.median(run[name] for run in runs if name in run))
    for name in runs[0]
}
current = {k: v for k, v in measured.items() if "Parallel/" not in k}
parallel = {k: v for k, v in measured.items() if "Parallel/" in k}

try:
    with open(out_path) as f:
        doc = json.load(f)
except FileNotFoundError:
    doc = {}

baseline = doc.get("seed_baseline_items_per_second", {})
doc["description"] = (
    "Throughput (items/s) of the micro group-by/sampling benches, Release "
    "build, 500k-row OpenAQ table. seed_baseline is the pre-GroupIndex "
    "unordered_map<GroupKey, Acc> engine. parallel_items_per_second holds "
    "the thread-scaling variants (<bench>Parallel/<threads>, morsel "
    "scheduler); interpret them against hardware_concurrency. Values are "
    "per-bench medians across `repeats` runs of the whole suite "
    "(single-run host noise is ±15-25%; regenerate with "
    "tools/run_benches.sh --repeats 5). Benches whose work runs on the "
    "pool are timed in wall time (a /real_time key). The six seed-tracked "
    "benches (BM_ExactGroupBy, BM_ExactGroupByWithPredicate, "
    "BM_StratificationBuild, BM_CollectGroupStats, BM_Build_CVOPT, "
    "BM_ApproxQuery), the other BM_Build_* sample builds, and "
    "BM_OutOfCoreGroupBy with BM_InMemoryGroupByBaseline run on one "
    "thread and report the calling thread's CPU time, which is then all "
    "of their work: speedup_vs_seed is a one-thread ratio against the "
    "seed's serial engine. The other single-configuration benches run at "
    "the default thread count and report the calling thread's CPU time, "
    "which understates their cost when the pool does part of the work. "
    "BM_MaskedGroupByRadix vs "
    "BM_MaskedGroupByMerge is the masked partition-slab path against the "
    "pre-SIMD chunk-merge baseline (radix off, scalar kernels) on the same "
    "data, both pinned to an 8-way fan-out (the merge only exists when "
    "aggregation chunks); BM_SelectionVectorSIMD vs ...Scalar isolates the vector "
    "selection kernels (host_cpu records the silicon they dispatched on). "
    "BM_ZoneMapSkipScan vs BM_FlatScanBaseline is the zone-map chunk-skip "
    "path against the same 1%-selectivity clustered scan with pruning "
    "disabled (skip_rate is reported as a bench counter); "
    "BM_OutOfCoreGroupBy streams the mmap-backed v2 file through the "
    "chunked scan vs the resident BM_InMemoryGroupByBaseline, and "
    "BM_OutOfCoreGroupByParallel/<threads> is the same one-pass scan "
    "across the thread ladder (waves of parallel per-chunk decode of the "
    "read columns and group-id lookups in the file's group directory, "
    "then chunk-order accumulation through the shared core) — "
    "bit-identical to the one-thread answer at every fan-out. Both run "
    "with the grouping's group directory already built (the first "
    "iteration builds it), so their 1%-selective query decodes no column "
    "of the 99% of chunks the zone maps refute. "
    "BM_OutOfCoreGroupByFullScanParallel/<threads> is the same ladder "
    "with no WHERE clause, which decodes and looks up every chunk: the "
    "selective ladder decodes ~5 of 489 chunks and so measures pool "
    "hand-off, this one the scan's scaling. "
    "BM_DecodeForVarintChunk/codes:<0|1>/mixed:<0|1> decodes one "
    "4096-row frame-of-reference varint chunk (int64 or dictionary codes; "
    "every delta one byte, the word-at-a-time case, or mixed with about a "
    "third two or three bytes wide), and BM_DirectoryFindBatch/"
    "selected_pct:<100|30> looks up one 4096-row chunk's group ids in a "
    "direct-tier group directory (12 packed key bits), over the whole chunk "
    "or an ascending 30% selection: the out-of-core scan's two per-row "
    "kernels, on one thread. "
    "BM_AdaptiveGroupByHugeG is a whole exact AVG group-by at huge "
    "cardinality: a 3M-row two-int-key table with ~2.7M distinct groups "
    "(24 packed key bits), whose packed-tier GroupIndex build takes the "
    "radix path (partitioned and hash-probed per partition), then the "
    "accumulation and the columnar result (key codes, no labels "
    "rendered); "
    "BM_AdaptiveGroupBySmallG is the ~2k-group control on the same tier, "
    "which takes the chunk-merge path (the realized group count is "
    "reported as a bench counter); the masked and adaptive pairs run on "
    "an 8-thread pool, hence wall time. BM_StratificationBuildIntKey is "
    "BM_StratificationBuild over the int-keyed (parameter, year) grouping, "
    "whose year range the direct tier reads off the zone maps. "
    "BM_DrawStratified is the stratified draw alone over a prebuilt "
    "stratification and allocation, on one thread (the draw does not use "
    "the pool). BM_GroupStatsParallel/<threads> "
    "is CollectGroupStats across the thread ladder (its statistics are "
    "bit-identical at every fan-out). "
    "BM_ExactGroupByGoverned vs BM_ExactGroupByUngoverned is the same "
    "group-by under a permissive QueryContext (deadline + budget checks at "
    "morsel boundaries) vs no governance; BM_GovernanceCheck and "
    "BM_FailpointInactive bound the per-checkpoint substrate cost. "
    "BM_Server* are full client round trips (queries/s, not rows/s, timed "
    "in wall time) through a live AqpServer over an AF_UNIX socket: "
    "BM_ServerCatalogHit answers "
    "from the warm shared sample, BM_ServerSampleBuild pays the catalog "
    "miss (stratified-sample build) every iteration, BM_ServerExact runs "
    "the exact engine over the 500k-row base table, and "
    "BM_ServerCatalogHitParallel/<threads> is aggregate throughput with "
    "one connection per benchmark thread."
    " (BM_ServerCatalogHit and the BM_ServerCatalogHitParallel ladder "
    "hold the change's medians of 10 alternating parent/change pairs, "
    "--benchmark_min_time=1, taken when each batch began executing on "
    "its connection's reader thread under the server's 4 execution "
    "slots instead of passing through a request queue to pipeline "
    "workers; threads:8 has more connections than slots, so its batches "
    "wait for a slot: BM_ServerCatalogHit 12.0k -> 13.6k queries/s "
    "(10/10 wins), threads:2 23.4k -> 27.1k (10/10), threads:4 33.5k -> "
    "61.6k (10/10), threads:8 47.8k -> 46.8k (2/10; run alone, 10 pairs "
    "at --benchmark_min_time=2 read 46.6k -> 50.2k, 7/10), so threads:8 "
    "is within noise)"
)
# The commit measured; "-dirty" marks numbers taken from uncommitted
# changes on top of it.
commit = subprocess.run(
    ["git", "describe", "--always", "--dirty"], capture_output=True, text=True
)
doc["commit"] = commit.stdout.strip() or "unknown"
doc["repeats"] = repeats
doc["hardware_concurrency"] = os.cpu_count() or 1

# Host CPU identity: throughput numbers (and especially the SIMD-vs-scalar
# gaps) are only comparable across runs on the same silicon, so record the
# model and the vector ISAs the kernels can dispatch to.
def host_cpu():
    info = {"arch": os.uname().machine, "model": "unknown", "simd": []}
    try:
        with open("/proc/cpuinfo") as f:
            flags = set()
            for line in f:
                key, _, val = line.partition(":")
                key, val = key.strip(), val.strip()
                if key in ("model name", "Model") and info["model"] == "unknown":
                    info["model"] = val
                elif key in ("flags", "Features"):
                    flags.update(val.split())
            info["simd"] = sorted(
                f for f in ("sse4_2", "avx", "avx2", "avx512f", "asimd", "neon")
                if f in flags
            )
    except OSError:
        pass
    return info

doc["host_cpu"] = host_cpu()
doc["current_items_per_second"] = current
def parallel_key(name):
    # "BM_Foo Parallel/<threads>[/real_time]" -> (bench, thread count)
    digits = [p for p in name.split("/") if p.isdigit()]
    return (name.split("/")[0], int(digits[0]) if digits else 0)

doc["parallel_items_per_second"] = dict(
    sorted(parallel.items(), key=lambda kv: parallel_key(kv[0]))
)
if baseline:
    doc["speedup_vs_seed"] = {
        name: round(current[name] / baseline[name], 2)
        for name in sorted(baseline)
        if name in current and baseline[name]
    }
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out_path}  (repeats={repeats}, "
      f"hardware_concurrency={doc['hardware_concurrency']})")
for name in sorted(current):
    base = baseline.get(name)
    speed = f"  ({current[name] / base:.2f}x vs seed)" if base else ""
    print(f"  {name}: {current[name]:,} items/s{speed}")
for name in doc["parallel_items_per_second"]:
    print(f"  {name}: {parallel[name]:,} items/s")
PY
