// Micro-benchmarks for the chunked storage layer: zone-map chunk skipping
// against the flat-scan baseline (the skip rate is reported as a counter),
// and the out-of-core group-by over an mmap-backed v2 file against the
// in-memory executor on the same data.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/bench_threading.h"
#include "src/exec/chunked_scan.h"
#include "src/exec/group_by_executor.h"
#include "src/expr/compiled_predicate.h"
#include "src/table/mapped_table.h"
#include "src/table/table_builder.h"
#include "src/table/table_io.h"
#include "src/util/rng.h"

namespace cvopt {
namespace {

constexpr size_t kRows = 2'000'000;

// Clustered layout: `t` ascending (the natural layout of ingest-ordered
// data), `sensor` in long runs, `value` Gaussian. A narrow `t` range is the
// 1%-selectivity probe the zone maps are built for.
const Table& StorageBenchTable() {
  static const Table* table = [] {
    Schema schema({{"t", DataType::kInt64},
                   {"sensor", DataType::kString},
                   {"value", DataType::kDouble}});
    TableBuilder b(schema);
    Rng rng(7);
    char name[16];
    for (size_t i = 0; i < kRows; ++i) {
      std::snprintf(name, sizeof(name), "s%02zu", (i / 10'000) % 40);
      Status st = b.AppendRow({Value(static_cast<int64_t>(i)), Value(name),
                               Value(20.0 + 5.0 * rng.NextGaussian())});
      CVOPT_CHECK(st.ok(), "append failed");
    }
    return new Table(std::move(b).Finish());
  }();
  return *table;
}

PredicatePtr OnePercentPredicate() {
  // 1% of the rows, contiguous in `t`.
  return Predicate::Between("t", Value(static_cast<int64_t>(kRows / 2)),
                            Value(static_cast<int64_t>(kRows / 2 + kRows / 100 - 1)));
}

void BM_ZoneMapSkipScan(benchmark::State& state) {
  const Table& t = StorageBenchTable();
  auto cp = std::move(CompiledPredicate::Compile(t, *OnePercentPredicate()))
                .ValueOrDie();
  SetZoneMapPruningEnabled(true);
  ResetZoneSkipStats();
  for (auto _ : state) {
    auto sel = cp.Select();
    benchmark::DoNotOptimize(sel);
  }
  const ZoneSkipStats stats = GetZoneSkipStats();
  state.counters["skip_rate"] =
      stats.chunks == 0
          ? 0.0
          : static_cast<double>(stats.skipped) / static_cast<double>(stats.chunks);
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_ZoneMapSkipScan);

// Identical scan with pruning disabled: every chunk hits the kernels. The
// gap between this and BM_ZoneMapSkipScan is the zone maps' contribution.
void BM_FlatScanBaseline(benchmark::State& state) {
  const Table& t = StorageBenchTable();
  auto cp = std::move(CompiledPredicate::Compile(t, *OnePercentPredicate()))
                .ValueOrDie();
  SetZoneMapPruningEnabled(false);
  for (auto _ : state) {
    auto sel = cp.Select();
    benchmark::DoNotOptimize(sel);
  }
  SetZoneMapPruningEnabled(true);
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_FlatScanBaseline);

QuerySpec StorageBenchQuery() {
  QuerySpec q;
  q.group_by = {"sensor"};
  q.aggregates = {AggSpec::Avg("value"), AggSpec::Count()};
  q.where = OnePercentPredicate();
  return q;
}

struct MappedFixture {
  std::string path;
  MappedTable mapped;
};

// One shared v2 file for the out-of-core benches (written once).
const MappedFixture& BenchFile() {
  static const MappedFixture* fx = [] {
    const std::string path = "/tmp/cvopt_bench_storage.cvtb";
    Status st = WriteTableFile(StorageBenchTable(), path);
    CVOPT_CHECK(st.ok(), "bench file write failed");
    auto mapped = MappedTable::Open(path);
    CVOPT_CHECK(mapped.ok(), "bench file open failed");
    return new MappedFixture{path, std::move(mapped).ValueOrDie()};
  }();
  return *fx;
}

// Streams the mmap-backed file through the group-by; the working set is the
// chunk cache budget, not the table.
void BM_OutOfCoreGroupBy(benchmark::State& state) {
  const MappedFixture& fx = BenchFile();
  const QuerySpec q = StorageBenchQuery();
  ResetChunkCacheStats();
  for (auto _ : state) {
    auto result = ExecuteGroupByMapped(fx.mapped, q);
    benchmark::DoNotOptimize(result);
  }
  const ChunkCacheStats stats = GetChunkCacheStats();
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  state.counters["cache_hit_rate"] =
      lookups == 0.0 ? 0.0 : static_cast<double>(stats.hits) / lookups;
  state.SetItemsProcessed(state.iterations() * fx.mapped.num_rows());
}
BENCHMARK(BM_OutOfCoreGroupBy);

// Morsel-parallel out-of-core scan across the thread ladder: each wave
// decodes its chunks on the workers and accumulates over worker-owned gid
// ranges while the chunk cache stays bounded; the answer is bit-identical
// at every fan-out.
void BM_OutOfCoreGroupByParallel(benchmark::State& state) {
  const MappedFixture& fx = BenchFile();
  ScopedThreads threads(static_cast<int>(state.range(0)));
  const QuerySpec q = StorageBenchQuery();
  ResetChunkCacheStats();
  for (auto _ : state) {
    auto result = ExecuteGroupByMapped(fx.mapped, q);
    benchmark::DoNotOptimize(result);
  }
  const ChunkCacheStats stats = GetChunkCacheStats();
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  state.counters["cache_hit_rate"] =
      lookups == 0.0 ? 0.0 : static_cast<double>(stats.hits) / lookups;
  state.SetItemsProcessed(state.iterations() * fx.mapped.num_rows());
}
BENCHMARK(BM_OutOfCoreGroupByParallel)->Apply(ThreadArgs)->UseRealTime();

// The same query on the resident table: the in-memory reference point for
// the out-of-core path's overhead.
void BM_InMemoryGroupByBaseline(benchmark::State& state) {
  const Table& t = StorageBenchTable();
  const QuerySpec q = StorageBenchQuery();
  for (auto _ : state) {
    auto result = ExecuteExact(t, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_InMemoryGroupByBaseline);

}  // namespace
}  // namespace cvopt
