// Micro-benchmarks for the chunked storage layer: zone-map chunk skipping
// against the flat-scan baseline (the skip rate is reported as a counter),
// the out-of-core scan's two per-row kernels (FOR-varint chunk decode and
// the group directory's batched id lookup), and the out-of-core group-by
// over an mmap-backed v2 file (selective and full-scan, across the thread
// ladder) against the in-memory executor on the same data.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_threading.h"
#include "src/exec/chunked_scan.h"
#include "src/exec/group_by_executor.h"
#include "src/exec/group_index.h"
#include "src/expr/compiled_predicate.h"
#include "src/table/chunk_codec.h"
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

// One 4096-row FOR-varint chunk decoded per iteration. Arguments: the
// column kind (0 = int64, 1 = dictionary codes) and the delta widths
// (0 = every delta one byte, the word-at-a-time case; 1 = mixed, about a
// third of the deltas two or three bytes wide).
void BM_DecodeForVarintChunk(benchmark::State& state) {
  constexpr size_t kChunk = 4096;
  const bool codes = state.range(0) == 1;
  const bool mixed = state.range(1) == 1;
  Rng rng(11);
  std::vector<int64_t> ints(kChunk);
  std::vector<int32_t> dict_codes(kChunk);
  for (size_t i = 0; i < kChunk; ++i) {
    const uint64_t bound = mixed && rng.Uniform(3) == 0 ? 1u << 21 : 128;
    ints[i] = 1'000'000 + static_cast<int64_t>(rng.Uniform(bound));
    dict_codes[i] = static_cast<int32_t>(ints[i] - 1'000'000);
  }
  std::string enc;
  if (codes) {
    EncodeCodeChunk(dict_codes.data(), kChunk, &enc);
  } else {
    EncodeI64Chunk(ints.data(), kChunk, &enc);
  }
  CVOPT_CHECK(enc[0] == static_cast<char>(codes ? ChunkEncoding::kForVarCode
                                                : ChunkEncoding::kForVarI64),
              "bench chunk is not FOR-varint encoded");
  const auto* p = reinterpret_cast<const uint8_t*>(enc.data());
  for (auto _ : state) {
    const Status st = codes
                          ? DecodeCodeChunk(p, enc.size(), kChunk,
                                            dict_codes.data())
                          : DecodeI64Chunk(p, enc.size(), kChunk, ints.data());
    benchmark::DoNotOptimize(st);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kChunk);
}
BENCHMARK(BM_DecodeForVarintChunk)
    ->ArgNames({"codes", "mixed"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

// The group directory's lookup over one 4096-row chunk, direct tier: a
// string column of 40 codes and an int column of 24 values (12 packed
// bits), every key routed beforehand. Argument: the percent of the chunk's
// rows selected (100 = no selection vector, 30 = an ascending selection).
void BM_DirectoryFindBatch(benchmark::State& state) {
  constexpr uint32_t kChunk = 4096;
  Rng rng(13);
  std::vector<int32_t> codes(kChunk);
  std::vector<int64_t> ints(kChunk);
  for (uint32_t r = 0; r < kChunk; ++r) {
    codes[r] = static_cast<int32_t>(rng.Uniform(40));
    ints[r] = static_cast<int64_t>(rng.Uniform(24));
  }
  StreamGroupRouter dir({DataType::kString, DataType::kInt64});
  dir.Bind(0, nullptr, codes.data());
  dir.Bind(1, ints.data(), nullptr);
  for (uint32_t r = 0; r < kChunk; ++r) dir.Route(r);
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < kChunk; ++r) {
    if (static_cast<int64_t>(rng.Uniform(100)) < state.range(0)) {
      rows.push_back(r);
    }
  }
  const StreamGroupRouter::ColumnRef cols[] = {{nullptr, codes.data()},
                                               {ints.data(), nullptr}};
  std::vector<uint32_t> gids(kChunk);
  for (auto _ : state) {
    const bool found =
        dir.FindBatch(cols, rows.data(), rows.size(), gids.data());
    benchmark::DoNotOptimize(found);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_DirectoryFindBatch)->ArgName("selected_pct")->Arg(100)->Arg(30);

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

// Runs `q` over the bench file at `threads` threads and reports the chunk
// cache's hit rate.
void RunOutOfCore(benchmark::State& state, const QuerySpec& q, int threads) {
  ScopedThreads scope(threads);
  const MappedFixture& fx = BenchFile();
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

// Streams the mmap-backed file through the group-by; the working set is the
// chunk cache budget, not the table. The first iteration builds the
// grouping's group directory; later ones decode nothing of the chunks the
// zone maps refute. One thread, like its in-memory baseline below: both
// report the calling thread's CPU time, which is then all of the work.
void BM_OutOfCoreGroupBy(benchmark::State& state) {
  RunOutOfCore(state, StorageBenchQuery(), 1);
}
BENCHMARK(BM_OutOfCoreGroupBy);

// Out-of-core scan across the thread ladder: each wave decodes its chunks
// and looks up their group ids on the workers, then accumulates them in
// chunk order through the shared accumulation core while the chunk cache
// stays bounded; the answer is bit-identical at every fan-out.
void BM_OutOfCoreGroupByParallel(benchmark::State& state) {
  RunOutOfCore(state, StorageBenchQuery(), static_cast<int>(state.range(0)));
}
BENCHMARK(BM_OutOfCoreGroupByParallel)->Apply(ThreadArgs)->UseRealTime();

// The same ladder with no WHERE clause: the 1%-selective query above
// decodes ~5 of the file's 489 chunks, so its ladder measures pool
// hand-off; this one decodes and looks up every chunk.
void BM_OutOfCoreGroupByFullScanParallel(benchmark::State& state) {
  QuerySpec q = StorageBenchQuery();
  q.where = nullptr;
  RunOutOfCore(state, q, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_OutOfCoreGroupByFullScanParallel)
    ->Apply(ThreadArgs)
    ->UseRealTime();

// The same query on the resident table: the in-memory reference point for
// the out-of-core path's overhead.
void BM_InMemoryGroupByBaseline(benchmark::State& state) {
  ScopedThreads threads(1);
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
