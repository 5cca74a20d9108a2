// Micro-benchmarks for the execution substrate: exact group-by throughput,
// stratification, and single-pass statistics collection — plus
// thread-scaling variants (<bench>/<threads>) that drive the same paths
// through the morsel scheduler, so scaling efficiency is tracked alongside
// single-thread throughput.
#include <benchmark/benchmark.h>

#include "bench/bench_threading.h"
#include "src/core/stratification.h"
#include "src/datagen/openaq_gen.h"
#include "src/exec/group_by_executor.h"
#include "src/exec/group_index.h"
#include "src/expr/compiled_predicate.h"
#include "src/stats/stats_collector.h"
#include "src/table/table_builder.h"
#include "src/util/rng.h"
#include "src/util/simd.h"

namespace cvopt {
namespace {

const Table& BenchTable() {
  static const Table* t = [] {
    OpenAqOptions opts;
    opts.num_rows = 500'000;
    return new Table(GenerateOpenAq(opts));
  }();
  return *t;
}

// The benches tracked against the seed baseline (BM_ExactGroupBy,
// BM_ExactGroupByWithPredicate, BM_StratificationBuild,
// BM_CollectGroupStats) run on one thread: they report the calling
// thread's CPU time, which is then all of the work, and the seed engine
// they are compared with was serial.
void BM_ExactGroupBy(benchmark::State& state) {
  ScopedThreads threads(1);
  const Table& t = BenchTable();
  QuerySpec q;
  q.group_by = {"country", "parameter"};
  q.aggregates = {AggSpec::Avg("value")};
  for (auto _ : state) {
    auto result = ExecuteExact(t, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_ExactGroupBy);

void BM_ExactGroupByIntKey(benchmark::State& state) {
  const Table& t = BenchTable();
  QuerySpec q;
  q.group_by = {"hour"};
  q.aggregates = {AggSpec::Avg("value")};
  for (auto _ : state) {
    auto result = ExecuteExact(t, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_ExactGroupByIntKey);

void BM_ExactGroupByManyKeys(benchmark::State& state) {
  const Table& t = BenchTable();
  QuerySpec q;
  q.group_by = {"country", "parameter", "unit", "year", "month", "hour"};
  q.aggregates = {AggSpec::Avg("value")};
  for (auto _ : state) {
    auto result = ExecuteExact(t, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_ExactGroupByManyKeys);

void BM_ExactGroupByWithPredicate(benchmark::State& state) {
  ScopedThreads threads(1);
  const Table& t = BenchTable();
  QuerySpec q;
  q.group_by = {"country"};
  q.aggregates = {AggSpec::Avg("value")};
  q.where = Predicate::Between("hour", 0, 11);
  for (auto _ : state) {
    auto result = ExecuteExact(t, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_ExactGroupByWithPredicate);

void BM_ExactGroupByComplexPredicate(benchmark::State& state) {
  const Table& t = BenchTable();
  QuerySpec q;
  q.group_by = {"country", "parameter"};
  q.aggregates = {AggSpec::Avg("value")};
  // AND-chain refinement + dictionary code-table + OR/NOT mask path.
  q.where = Predicate::And(
      Predicate::Between("hour", 0, 17),
      Predicate::Or(Predicate::In("parameter", {Value("pm25"), Value("o3")}),
                    Predicate::Not(Predicate::Compare(
                        "country", CompareOp::kEq, "US"))));
  for (auto _ : state) {
    auto result = ExecuteExact(t, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_ExactGroupByComplexPredicate);

void BM_ExactGroupByManyKeysMasked(benchmark::State& state) {
  const Table& t = BenchTable();
  QuerySpec q;
  q.group_by = {"country", "parameter", "unit", "year", "month", "hour"};
  q.aggregates = {AggSpec::Avg("value")};
  q.where = Predicate::Between("hour", 0, 11);
  for (auto _ : state) {
    auto result = ExecuteExact(t, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_ExactGroupByManyKeysMasked);

// ------------------------------------- masked radix + selection kernels

QuerySpec MaskedManyKeysQuery() {
  QuerySpec q;
  q.group_by = {"country", "parameter", "unit", "year", "month", "hour"};
  q.aggregates = {AggSpec::Avg("value")};
  q.where = Predicate::Between("hour", 0, 11);
  return q;
}

// Masked WHERE group-by through the partition-owned slab path: the radix
// build is forced on so the selection scatters into a dense byte mask and
// accumulates per partition with no cross-worker merge; the predicate
// kernels run vectorized where the host supports it. Both masked-path
// benches pin an 8-way fan-out: the chunk-order merge the slab path
// deletes only exists when aggregation actually chunks — at threads=1
// the "merge" baseline degenerates to the plain serial loop and the
// comparison measures nothing. Both time wall clock: the pool does the
// work, so the calling thread's CPU time would understate it.
void BM_MaskedGroupByRadix(benchmark::State& state) {
  const Table& t = BenchTable();
  ScopedThreads threads(8);
  const QuerySpec q = MaskedManyKeysQuery();
  GroupIndex::SetRadixOverrideForTesting(/*mode=*/1, /*partitions=*/8);
  for (auto _ : state) {
    auto result = ExecuteExact(t, q);
    benchmark::DoNotOptimize(result);
  }
  GroupIndex::SetRadixOverrideForTesting(-1, 0);
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_MaskedGroupByRadix)->UseRealTime();

// Pre-PR baseline in the same run: radix forced off (chunk-order merged
// accumulators) and the scalar predicate kernels pinned, so the reported
// gap is slab-vs-merge plus vector-vs-scalar selection on identical data.
void BM_MaskedGroupByMerge(benchmark::State& state) {
  const Table& t = BenchTable();
  ScopedThreads threads(8);
  const QuerySpec q = MaskedManyKeysQuery();
  GroupIndex::SetRadixOverrideForTesting(/*mode=*/0);
  simd::SetEnabledForTesting(0);
  for (auto _ : state) {
    auto result = ExecuteExact(t, q);
    benchmark::DoNotOptimize(result);
  }
  simd::SetEnabledForTesting(1);
  GroupIndex::SetRadixOverrideForTesting(-1, 0);
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_MaskedGroupByMerge)->UseRealTime();

// Raw selection-vector production (compare -> movemask -> compressed
// store) against the same loop with the scalar kernels pinned.
void BM_SelectionVectorSIMD(benchmark::State& state) {
  const Table& t = BenchTable();
  auto pred = Predicate::Between("value", 10.0, 120.0);
  auto cp = std::move(CompiledPredicate::Compile(t, *pred)).ValueOrDie();
  for (auto _ : state) {
    auto sel = cp.SelectRange(0, t.num_rows());
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_SelectionVectorSIMD);

void BM_SelectionVectorScalar(benchmark::State& state) {
  const Table& t = BenchTable();
  auto pred = Predicate::Between("value", 10.0, 120.0);
  auto cp = std::move(CompiledPredicate::Compile(t, *pred)).ValueOrDie();
  simd::SetEnabledForTesting(0);
  for (auto _ : state) {
    auto sel = cp.SelectRange(0, t.num_rows());
    benchmark::DoNotOptimize(sel);
  }
  simd::SetEnabledForTesting(1);
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_SelectionVectorScalar);

void BM_StratificationBuild(benchmark::State& state) {
  ScopedThreads threads(1);
  const Table& t = BenchTable();
  for (auto _ : state) {
    auto strat = Stratification::Build(t, {"country", "parameter", "unit"});
    benchmark::DoNotOptimize(strat);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_StratificationBuild);

// The same build over an int-keyed grouping (a dictionary column and the
// small-range `year`): the direct tier takes year's range from the table's
// zone maps.
void BM_StratificationBuildIntKey(benchmark::State& state) {
  ScopedThreads threads(1);
  const Table& t = BenchTable();
  for (auto _ : state) {
    auto strat = Stratification::Build(t, {"parameter", "year"});
    benchmark::DoNotOptimize(strat);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_StratificationBuildIntKey);

void BM_CollectGroupStats(benchmark::State& state) {
  ScopedThreads threads(1);
  const Table& t = BenchTable();
  auto strat = std::move(Stratification::Build(t, {"country", "parameter"}))
                   .ValueOrDie();
  auto value = std::move(t.ColumnByName("value")).ValueOrDie();
  StatSource src;
  src.column = value;
  for (auto _ : state) {
    auto stats = CollectGroupStats(strat, {src});
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_CollectGroupStats);

// ------------------------------------------------- packed-tier group-by

// 3M rows over two ~2^12-range int key columns: ~2.7M distinct groups
// (nearly every row its own group), 24 packed key bits — past the direct
// tier's cap. The strided probe finds high cardinality, so the parallel
// build radix-partitions the rows and hash-probes each partition; each
// partition's table is ~4 MB of randomly-probed slots (past L2).
const Table& HugeGroupTable() {
  static const Table* t = [] {
    Schema schema({{"k1", DataType::kInt64},
                   {"k2", DataType::kInt64},
                   {"value", DataType::kDouble}});
    TableBuilder b(schema);
    Rng rng(2468);
    for (size_t i = 0; i < 3'000'000; ++i) {
      Status st = b.AppendRow({Value(static_cast<int64_t>(rng.Uniform(4096))),
                               Value(static_cast<int64_t>(rng.Uniform(4096))),
                               Value(rng.NextGaussian())});
      CVOPT_CHECK(st.ok(), "append failed");
    }
    return new Table(std::move(b).Finish());
  }();
  return *t;
}

// Small-G control on the same packed tier: ~2k groups over 24 key bits
// (k2's code RANGE forces packed even though it takes two values). The
// probe finds low cardinality, so the build takes the chunk-merge path —
// the guard for everyday group-bys.
const Table& SmallGroupPackedTable() {
  static const Table* t = [] {
    Schema schema({{"k1", DataType::kInt64},
                   {"k2", DataType::kInt64},
                   {"value", DataType::kDouble}});
    TableBuilder b(schema);
    Rng rng(1357);
    for (size_t i = 0; i < 500'000; ++i) {
      Status st = b.AppendRow(
          {Value(static_cast<int64_t>(rng.Uniform(1024))),
           Value(static_cast<int64_t>(rng.Uniform(2)) * 8192),
           Value(rng.NextGaussian())});
      CVOPT_CHECK(st.ok(), "append failed");
    }
    return new Table(std::move(b).Finish());
  }();
  return *t;
}

// Shared body: 8-thread exact AVG group-by on (k1, k2), reporting the
// realized group count.
void RunPackedGroupBy(benchmark::State& state, const Table& t) {
  ScopedThreads threads(8);
  QuerySpec q;
  q.group_by = {"k1", "k2"};
  q.aggregates = {AggSpec::Avg("value")};
  size_t groups = 0;
  for (auto _ : state) {
    auto result = ExecuteExact(t, q);
    if (result.ok()) groups = result.value().num_groups();
    benchmark::DoNotOptimize(result);
  }
  state.counters["actual_groups"] = static_cast<double>(groups);
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}

// The names keep their BENCH_groupby.json keys (with a /real_time suffix:
// the pool does the work, so items/s is taken over wall time, not the
// calling thread's CPU time).
void BM_AdaptiveGroupByHugeG(benchmark::State& state) {
  RunPackedGroupBy(state, HugeGroupTable());
}
BENCHMARK(BM_AdaptiveGroupByHugeG)->UseRealTime();

void BM_AdaptiveGroupBySmallG(benchmark::State& state) {
  RunPackedGroupBy(state, SmallGroupPackedTable());
}
BENCHMARK(BM_AdaptiveGroupBySmallG)->UseRealTime();

// ----------------------------------------------------- thread scaling

void BM_ExactGroupByParallel(benchmark::State& state) {
  const Table& t = BenchTable();
  ScopedThreads threads(static_cast<int>(state.range(0)));
  QuerySpec q;
  q.group_by = {"country", "parameter"};
  q.aggregates = {AggSpec::Avg("value")};
  for (auto _ : state) {
    auto result = ExecuteExact(t, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_ExactGroupByParallel)->Apply(ThreadArgs)->UseRealTime();

void BM_ExactGroupByMaskedParallel(benchmark::State& state) {
  const Table& t = BenchTable();
  ScopedThreads threads(static_cast<int>(state.range(0)));
  QuerySpec q;
  q.group_by = {"country", "parameter"};
  q.aggregates = {AggSpec::Avg("value")};
  q.where = Predicate::Between("hour", 0, 11);
  for (auto _ : state) {
    auto result = ExecuteExact(t, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_ExactGroupByMaskedParallel)->Apply(ThreadArgs)->UseRealTime();

void BM_ExactGroupByManyKeysParallel(benchmark::State& state) {
  const Table& t = BenchTable();
  ScopedThreads threads(static_cast<int>(state.range(0)));
  QuerySpec q;
  q.group_by = {"country", "parameter", "unit", "year", "month", "hour"};
  q.aggregates = {AggSpec::Avg("value")};
  for (auto _ : state) {
    auto result = ExecuteExact(t, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_ExactGroupByManyKeysParallel)->Apply(ThreadArgs)->UseRealTime();

void BM_StratificationBuildParallel(benchmark::State& state) {
  const Table& t = BenchTable();
  ScopedThreads threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto strat = Stratification::Build(t, {"country", "parameter", "unit"});
    benchmark::DoNotOptimize(strat);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_StratificationBuildParallel)->Apply(ThreadArgs)->UseRealTime();

// CollectGroupStats across the thread ladder; the statistics it returns
// are bit-identical at every fan-out.
void BM_GroupStatsParallel(benchmark::State& state) {
  const Table& t = BenchTable();
  auto strat = std::move(Stratification::Build(t, {"country", "parameter"}))
                   .ValueOrDie();
  auto value = std::move(t.ColumnByName("value")).ValueOrDie();
  StatSource src;
  src.column = value;
  ScopedThreads threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto stats = CollectGroupStats(strat, {src});
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_GroupStatsParallel)->Apply(ThreadArgs)->UseRealTime();

}  // namespace
}  // namespace cvopt
