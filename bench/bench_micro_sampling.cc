// Micro-benchmarks for the samplers: end-to-end sample-build throughput per
// method at a 1% rate, and approximate query answering.
#include <benchmark/benchmark.h>

#include "bench/bench_threading.h"
#include "src/datagen/openaq_gen.h"
#include "src/estimate/approx_executor.h"
#include "src/exec/group_index.h"
#include "src/sample/congress_sampler.h"
#include "src/sample/cvopt_sampler.h"
#include "src/sample/rl_sampler.h"
#include "src/sample/senate_sampler.h"
#include "src/sample/streaming_cvopt_sampler.h"
#include "src/sample/uniform_sampler.h"

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

QuerySpec TargetQuery() {
  QuerySpec q;
  q.group_by = {"country", "parameter"};
  q.aggregates = {AggSpec::Avg("value")};
  return q;
}

// The sample-build benches and BM_ApproxQuery run on one thread: they
// report the calling thread's CPU time, which is then all of the work, and
// the seed engine BM_Build_CVOPT and BM_ApproxQuery are compared with was
// serial. The <bench>Parallel variants cover the thread ladder.
template <typename SamplerT>
void BM_SamplerBuild(benchmark::State& state) {
  ScopedThreads threads(1);
  const Table& t = BenchTable();
  SamplerT sampler;
  Rng rng(13);
  const uint64_t budget = t.num_rows() / 100;
  for (auto _ : state) {
    auto sample = sampler.Build(t, {TargetQuery()}, budget, &rng);
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_SamplerBuild<UniformSampler>)->Name("BM_Build_Uniform");
BENCHMARK(BM_SamplerBuild<CongressSampler>)->Name("BM_Build_Congress");
BENCHMARK(BM_SamplerBuild<RlSampler>)->Name("BM_Build_RL");
BENCHMARK(BM_SamplerBuild<CvoptSampler>)->Name("BM_Build_CVOPT");

void BM_ApproxQuery(benchmark::State& state) {
  ScopedThreads threads(1);
  const Table& t = BenchTable();
  CvoptSampler sampler;
  Rng rng(17);
  auto sample =
      std::move(sampler.Build(t, {TargetQuery()}, t.num_rows() / 100, &rng))
          .ValueOrDie();
  const QuerySpec q = TargetQuery();
  for (auto _ : state) {
    auto result = ExecuteApprox(sample, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * sample.size());
}
BENCHMARK(BM_ApproxQuery);

// ----------------------------------------------------- thread scaling

void BM_ApproxQueryParallel(benchmark::State& state) {
  const Table& t = BenchTable();
  CvoptSampler sampler;
  Rng rng(17);
  auto sample =
      std::move(sampler.Build(t, {TargetQuery()}, t.num_rows() / 100, &rng))
          .ValueOrDie();
  ScopedThreads threads(static_cast<int>(state.range(0)));
  const QuerySpec q = TargetQuery();
  for (auto _ : state) {
    auto result = ExecuteApprox(sample, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * sample.size());
}
BENCHMARK(BM_ApproxQueryParallel)->Apply(ThreadArgs)->UseRealTime();

void BM_BuildCvoptParallel(benchmark::State& state) {
  const Table& t = BenchTable();
  CvoptSampler sampler;
  Rng rng(13);
  ScopedThreads threads(static_cast<int>(state.range(0)));
  const uint64_t budget = t.num_rows() / 100;
  for (auto _ : state) {
    auto sample = sampler.Build(t, {TargetQuery()}, budget, &rng);
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_BuildCvoptParallel)->Name("BM_Build_CVOPTParallel")->Apply(ThreadArgs)->UseRealTime();

// The draw phase in isolation (per-stratum ordinal draws on
// Rng::ForStratum streams, then one serial pass over the row strata):
// the stratification and allocation are prebuilt. The draw does not fan
// out, so the thread ladder should stay flat; it shows that the pool adds
// no cost.
void BM_DrawStratifiedParallel(benchmark::State& state) {
  const Table& t = BenchTable();
  static const auto* shared = [] {
    auto strat = Stratification::Build(BenchTable(), {"country", "parameter"});
    return new std::shared_ptr<const Stratification>(
        std::make_shared<Stratification>(std::move(strat).ValueOrDie()));
  }();
  static const auto* alloc = new std::vector<uint64_t>(
      EqualAllocation((*shared)->sizes(), BenchTable().num_rows() / 100));
  ScopedThreads threads(static_cast<int>(state.range(0)));
  Rng rng(19);
  for (auto _ : state) {
    auto sample = DrawStratified(t, *shared, *alloc, "bench", &rng);
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_DrawStratifiedParallel)->Apply(ThreadArgs)->UseRealTime();

// Streaming-router row throughput: the per-row packed dense-id probe that
// replaced GroupKey materialization + interning in the streaming sampler.
void BM_StreamingRouterRoute(benchmark::State& state) {
  const Table& t = BenchTable();
  auto cols =
      std::move(GroupIndex::Resolve(t, {"country", "parameter"})).ValueOrDie();
  std::vector<DataType> types;
  for (size_t c : cols) types.push_back(t.column(c).type());
  for (auto _ : state) {
    StreamGroupRouter router(types);
    for (size_t j = 0; j < cols.size(); ++j) {
      const Column& col = t.column(cols[j]);
      router.Bind(j, col.ints().data(), col.codes().data());
    }
    uint64_t acc = 0;
    for (uint32_t r = 0; r < t.num_rows(); ++r) acc += router.Route(r);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_StreamingRouterRoute);

// End-to-end streaming sampler build (route + stats + reservoir + replan).
void BM_StreamingCvoptBuild(benchmark::State& state) {
  const Table& t = BenchTable();
  StreamingCvoptSampler sampler(/*replan_interval=*/50000);
  Rng rng(23);
  const uint64_t budget = t.num_rows() / 100;
  for (auto _ : state) {
    auto sample = sampler.Build(t, {TargetQuery()}, budget, &rng);
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_StreamingCvoptBuild)->Name("BM_Build_CVOPTStream");

}  // namespace
}  // namespace cvopt
