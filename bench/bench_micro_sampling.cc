// Micro-benchmarks for the samplers: end-to-end sample-build throughput per
// method at a 1% rate, and approximate query answering.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>

#include "bench/bench_threading.h"
#include "src/datagen/openaq_gen.h"
#include "src/estimate/approx_executor.h"
#include "src/exec/group_index.h"
#include "src/sample/congress_sampler.h"
#include "src/sample/cvopt_sampler.h"
#include "src/sample/rl_sampler.h"
#include "src/sample/streaming_cvopt_sampler.h"
#include "src/sample/uniform_sampler.h"

namespace cvopt {
namespace {

// Equal split of `budget` over strata with capacities `caps`: strata that
// fill up drop out and their surplus is split again over the rest, so
// sum(out) == min(budget, sum caps). The draw bench's allocation.
std::vector<uint64_t> EqualAllocation(const std::vector<uint64_t>& caps,
                                      uint64_t budget) {
  const size_t r = caps.size();
  std::vector<uint64_t> out(r, 0);
  const uint64_t total = std::accumulate(caps.begin(), caps.end(), uint64_t{0});
  uint64_t remaining = std::min(budget, total);
  std::vector<size_t> open(r);
  std::iota(open.begin(), open.end(), 0);
  while (remaining > 0 && !open.empty()) {
    const uint64_t share = std::max<uint64_t>(1, remaining / open.size());
    std::vector<size_t> next;
    for (size_t i : open) {
      if (remaining == 0) break;
      const uint64_t take = std::min({share, caps[i] - out[i], remaining});
      out[i] += take;
      remaining -= take;
      if (out[i] < caps[i]) next.push_back(i);
    }
    open = std::move(next);
  }
  return out;
}

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
// the stratification and allocation are prebuilt. The draw does not use
// the pool, so it runs on one thread and reports its CPU time.
void BM_DrawStratified(benchmark::State& state) {
  const Table& t = BenchTable();
  static const auto* shared = [] {
    auto strat = Stratification::Build(BenchTable(), {"country", "parameter"});
    return new std::shared_ptr<const Stratification>(
        std::make_shared<Stratification>(std::move(strat).ValueOrDie()));
  }();
  static const auto* alloc = new std::vector<uint64_t>(
      EqualAllocation((*shared)->sizes(), BenchTable().num_rows() / 100));
  ScopedThreads threads(1);
  Rng rng(19);
  for (auto _ : state) {
    auto sample = DrawStratified(t, *shared, *alloc, "bench", &rng);
    benchmark::DoNotOptimize(sample);
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_DrawStratified);

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
