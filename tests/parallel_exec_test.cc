// Differential tests for the morsel-driven parallel execution engine:
// every parallel path (predicate selection, GroupIndex builds, exact and
// approximate aggregation, stratification, sampler builds) must reproduce
// the serial result across thread counts — integer outputs and orderings
// bit-identically, the executors' floating-point accumulations within the
// documented float-summation tolerance. The group-statistics pass has its
// own suite in parallel_stats_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>

#include "src/core/cvopt_allocator.h"
#include "src/core/stratification.h"
#include "src/datagen/openaq_gen.h"
#include "src/estimate/approx_executor.h"
#include "src/exec/group_by_executor.h"
#include "src/exec/group_index.h"
#include "src/exec/parallel.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"
#include "src/sample/congress_sampler.h"
#include "src/sample/cvopt_sampler.h"
#include "src/sample/senate_sampler.h"
#include "src/sample/streaming_cvopt_sampler.h"
#include "src/sample/uniform_sampler.h"
#include "src/util/simd.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

// Non-power-of-two row count: chunk boundaries land mid-stride everywhere.
constexpr uint64_t kRows = 100003;

const Table& TestTable() {
  static const Table* t = [] {
    OpenAqOptions opts;
    opts.num_rows = kRows;
    return new Table(GenerateOpenAq(opts));
  }();
  return *t;
}

QuerySpec AllAggregatesQuery(bool filtered) {
  QuerySpec q;
  q.group_by = {"country", "parameter"};
  q.aggregates = {
      AggSpec::Avg("value"),    AggSpec::Sum("value"),
      AggSpec::Count(),
      AggSpec::CountIf(
          Predicate::Compare("value", CompareOp::kGt, Value(0.04))),
      AggSpec::Variance("value"), AggSpec::Median("value")};
  if (filtered) q.where = Predicate::Between("hour", 0, 11);
  return q;
}

// `weighted_counts` is true for the approximate executor, whose COUNT /
// COUNT_IF answers are Horvitz–Thompson weight sums (floats) rather than
// integer row counts.
void ExpectResultsMatch(const QueryResult& serial, const QueryResult& par,
                        bool weighted_counts) {
  ASSERT_EQ(par.num_groups(), serial.num_groups());
  ASSERT_EQ(par.num_aggregates(), serial.num_aggregates());
  for (size_t i = 0; i < serial.num_groups(); ++i) {
    // Group emission order (GroupIndex first-seen order) is bit-identical.
    EXPECT_EQ(par.label(i), serial.label(i));
    EXPECT_EQ(KeyCodesOf(par, i), KeyCodesOf(serial, i));
    for (size_t j = 0; j < serial.num_aggregates(); ++j) {
      const double s = serial.value(i, j);
      const double p = par.value(i, j);
      if (!weighted_counts &&
          serial.agg_labels()[j].rfind("COUNT", 0) == 0) {
        // Exact COUNT / COUNT_IF merge as integers: bit-exact.
        EXPECT_EQ(p, s) << serial.label(i) << " " << serial.agg_labels()[j];
      } else {
        // Float summation reassociates across chunks (documented
        // tolerance); medians select from the same multiset.
        EXPECT_NEAR(p, s, 1e-9 * std::max(1.0, std::fabs(s)))
            << serial.label(i) << " " << serial.agg_labels()[j];
      }
    }
  }
}

class ParallelExecTest : public testing::TestWithParam<int> {};

TEST_P(ParallelExecTest, ExactExecutorMatchesSerial) {
  const Table& t = TestTable();
  for (bool filtered : {false, true}) {
    QueryResult serial;
    {
      ScopedExecThreads one(1);
      ASSERT_OK_AND_ASSIGN(serial, ExecuteExact(t, AllAggregatesQuery(filtered)));
    }
    ScopedExecThreads threads(GetParam());
    ASSERT_OK_AND_ASSIGN(QueryResult par,
                         ExecuteExact(t, AllAggregatesQuery(filtered)));
    ExpectResultsMatch(serial, par, /*weighted_counts=*/false);
  }
}

TEST_P(ParallelExecTest, ExactExecutorKeysAreDistinct) {
  const Table& t = TestTable();
  ScopedExecThreads threads(GetParam());
  ASSERT_OK_AND_ASSIGN(QueryResult r, ExecuteExact(t, AllAggregatesQuery(true)));
  ASSERT_GT(r.num_groups(), 0u);
  // Each group's codes and label are its own: matching the result against
  // itself, by codes or by label, finds every group at its own index.
  ASSERT_OK_AND_ASSIGN(std::vector<size_t> match, MatchGroups(r, r));
  for (size_t i = 0; i < r.num_groups(); ++i) {
    EXPECT_EQ(match[i], i);
    EXPECT_EQ(r.FindByLabel(r.label(i)), std::make_optional(i));
  }
}

TEST_P(ParallelExecTest, ApproxExecutorMatchesSerial) {
  const Table& t = TestTable();
  // The sample itself is thread-count independent (stratification is
  // bit-identical, the draw runs on per-stratum Rng::ForStratum streams).
  Rng rng(42);
  UniformSampler sampler;
  ASSERT_OK_AND_ASSIGN(StratifiedSample sample,
                       sampler.Build(t, {AllAggregatesQuery(false)}, 20000, &rng));
  for (bool filtered : {false, true}) {
    QueryResult serial;
    {
      ScopedExecThreads one(1);
      ASSERT_OK_AND_ASSIGN(serial,
                           ExecuteApprox(sample, AllAggregatesQuery(filtered)));
    }
    ScopedExecThreads threads(GetParam());
    ASSERT_OK_AND_ASSIGN(QueryResult par,
                         ExecuteApprox(sample, AllAggregatesQuery(filtered)));
    ExpectResultsMatch(serial, par, /*weighted_counts=*/true);
  }
}

TEST_P(ParallelExecTest, ParallelSelectMatchesSelect) {
  const Table& t = TestTable();
  const PredicatePtr preds[] = {
      Predicate::Between("hour", 0, 11),
      Predicate::And(
          Predicate::Between("hour", 0, 17),
          Predicate::Or(Predicate::In("parameter", {Value("pm25"), Value("o3")}),
                        Predicate::Not(Predicate::Compare(
                            "country", CompareOp::kEq, "US")))),
      Predicate::Not(Predicate::Compare("value", CompareOp::kLt, Value(10.0))),
      Predicate::True()};
  ScopedExecThreads threads(GetParam());
  for (const auto& p : preds) {
    ASSERT_OK_AND_ASSIGN(CompiledPredicate cp,
                         CompiledPredicate::Compile(t, *p));
    const std::vector<uint32_t> serial = cp.Select();
    EXPECT_EQ(ParallelSelect(cp), serial) << p->ToString();

    // EvalMaskRange stitches to the full mask.
    std::vector<uint8_t> full(t.num_rows()), ranged(t.num_rows());
    cp.EvalMaskRange(0, t.num_rows(), full.data());
    ParallelEvalMask(cp, ranged.data());
    EXPECT_EQ(ranged, full) << p->ToString();
  }
}

TEST_P(ParallelExecTest, GroupIndexBitIdenticalAcrossThreads) {
  const Table& t = TestTable();
  // Exercises the direct tier (a single string column) and the packed
  // tier (six columns).
  const std::vector<std::vector<std::string>> attr_sets = {
      {"country"},
      {"country", "parameter", "unit", "year", "month", "hour"},
  };
  for (const auto& attrs : attr_sets) {
    GroupIndex serial_full = [&] {
      ScopedExecThreads one(1);
      return std::move(GroupIndex::Build(t, attrs)).ValueOrDie();
    }();
    ScopedExecThreads threads(GetParam());
    ASSERT_OK_AND_ASSIGN(GroupIndex par_full, GroupIndex::Build(t, attrs));
    EXPECT_EQ(par_full.tier(), serial_full.tier());
    EXPECT_EQ(par_full.row_groups(), serial_full.row_groups());
    EXPECT_EQ(par_full.sizes(), serial_full.sizes());
    for (size_t g = 0; g < serial_full.num_groups(); ++g) {
      EXPECT_EQ(par_full.KeyOf(g).codes, serial_full.KeyOf(g).codes);
    }
  }
}

TEST_P(ParallelExecTest, WideTierBitIdenticalAcrossThreads) {
  // Three int columns with ~2^40 spreads exceed 64 packed bits -> kWide.
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kInt64},
                 {"c", DataType::kInt64}});
  TableBuilder b(schema);
  Rng rng(7);
  const int64_t kSpread = int64_t{1} << 40;
  for (int i = 0; i < 20000; ++i) {
    const int64_t base = static_cast<int64_t>(rng.Next64() % 50);
    ASSERT_OK(b.AppendRow({Value(base * kSpread),
                           Value(-base * kSpread),
                           Value(base % 7)}));
  }
  Table t = std::move(b).Finish();
  GroupIndex serial = [&] {
    ScopedExecThreads one(1);
    return std::move(GroupIndex::Build(t, {"a", "b", "c"})).ValueOrDie();
  }();
  ASSERT_EQ(serial.tier(), GroupIndex::Tier::kWide);
  ScopedExecThreads threads(GetParam(), 128);
  ASSERT_OK_AND_ASSIGN(GroupIndex par, GroupIndex::Build(t, {"a", "b", "c"}));
  EXPECT_EQ(par.tier(), GroupIndex::Tier::kWide);
  EXPECT_EQ(par.row_groups(), serial.row_groups());
  EXPECT_EQ(par.sizes(), serial.sizes());
}

TEST_P(ParallelExecTest, StratificationBitIdenticalAcrossThreads) {
  const Table& t = TestTable();
  Stratification serial = [&] {
    ScopedExecThreads one(1);
    return std::move(Stratification::Build(t, {"country", "parameter"}))
        .ValueOrDie();
  }();
  ScopedExecThreads threads(GetParam());
  ASSERT_OK_AND_ASSIGN(Stratification par,
                       Stratification::Build(t, {"country", "parameter"}));
  EXPECT_EQ(par.row_strata(), serial.row_strata());
  EXPECT_EQ(par.sizes(), serial.sizes());
  EXPECT_EQ(par.first_rows(), serial.first_rows());
  ASSERT_EQ(par.num_strata(), serial.num_strata());
  for (size_t c = 0; c < serial.num_strata(); ++c) {
    EXPECT_EQ(par.key(c).codes, serial.key(c).codes);
  }
}

TEST_P(ParallelExecTest, AllSamplersBitIdenticalAcrossThreads) {
  const Table& t = TestTable();
  QuerySpec q = AllAggregatesQuery(false);
  const UniformSampler uniform;
  const SenateSampler senate;
  const CongressSampler congress;
  const CvoptSampler cvopt;
  for (const Sampler* sampler :
       {static_cast<const Sampler*>(&uniform),
        static_cast<const Sampler*>(&senate),
        static_cast<const Sampler*>(&congress),
        static_cast<const Sampler*>(&cvopt)}) {
    StratifiedSample serial = [&] {
      ScopedExecThreads one(1);
      Rng rng(1234);
      return std::move(sampler->Build(t, {q}, 15000, &rng)).ValueOrDie();
    }();
    ScopedExecThreads threads(GetParam());
    Rng rng(1234);
    ASSERT_OK_AND_ASSIGN(StratifiedSample par,
                         sampler->Build(t, {q}, 15000, &rng));
    // Per-stratum Rng::ForStratum streams plus the thread-count-independent
    // statistics chunking make every sampler's rows AND emission order
    // bit-identical at any thread count — including CVOPT, whose allocation
    // solves from floating-point statistics.
    EXPECT_EQ(par.rows(), serial.rows()) << sampler->name();
    EXPECT_EQ(par.weights(), serial.weights()) << sampler->name();
  }
}

TEST_P(ParallelExecTest, CvoptPlanBitIdenticalAcrossThreads) {
  const Table& t = TestTable();
  QuerySpec q = AllAggregatesQuery(false);
  AllocationPlan serial = [&] {
    ScopedExecThreads one(1);
    return std::move(PlanCvoptAllocation(t, {q}, 15000, {})).ValueOrDie();
  }();
  ScopedExecThreads threads(GetParam());
  ASSERT_OK_AND_ASSIGN(AllocationPlan par, PlanCvoptAllocation(t, {q}, 15000, {}));
  // The statistics pass chunks by input shape, never by thread count, so
  // betas — and the allocation solved from them — are exactly reproducible
  // (the sampler determinism contract depends on this).
  ASSERT_EQ(par.betas.size(), serial.betas.size());
  for (size_t c = 0; c < serial.betas.size(); ++c) {
    EXPECT_EQ(par.betas[c], serial.betas[c]) << "stratum " << c;
  }
  EXPECT_EQ(par.allocation.sizes, serial.allocation.sizes);
  // The CVOPT sampler build end-to-end still produces a valid sample.
  Rng rng(99);
  const CvoptSampler sampler;
  ASSERT_OK_AND_ASSIGN(StratifiedSample sample, sampler.Build(t, {q}, 15000, &rng));
  EXPECT_GT(sample.rows().size(), 0u);
  EXPECT_EQ(sample.rows().size(), sample.weights().size());
}

TEST_P(ParallelExecTest, ForcedRadixExecutorsMatchDefaultPaths) {
  // With the radix build forced, the executors take the partition-owned
  // accumulation path on unmasked queries (and the GroupIndex still yields
  // bit-identical ids); results must match the default serial path within
  // the float-summation tolerance, with MEDIAN and counts exact.
  const Table& t = TestTable();
  Rng srng(42);
  UniformSampler sampler;
  ASSERT_OK_AND_ASSIGN(StratifiedSample sample,
                       sampler.Build(t, {AllAggregatesQuery(false)}, 20000, &srng));
  for (bool filtered : {false, true}) {
    QueryResult serial_exact, serial_approx;
    {
      ScopedExecThreads one(1);
      ASSERT_OK_AND_ASSIGN(serial_exact,
                           ExecuteExact(t, AllAggregatesQuery(filtered)));
      ASSERT_OK_AND_ASSIGN(serial_approx,
                           ExecuteApprox(sample, AllAggregatesQuery(filtered)));
    }
    ScopedRadixOverride radix(/*mode=*/1, /*partitions=*/16);
    ScopedExecThreads threads(GetParam());
    ASSERT_OK_AND_ASSIGN(QueryResult par_exact,
                         ExecuteExact(t, AllAggregatesQuery(filtered)));
    ASSERT_OK_AND_ASSIGN(QueryResult par_approx,
                         ExecuteApprox(sample, AllAggregatesQuery(filtered)));
    ExpectResultsMatch(serial_exact, par_exact, /*weighted_counts=*/false);
    ExpectResultsMatch(serial_approx, par_approx, /*weighted_counts=*/true);
  }
}

TEST_P(ParallelExecTest, HugeGroupCountExecutorMatchesSerial) {
  // The many-keys regime (the radix path's target): ~tens of thousands of
  // groups over 100k rows. At >= 2 threads the automatic heuristic engages
  // the partitioned build; ids, counts, and sums must match the serial
  // chunk-merge path.
  const Table& t = TestTable();
  QuerySpec q;
  q.group_by = {"country", "parameter", "unit", "year", "month", "hour"};
  q.aggregates = {AggSpec::Avg("value"), AggSpec::Count(),
                  AggSpec::Variance("value")};
  QueryResult serial;
  {
    ScopedExecThreads one(1);
    ASSERT_OK_AND_ASSIGN(serial, ExecuteExact(t, q));
  }
  ScopedExecThreads threads(GetParam());
  ASSERT_OK_AND_ASSIGN(QueryResult par, ExecuteExact(t, q));
  ExpectResultsMatch(serial, par, /*weighted_counts=*/false);
}

TEST_P(ParallelExecTest, SamplersBitIdenticalWithForcedRadix) {
  // End-to-end over a radix-partitioned build: the stratification comes
  // from the partitioned GroupIndex, while the statistics pass keeps its
  // shape-fixed chunking — every sampler's rows and weights must still be
  // bit-identical to the default serial path (the sample determinism
  // contract).
  const Table& t = TestTable();
  QuerySpec q = AllAggregatesQuery(false);
  const UniformSampler uniform;
  const SenateSampler senate;
  const CvoptSampler cvopt;
  for (const Sampler* sampler : {static_cast<const Sampler*>(&uniform),
                                 static_cast<const Sampler*>(&senate),
                                 static_cast<const Sampler*>(&cvopt)}) {
    StratifiedSample serial = [&] {
      ScopedExecThreads one(1);
      Rng rng(5150);
      return std::move(sampler->Build(t, {q}, 12000, &rng)).ValueOrDie();
    }();
    ScopedRadixOverride radix(/*mode=*/1, /*partitions=*/8);
    ScopedExecThreads threads(GetParam());
    Rng rng(5150);
    ASSERT_OK_AND_ASSIGN(StratifiedSample par, sampler->Build(t, {q}, 12000, &rng));
    EXPECT_EQ(par.rows(), serial.rows()) << sampler->name();
    EXPECT_EQ(par.weights(), serial.weights()) << sampler->name();
  }
}

TEST_P(ParallelExecTest, ExecutorsBitIdenticalSimdOnVsOff) {
  // The vector kernels' determinism contract: with the SIMD backends
  // pinned off, exact and approx executors — masked and unmasked, default
  // and forced-radix builds — produce bitwise-identical values (not
  // tolerance-equal) at every thread count. Selection vectors keep the
  // same rows in the same order, so every float accumulates in the same
  // sequence. On hosts without a vector backend both passes are scalar.
  const Table& t = TestTable();
  Rng srng(42);
  UniformSampler sampler;
  ASSERT_OK_AND_ASSIGN(StratifiedSample sample,
                       sampler.Build(t, {AllAggregatesQuery(false)}, 20000,
                                     &srng));
  ScopedExecThreads threads(GetParam());
  for (const int radix_mode : {0, 1}) {
    ScopedRadixOverride radix(radix_mode, /*partitions=*/radix_mode ? 8 : 0);
    for (const bool filtered : {false, true}) {
      const QuerySpec q = AllAggregatesQuery(filtered);
      simd::SetEnabledForTesting(0);
      ASSERT_OK_AND_ASSIGN(QueryResult exact_scalar, ExecuteExact(t, q));
      ASSERT_OK_AND_ASSIGN(QueryResult approx_scalar,
                           ExecuteApprox(sample, q));
      simd::SetEnabledForTesting(1);
      ASSERT_OK_AND_ASSIGN(QueryResult exact_vec, ExecuteExact(t, q));
      ASSERT_OK_AND_ASSIGN(QueryResult approx_vec, ExecuteApprox(sample, q));
      auto expect_bitwise = [&](const QueryResult& a, const QueryResult& b) {
        ASSERT_EQ(a.num_groups(), b.num_groups());
        for (size_t i = 0; i < a.num_groups(); ++i) {
          ASSERT_EQ(a.label(i), b.label(i));
          for (size_t j = 0; j < a.num_aggregates(); ++j) {
            ASSERT_EQ(a.value(i, j), b.value(i, j))
                << "radix=" << radix_mode << " filtered=" << filtered
                << " group " << a.label(i) << " agg " << j;
          }
        }
      };
      expect_bitwise(exact_scalar, exact_vec);
      expect_bitwise(approx_scalar, approx_vec);
    }
  }
}

TEST_P(ParallelExecTest, StreamingBuilderBitIdenticalSimdOnVsOff) {
  // The streaming builder's range offer path (blockwise filter kernels)
  // must reproduce the per-row Offer loop exactly: same rows,
  // same weights, same RNG consumption — with the vector backend off and
  // on.
  const Table& t = TestTable();
  const QuerySpec q = AllAggregatesQuery(true);
  ScopedExecThreads threads(GetParam());
  StreamingCvoptSampler sampler(10'000);
  StratifiedSample scalar = [&] {
    simd::SetEnabledForTesting(0);
    Rng rng(777);
    return std::move(sampler.Build(t, {q}, 5000, &rng)).ValueOrDie();
  }();
  simd::SetEnabledForTesting(1);
  Rng rng(777);
  ASSERT_OK_AND_ASSIGN(StratifiedSample vec, sampler.Build(t, {q}, 5000, &rng));
  EXPECT_EQ(vec.rows(), scalar.rows());
  EXPECT_EQ(vec.weights(), scalar.weights());
}

TEST_P(ParallelExecTest, EmptyAndTinyTables) {
  OpenAqOptions opts;
  opts.num_rows = 0;
  Table empty = GenerateOpenAq(opts);
  opts.num_rows = 1;
  Table single = GenerateOpenAq(opts);

  ScopedExecThreads threads(GetParam(), 1);  // grain 1: force chunk attempts
  for (const Table* t : {&empty, &single}) {
    ASSERT_OK_AND_ASSIGN(QueryResult r,
                         ExecuteExact(*t, AllAggregatesQuery(false)));
    EXPECT_EQ(r.num_groups(), t->num_rows());
    ASSERT_OK_AND_ASSIGN(QueryResult rf,
                         ExecuteExact(*t, AllAggregatesQuery(true)));
    EXPECT_LE(rf.num_groups(), t->num_rows());
    ASSERT_OK_AND_ASSIGN(Stratification s,
                         Stratification::Build(*t, {"country"}));
    EXPECT_EQ(s.row_strata().size(), t->num_rows());
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelExecTest,
                         testing::Values(1, 2, 3, 8));

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ScopedExecThreads threads(8, 16);
  for (size_t n : {0u, 1u, 15u, 16u, 31u, 32u, 1000u, 100003u}) {
    std::vector<int> hits(n, 0);
    ParallelFor(n, [&](size_t, size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) hits[i]++;
    });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
              static_cast<long>(n));
  }
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ScopedExecThreads threads(4, 16);
  // A loop body that re-enters ParallelFor (e.g. a user callback calling
  // back into the engine) must resolve to one chunk and run inline — from
  // pool workers and from the draining caller alike.
  std::atomic<size_t> total{0};
  ParallelFor(64, [&](size_t, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      size_t inner = 0;
      ParallelFor(100, [&](size_t, size_t ilo, size_t ihi) {
        inner += ihi - ilo;
      });
      total += inner;
    }
  });
  EXPECT_EQ(total.load(), 64u * 100u);
}

TEST(ParallelForTest, ChunkBoundariesPartitionTheRange) {
  for (size_t n : {1u, 7u, 100u, 100003u}) {
    for (size_t chunks : {1u, 2u, 3u, 8u}) {
      EXPECT_EQ(ChunkBegin(n, chunks, 0), 0u);
      EXPECT_EQ(ChunkBegin(n, chunks, chunks), n);
      for (size_t c = 0; c < chunks; ++c) {
        EXPECT_LE(ChunkBegin(n, chunks, c), ChunkBegin(n, chunks, c + 1));
      }
    }
  }
}

}  // namespace
}  // namespace cvopt
