// Tests for the sampling methods: budget adherence, weight calibration,
// stratum coverage, and each baseline's characteristic behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "src/sample/congress_sampler.h"
#include "src/sample/cvopt_sampler.h"
#include "src/sample/rl_sampler.h"
#include "src/sample/sample_seek_sampler.h"
#include "src/sample/senate_sampler.h"
#include "src/sample/uniform_sampler.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

QuerySpec SkewedQuery() {
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Avg("v")};
  return q;
}

double WeightSum(const StratifiedSample& s) {
  return std::accumulate(s.weights().begin(), s.weights().end(), 0.0);
}

class AllSamplersTest : public testing::TestWithParam<int> {
 protected:
  const Sampler& sampler() const {
    static UniformSampler uniform;
    static SenateSampler senate;
    static CongressSampler congress;
    static RlSampler rl;
    static SampleSeekSampler seek;
    static CvoptSampler cvopt;
    switch (GetParam()) {
      case 0: return uniform;
      case 1: return senate;
      case 2: return congress;
      case 3: return rl;
      case 4: return seek;
      default: return cvopt;
    }
  }
};

TEST_P(AllSamplersTest, RespectsBudgetApproximately) {
  Table t = MakeSkewedTable(10, 200);
  Rng rng(11);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       sampler().Build(t, {SkewedQuery()}, 500, &rng));
  EXPECT_LE(s.size(), 510u);  // tiny slack for per-stratum minimums
  EXPECT_GE(s.size(), 400u);
}

TEST_P(AllSamplersTest, WeightsExpandToPopulation) {
  // Sum of HT weights estimates the table size for every design.
  Table t = MakeSkewedTable(8, 100);
  Rng rng(13);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       sampler().Build(t, {SkewedQuery()}, 600, &rng));
  EXPECT_NEAR(WeightSum(s), static_cast<double>(t.num_rows()),
              0.15 * t.num_rows())
      << sampler().name();
}

TEST_P(AllSamplersTest, RowsAreValid) {
  Table t = MakeSkewedTable(5, 50);
  Rng rng(17);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       sampler().Build(t, {SkewedQuery()}, 100, &rng));
  for (uint32_t r : s.rows()) EXPECT_LT(r, t.num_rows());
  for (double w : s.weights()) EXPECT_GT(w, 0.0);
  EXPECT_EQ(s.rows().size(), s.weights().size());
}

std::string SamplerCaseName(const testing::TestParamInfo<int>& info) {
  static const char* kNames[] = {"Uniform", "Senate",     "Congress",
                                 "RL",      "SampleSeek", "Cvopt"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(Methods, AllSamplersTest, testing::Range(0, 6),
                         SamplerCaseName);

TEST(UniformSamplerTest, ExactBudgetWithoutReplacement) {
  Table t = MakeSkewedTable(4, 100);
  Rng rng(19);
  UniformSampler u;
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, u.Build(t, {}, 137, &rng));
  EXPECT_EQ(s.size(), 137u);
  std::set<uint32_t> distinct(s.rows().begin(), s.rows().end());
  EXPECT_EQ(distinct.size(), 137u);
  // Uniform weights: all equal to N / M.
  for (double w : s.weights()) {
    EXPECT_DOUBLE_EQ(w, static_cast<double>(t.num_rows()) / 137.0);
  }
}

TEST(UniformSamplerTest, BudgetAboveTableTakesAll) {
  Table t = MakeSkewedTable(2, 10);
  Rng rng(23);
  UniformSampler u;
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, u.Build(t, {}, 10000, &rng));
  EXPECT_EQ(s.size(), t.num_rows());
}

TEST(SenateSamplerTest, EqualAllocationAcrossStrata) {
  Table t = MakeSkewedTable(5, 200);  // sizes 200..1000
  Rng rng(29);
  SenateSampler senate;
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       senate.Build(t, {SkewedQuery()}, 500, &rng));
  // Count per stratum: all should be ~100.
  ASSERT_NE(s.stratification(), nullptr);
  std::vector<int> per(s.stratification()->num_strata(), 0);
  for (uint32_t r : s.rows()) per[s.stratification()->StratumOfRow(r)]++;
  for (int c : per) EXPECT_EQ(c, 100);
}

TEST(EqualAllocationTest, RedistributesCappedLeftovers) {
  // caps {10, 1000, 1000}, budget 300: stratum 0 saturates at 10 and its
  // leftover flows to the others.
  std::vector<uint64_t> out = EqualAllocation({10, 1000, 1000}, 300);
  EXPECT_EQ(out[0], 10u);
  EXPECT_EQ(out[1] + out[2], 290u);
  EXPECT_EQ(std::abs(static_cast<int>(out[1]) - static_cast<int>(out[2])), 0);
}

TEST(EqualAllocationTest, BudgetBeyondCapacity) {
  std::vector<uint64_t> out = EqualAllocation({5, 5}, 100);
  EXPECT_EQ(out[0], 5u);
  EXPECT_EQ(out[1], 5u);
}

TEST(CongressSamplerTest, SmallGroupsBeatUniformShare) {
  // With heavy skew, congress gives small groups at least their senate-ish
  // share — far above their proportional share.
  Table t = MakeSkewedTable(10, 100);  // sizes 100..1000, total 5500
  Rng rng(31);
  CongressSampler cs;
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       cs.Build(t, {SkewedQuery()}, 550, &rng));
  ASSERT_NE(s.stratification(), nullptr);
  std::vector<int> per(s.stratification()->num_strata(), 0);
  for (uint32_t r : s.rows()) per[s.stratification()->StratumOfRow(r)]++;
  // Smallest group (100 rows, proportional share 10): congress gives more.
  for (size_t c = 0; c < per.size(); ++c) {
    if (s.stratification()->sizes()[c] == 100) {
      EXPECT_GT(per[c], 20);
    }
  }
}

TEST(RlSamplerTest, TruncatesWithoutRedistribution) {
  // One tiny group with huge CV: RL wants to give it many rows but the
  // group only has 5; the surplus must NOT show up elsewhere.
  Schema schema({{"g", DataType::kString}, {"v", DataType::kDouble}});
  TableBuilder b(schema);
  Rng gen(37);
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(b.AppendRow({Value("tiny"), Value(gen.NextDouble() * 1000)}));
  }
  for (int i = 0; i < 2000; ++i) {
    ASSERT_OK(b.AppendRow({Value("big"), Value(100.0 + gen.NextGaussian())}));
  }
  Table t = std::move(b).Finish();
  Rng rng(41);
  RlSampler rl;
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Avg("v")};
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, rl.Build(t, {q}, 200, &rng));
  // The tiny group is fully taken (5 rows) and the total is well under
  // budget because RL wastes the surplus.
  ASSERT_NE(s.stratification(), nullptr);
  std::vector<int> per(s.stratification()->num_strata(), 0);
  for (uint32_t r : s.rows()) per[s.stratification()->StratumOfRow(r)]++;
  for (size_t c = 0; c < per.size(); ++c) {
    if (s.stratification()->sizes()[c] == 5) {
      EXPECT_EQ(per[c], 5);
    }
  }
  EXPECT_LT(s.size(), 200u);
}

TEST(RlSamplerTest, StaysWithinBudgetWithMoreStrataThanRows) {
  // 50 non-empty groups against a 20-row budget: the one-row minimums
  // alone exceed it, so only 20 groups keep a row.
  Schema schema({{"g", DataType::kInt64}, {"v", DataType::kDouble}});
  TableBuilder b(schema);
  Rng gen(53);
  for (int64_t g = 0; g < 50; ++g) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_OK(b.AppendRow(
          {Value(g), Value(100.0 + static_cast<double>(g) * gen.NextGaussian())}));
    }
  }
  Table t = std::move(b).Finish();
  Rng rng(59);
  RlSampler rl;
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Avg("v")};
  const uint64_t budget = 20;
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, rl.Build(t, {q}, budget, &rng));
  EXPECT_LE(s.size(), budget);
  ASSERT_NE(s.stratification(), nullptr);
  std::vector<int> per(s.stratification()->num_strata(), 0);
  for (uint32_t r : s.rows()) per[s.stratification()->StratumOfRow(r)]++;
  for (int n : per) EXPECT_LE(n, 1);
}

TEST(SampleSeekSamplerTest, BiasedTowardLargeValues) {
  Schema schema({{"g", DataType::kString}, {"v", DataType::kDouble}});
  TableBuilder b(schema);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_OK(b.AppendRow({Value("small"), Value(1.0)}));
    ASSERT_OK(b.AppendRow({Value("large"), Value(100.0)}));
  }
  Table t = std::move(b).Finish();
  Rng rng(43);
  SampleSeekSampler seek;
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Avg("v")};
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, seek.Build(t, {q}, 200, &rng));
  ASSERT_OK_AND_ASSIGN(const Column* v, t.ColumnByName("v"));
  int large = 0;
  for (uint32_t r : s.rows()) large += v->GetDouble(r) > 50;
  // ~99% of the mass sits on the large rows.
  EXPECT_GT(large, 180);
}

TEST(SampleSeekSamplerTest, FallsBackToUniformForCountOnly) {
  Table t = MakeSkewedTable(3, 100);
  Rng rng(47);
  SampleSeekSampler seek;
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Count()};
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, seek.Build(t, {q}, 100, &rng));
  EXPECT_EQ(s.method(), "Sample+Seek");
  EXPECT_EQ(s.size(), 100u);
}

TEST(CvoptSamplerTest, CoversEveryStratum) {
  Table t = MakeSkewedTable(12, 40);
  Rng rng(53);
  CvoptSampler cvopt;
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       cvopt.Build(t, {SkewedQuery()}, 240, &rng));
  ASSERT_NE(s.stratification(), nullptr);
  std::set<uint32_t> covered;
  for (uint32_t r : s.rows()) covered.insert(s.stratification()->StratumOfRow(r));
  EXPECT_EQ(covered.size(), s.stratification()->num_strata());
}

TEST(CvoptSamplerTest, NamesReflectNorm) {
  CvoptSampler l2;
  EXPECT_EQ(l2.name(), "CVOPT");
  AllocatorOptions opts;
  opts.norm = CvNorm::kLinf;
  CvoptSampler linf(opts);
  EXPECT_EQ(linf.name(), "CVOPT-INF");
}

TEST(CvoptSamplerTest, PlanExposesAllocation) {
  Table t = MakeSkewedTable(4, 100);
  CvoptSampler cvopt;
  ASSERT_OK_AND_ASSIGN(AllocationPlan plan,
                       cvopt.Plan(t, {SkewedQuery()}, 100));
  EXPECT_EQ(plan.TotalSize(), 100u);
  EXPECT_EQ(plan.betas.size(), 4u);
}

TEST(DrawStratifiedTest, OversizedAllocationTakesAll) {
  // Allocations at or above the stratum population clamp to take-all: the
  // whole stratum at weight 1, no error (the Lemma-1 solver caps at n_c,
  // but hand-written or replayed allocations may not).
  Table t = MakeSkewedTable(2, 10);  // stratum sizes 10 and 20
  ASSERT_OK_AND_ASSIGN(Stratification strat, Stratification::Build(t, {"g"}));
  auto shared = std::make_shared<Stratification>(std::move(strat));
  Rng rng(59);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       DrawStratified(t, shared, {100000, 1}, "x", &rng));
  std::vector<int> per(2, 0);
  for (uint32_t r : s.rows()) per[shared->StratumOfRow(r)]++;
  EXPECT_EQ(per[0], static_cast<int>(shared->sizes()[0]));
  EXPECT_EQ(per[1], 1);
  // The clamp is no longer silent: stratum 0 (allocation >= population) is
  // flagged as served exactly, stratum 1 (1 of 20 rows) is not.
  ASSERT_EQ(s.stratum_exhaustive().size(), 2u);
  EXPECT_EQ(s.stratum_exhaustive()[0], 1);
  EXPECT_EQ(s.stratum_exhaustive()[1], 0);
  EXPECT_EQ(s.num_exhaustive_strata(), 1u);
  EXPECT_FALSE(DrawStratified(t, shared, {1}, "x", &rng).ok());  // wrong size
}

TEST(DrawStratifiedTest, ExactAllocationCountsAsExhaustive) {
  // An allocation exactly equal to the population takes every row too —
  // flagged the same as an over-population clamp.
  Table t = MakeSkewedTable(2, 10);  // stratum sizes 10 and 20
  ASSERT_OK_AND_ASSIGN(Stratification strat, Stratification::Build(t, {"g"}));
  auto shared = std::make_shared<Stratification>(std::move(strat));
  Rng rng(60);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       DrawStratified(t, shared, {10, 19}, "x", &rng));
  EXPECT_EQ(s.stratum_exhaustive()[0], 1);
  EXPECT_EQ(s.stratum_exhaustive()[1], 0);
}

}  // namespace
}  // namespace cvopt
