// Tests for the Section-5 aggregate extension: per-group VARIANCE and
// MEDIAN, exact and sample-estimated.
#include <gtest/gtest.h>

#include <cmath>

#include "src/estimate/approx_executor.h"
#include "src/exec/group_by_executor.h"
#include "src/sample/cvopt_sampler.h"
#include "src/sample/uniform_sampler.h"
#include "src/sql/parser.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

TEST(ExtendedAggTest, Labels) {
  EXPECT_EQ(AggSpec::Variance("v").Label(), "VAR(v)");
  EXPECT_EQ(AggSpec::Median("v").Label(), "MEDIAN(v)");
}

TEST(ExtendedAggTest, ExactVarianceByGroup) {
  Table t = MakeStudentTable();
  QuerySpec q;
  q.group_by = {"major"};
  q.aggregates = {AggSpec::Variance("gpa")};
  ASSERT_OK_AND_ASSIGN(QueryResult res, ExecuteExact(t, q));
  // CS gpas: 3.4, 3.1 -> mean 3.25, population var = 0.0225.
  auto cs = res.FindByLabel("CS");
  ASSERT_TRUE(cs.has_value());
  EXPECT_NEAR(res.value(*cs, 0), 0.0225, 1e-12);
}

TEST(ExtendedAggTest, ExactMedianOddAndEven) {
  // Odd group: 3 values; even group: 4 values (median = midpoint).
  Schema schema({{"g", DataType::kString}, {"v", DataType::kDouble}});
  TableBuilder b(schema);
  for (double v : {1.0, 9.0, 5.0}) ASSERT_OK(b.AppendRow({Value("odd"), Value(v)}));
  for (double v : {1.0, 3.0, 7.0, 9.0}) {
    ASSERT_OK(b.AppendRow({Value("even"), Value(v)}));
  }
  Table t = std::move(b).Finish();
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Median("v")};
  ASSERT_OK_AND_ASSIGN(QueryResult res, ExecuteExact(t, q));
  auto odd = res.FindByLabel("odd");
  auto even = res.FindByLabel("even");
  ASSERT_TRUE(odd.has_value());
  ASSERT_TRUE(even.has_value());
  EXPECT_DOUBLE_EQ(res.value(*odd, 0), 5.0);
  EXPECT_DOUBLE_EQ(res.value(*even, 0), 5.0);  // (3 + 7) / 2
}

TEST(ExtendedAggTest, FullBudgetSampleMatchesExactVariance) {
  Table t = MakeSkewedTable(4, 50);
  Rng rng(71);
  CvoptSampler cvopt;
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Variance("v"), AggSpec::Median("v")};
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, cvopt.Build(t, {q}, t.num_rows(), &rng));
  ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, q));
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
  const auto matched = MatchedGroups(exact, approx);
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    const auto j = matched[i];
    ASSERT_TRUE(j.has_value());
    EXPECT_NEAR(approx.value(*j, 0), exact.value(i, 0),
                1e-9 * std::max(1.0, exact.value(i, 0)));
    EXPECT_NEAR(approx.value(*j, 1), exact.value(i, 1),
                1e-9 * std::max(1.0, std::fabs(exact.value(i, 1))));
  }
}

TEST(ExtendedAggTest, SampledVarianceAndMedianAreClose) {
  Table t = MakeSkewedTable(4, 800, /*seed=*/73);
  Rng rng(79);
  CvoptSampler cvopt;
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Variance("v"), AggSpec::Median("v")};
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, cvopt.Build(t, {q}, 800, &rng));
  ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, q));
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
  const auto matched = MatchedGroups(exact, approx);
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    const auto j = matched[i];
    ASSERT_TRUE(j.has_value());
    // Variance: 30% relative tolerance at a ~25% per-group sampling rate.
    EXPECT_NEAR(approx.value(*j, 0), exact.value(i, 0),
                0.3 * exact.value(i, 0) + 1e-9);
    // Median: within 5% of the true median (means are ~10..40).
    EXPECT_NEAR(approx.value(*j, 1), exact.value(i, 1),
                0.05 * std::fabs(exact.value(i, 1)));
  }
}

TEST(ExtendedAggTest, WeightedMedianRespectsWeights) {
  // Stratified sample with unequal weights: rows of the big stratum carry
  // 10x weight, so the weighted median must come from the big stratum's
  // value range even though both strata contribute equal sample rows.
  Schema schema({{"g", DataType::kString}, {"v", DataType::kDouble}});
  TableBuilder b(schema);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_OK(b.AppendRow({Value("big"), Value(100.0 + (i % 10))}));
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(b.AppendRow({Value("small"), Value(1.0 + (i % 10))}));
  }
  Table t = std::move(b).Finish();
  Rng rng(83);
  // Build a senate-style 50/50 sample over g via CVOPT on equal budget.
  CvoptSampler cvopt;
  QuerySpec build_q;
  build_q.group_by = {"g"};
  build_q.aggregates = {AggSpec::Avg("v")};
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, cvopt.Build(t, {build_q}, 200, &rng));
  // Full-table median: 1100 rows, 1000 of them around ~104.5.
  QuerySpec q;
  q.aggregates = {AggSpec::Median("v")};
  ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, q));
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
  EXPECT_NEAR(approx.value(0, 0), exact.value(0, 0), 2.0);
  EXPECT_GT(approx.value(0, 0), 99.0);  // must land in the big stratum
}

TEST(ExtendedAggTest, SqlParsesVarAndMedian) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery p,
      ParseSql("SELECT g, VAR(v), MEDIAN(v), VARIANCE(w) FROM t GROUP BY g"));
  ASSERT_EQ(p.query.aggregates.size(), 3u);
  EXPECT_EQ(p.query.aggregates[0].Label(), "VAR(v)");
  EXPECT_EQ(p.query.aggregates[1].Label(), "MEDIAN(v)");
  EXPECT_EQ(p.query.aggregates[2].Label(), "VAR(w)");
}

TEST(ExtendedAggTest, AllocatorAcceptsExtendedAggregates) {
  Table t = MakeSkewedTable(3, 100);
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Variance("v")};
  ASSERT_OK_AND_ASSIGN(AllocationPlan plan, PlanCvoptAllocation(t, {q}, 60));
  EXPECT_EQ(plan.TotalSize(), 60u);
}

}  // namespace
}  // namespace cvopt
