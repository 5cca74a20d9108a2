// Tests for the approximate executor: exactness at full budget, statistical
// unbiasedness, predicate handling, and regrouping.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "src/estimate/approx_executor.h"
#include "src/exec/group_by_executor.h"
#include "src/sample/cvopt_sampler.h"
#include "src/sample/stratified_sample.h"
#include "src/sample/uniform_sampler.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

QuerySpec AvgV() {
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Avg("v")};
  return q;
}

TEST(ApproxExecutorTest, FullBudgetSampleIsExact) {
  Table t = MakeSkewedTable(4, 30);
  Rng rng(61);
  CvoptSampler cvopt;
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       cvopt.Build(t, {AvgV()}, t.num_rows(), &rng));
  ASSERT_EQ(s.size(), t.num_rows());
  ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, AvgV()));
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, AvgV()));
  ASSERT_EQ(approx.num_groups(), exact.num_groups());
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    auto j = approx.Find(exact.key(i));
    ASSERT_TRUE(j.has_value());
    EXPECT_NEAR(approx.value(*j, 0), exact.value(i, 0),
                1e-9 * std::fabs(exact.value(i, 0)));
  }
}

TEST(ApproxExecutorTest, CountAndSumScaleUp) {
  Table t = MakeSkewedTable(3, 100);  // group sizes 100, 200, 300
  Rng rng(67);
  CvoptSampler cvopt;
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Count(), AggSpec::Sum("v")};
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, cvopt.Build(t, {q}, 150, &rng));
  ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, q));
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    auto j = approx.Find(exact.key(i));
    ASSERT_TRUE(j.has_value()) << exact.label(i);
    // COUNT from a stratified sample on the grouping attrs is exact: the
    // HT weights per stratum sum to n_c.
    EXPECT_NEAR(approx.value(*j, 0), exact.value(i, 0), 1e-6);
    // SUM is a noisy but calibrated estimate.
    EXPECT_NEAR(approx.value(*j, 1), exact.value(i, 1),
                0.25 * std::fabs(exact.value(i, 1)));
  }
}

TEST(ApproxExecutorTest, UnbiasedOverRepetitions) {
  // The average of many independent AVG estimates converges to the truth.
  Table t = MakeSkewedTable(3, 60, /*seed=*/71);
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, AvgV()));
  UniformSampler uniform;

  std::vector<double> acc(exact.num_groups(), 0.0);
  std::vector<int> seen(exact.num_groups(), 0);
  const int reps = 300;
  Rng rng(73);
  for (int rep = 0; rep < reps; ++rep) {
    ASSERT_OK_AND_ASSIGN(StratifiedSample s, uniform.Build(t, {}, 120, &rng));
    ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, AvgV()));
    for (size_t i = 0; i < exact.num_groups(); ++i) {
      auto j = approx.Find(exact.key(i));
      if (j.has_value()) {
        acc[i] += approx.value(*j, 0);
        seen[i]++;
      }
    }
  }
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    ASSERT_GT(seen[i], reps / 2);
    const double mean_est = acc[i] / seen[i];
    EXPECT_NEAR(mean_est, exact.value(i, 0), 0.02 * std::fabs(exact.value(i, 0)))
        << exact.label(i);
  }
}

TEST(ApproxExecutorTest, RuntimePredicateOnSample) {
  Table t = MakeStudentTable();
  Rng rng(79);
  CvoptSampler cvopt;
  QuerySpec build_q;
  build_q.group_by = {"major"};
  build_q.aggregates = {AggSpec::Avg("gpa")};
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       cvopt.Build(t, {build_q}, t.num_rows(), &rng));

  QuerySpec pred_q = build_q;
  pred_q.where = Predicate::Compare("college", CompareOp::kEq, "Science");
  ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, pred_q));
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, pred_q));
  ASSERT_EQ(approx.num_groups(), exact.num_groups());  // CS and Math only
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    auto j = approx.Find(exact.key(i));
    ASSERT_TRUE(j.has_value());
    EXPECT_NEAR(approx.value(*j, 0), exact.value(i, 0), 1e-9);
  }
}

TEST(ApproxExecutorTest, RegroupingOnCoarserAttrs) {
  // Sample stratified by (major); query regrouped by nothing (full table).
  Table t = MakeStudentTable();
  Rng rng(83);
  CvoptSampler cvopt;
  QuerySpec build_q;
  build_q.group_by = {"major"};
  build_q.aggregates = {AggSpec::Avg("age")};
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       cvopt.Build(t, {build_q}, t.num_rows(), &rng));
  QuerySpec full;
  full.aggregates = {AggSpec::Avg("age"), AggSpec::Count()};
  ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, full));
  ASSERT_EQ(approx.num_groups(), 1u);
  EXPECT_NEAR(approx.value(0, 0), 24.5, 1e-9);  // exact: full sample
  EXPECT_NEAR(approx.value(0, 1), 8.0, 1e-9);
}

TEST(ApproxExecutorTest, CountIfEstimate) {
  Table t = MakeStudentTable();
  Rng rng(89);
  CvoptSampler cvopt;
  QuerySpec q;
  q.group_by = {"college"};
  q.aggregates = {
      AggSpec::CountIf(Predicate::Compare("gpa", CompareOp::kGt, 3.4))};
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, cvopt.Build(t, {q}, t.num_rows(), &rng));
  ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, q));
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    auto j = approx.Find(exact.key(i));
    ASSERT_TRUE(j.has_value());
    EXPECT_NEAR(approx.value(*j, 0), exact.value(i, 0), 1e-9);
  }
}

// Bitwise equality of two results: same groups in the same order, with
// value doubles compared by representation, not tolerance.
void ExpectBitIdentical(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.num_groups(), b.num_groups());
  ASSERT_EQ(a.num_aggregates(), b.num_aggregates());
  for (size_t i = 0; i < a.num_groups(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    for (size_t j = 0; j < a.num_aggregates(); ++j) {
      const double x = a.value(i, j);
      const double y = b.value(i, j);
      EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
          << "group " << a.label(i) << " agg " << j << ": " << x << " vs "
          << y;
    }
  }
}

TEST(ApproxExecutorTest, UnitWeightFullSampleBitIdenticalToExact) {
  // The approximate answer is the exact aggregate with a weight on every
  // sampled row, so a sample of every row in ascending order with every
  // weight 1.0 must answer bit for bit as the exact executor does — for
  // every aggregate, with and without WHERE, on the chunk-merged small-G
  // path and the radix-partitioned many-group path, serial and parallel.
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {
      AggSpec::Avg("v"),
      AggSpec::Sum("v"),
      AggSpec::Count(),
      AggSpec::CountIf(Predicate::Compare("v", CompareOp::kGt, Value(20.0))),
      AggSpec::Variance("v"),
      AggSpec::Median("v")};
  QuerySpec filtered = q;
  filtered.where = Predicate::Compare("v", CompareOp::kLt, Value(40.0));

  const Table small = MakeSkewedTable(7, 100);
  const Table many = [] {
    Schema schema({{"g", DataType::kInt64}, {"v", DataType::kDouble}});
    TableBuilder b(schema);
    Rng rng(5);
    for (int64_t r = 0; r < 120000; ++r) {
      Status st = b.AppendRow({Value(r % 60000),
                               Value(30.0 + 10.0 * rng.NextGaussian())});
      CVOPT_CHECK(st.ok(), "append failed");
    }
    return std::move(b).Finish();
  }();
  {
    // Precondition: at 4 threads the many-group table's grouping takes the
    // radix-partitioned build (partition-owned slabs); the small one merges
    // per-chunk slabs.
    ScopedExecThreads scope(4);
    ASSERT_OK_AND_ASSIGN(GroupIndex gmany, GroupIndex::Build(many, {"g"}));
    EXPECT_NE(gmany.partitions(), nullptr);
    ASSERT_OK_AND_ASSIGN(GroupIndex gsmall, GroupIndex::Build(small, {"g"}));
    EXPECT_EQ(gsmall.partitions(), nullptr);
  }
  for (const Table* t : {&small, &many}) {
    std::vector<uint32_t> rows(t->num_rows());
    std::iota(rows.begin(), rows.end(), 0u);
    const StratifiedSample sample(t, rows,
                                  std::vector<double>(rows.size(), 1.0),
                                  "unit");
    for (int threads : {1, 4}) {
      ScopedExecThreads scope(threads);
      for (const QuerySpec* query : {&q, &filtered}) {
        SCOPED_TRACE(testing::Message()
                     << "rows=" << t->num_rows() << " threads=" << threads
                     << " where=" << (query->where != nullptr));
        ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(*t, *query));
        ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(sample, *query));
        ExpectBitIdentical(exact, approx);
      }
    }
  }
}

TEST(ApproxExecutorTest, ErrorsOnBadQueries) {
  Table t = MakeStudentTable();
  Rng rng(97);
  UniformSampler u;
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, u.Build(t, {}, 4, &rng));
  QuerySpec no_aggs;
  EXPECT_FALSE(ExecuteApprox(s, no_aggs).ok());
  QuerySpec bad_group;
  bad_group.group_by = {"gpa"};
  bad_group.aggregates = {AggSpec::Count()};
  EXPECT_FALSE(ExecuteApprox(s, bad_group).ok());
  QuerySpec bad_agg;
  bad_agg.aggregates = {AggSpec::Avg("major")};
  EXPECT_FALSE(ExecuteApprox(s, bad_agg).ok());
}

}  // namespace
}  // namespace cvopt
