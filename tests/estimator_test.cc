// Tests for the approximate executor: exactness at full budget, statistical
// unbiasedness, predicate handling, and regrouping.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <set>
#include <string>

#include "src/estimate/approx_executor.h"
#include "src/exec/group_by_executor.h"
#include "src/sample/cvopt_sampler.h"
#include "src/sample/stratified_sample.h"
#include "src/sample/uniform_sampler.h"
#include "src/server/sample_catalog.h"
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
  const auto matched = MatchedGroups(exact, approx);
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    const auto j = matched[i];
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
  const auto matched = MatchedGroups(exact, approx);
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    const auto j = matched[i];
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
    const auto matched = MatchedGroups(exact, approx);
    for (size_t i = 0; i < exact.num_groups(); ++i) {
      const auto j = matched[i];
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
  const auto matched = MatchedGroups(exact, approx);
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    const auto j = matched[i];
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
  const auto matched = MatchedGroups(exact, approx);
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    const auto j = matched[i];
    ASSERT_TRUE(j.has_value());
    EXPECT_NEAR(approx.value(*j, 0), exact.value(i, 0), 1e-9);
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
    // 60000 groups spread over a 2^19-entry direct remap: above the
    // 2^18-entry floor of the direct tier's radix build.
    for (int64_t r = 0; r < 120000; ++r) {
      Status st = b.AppendRow({Value(r % 60000 * 5),
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

// 6000 rows: int group g (5 groups), string city (40 common cities plus
// "rare-<k>" cities of one row each), double v.
Table MakeCityTable() {
  Schema schema({{"g", DataType::kInt64},
                 {"city", DataType::kString},
                 {"v", DataType::kDouble}});
  TableBuilder b(schema);
  Rng rng(23);
  for (int64_t r = 0; r < 6000; ++r) {
    const std::string city = r % 500 == 7
                                 ? "rare-" + std::to_string(r)
                                 : "c" + std::to_string((r * 7) % 40);
    Status st = b.AppendRow({Value(r % 5), Value(city),
                             Value(20.0 + 10.0 * rng.NextGaussian())});
    CVOPT_CHECK(st.ok(), "append failed");
  }
  return std::move(b).Finish();
}

QuerySpec AllAggregatesByG() {
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {
      AggSpec::Avg("v"),
      AggSpec::Sum("v"),
      AggSpec::Count(),
      AggSpec::CountIf(Predicate::Compare("v", CompareOp::kGt, Value(25.0))),
      AggSpec::Variance("v"),
      AggSpec::Median("v")};
  return q;
}

TEST(ApproxExecutorTest, CachedGroupIndexBitIdenticalToFreshBuild) {
  // A catalog-published sample answers its class's GROUP BY through the
  // GroupIndex cached at publish; a copy of the same sample without the
  // cache builds one per query. Every answer must match bit for bit: WHERE
  // off, numeric, string IN, and a string equality whose literal is in the
  // base dictionary but in no sampled row; the class's grouping and
  // regroupings (Section 6.3); serial and parallel.
  const Table t = MakeCityTable();
  const QuerySpec q = AllAggregatesByG();
  SampleCatalog catalog(11);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const StratifiedSample> published,
                       catalog.GetOrBuild(t, q, 0.1));
  ASSERT_NE(published->group_index(q.group_by), nullptr);
  EXPECT_EQ(published->group_index({"city"}), nullptr);
  StratifiedSample plain = *published;
  plain.set_group_index({}, nullptr);
  ASSERT_EQ(plain.group_index(q.group_by), nullptr);

  // A base-dictionary city that no sampled row carries.
  const Column& city = published->table().column(1);
  const std::set<int32_t> sampled(city.codes().begin(), city.codes().end());
  std::string absent;
  for (size_t c = 0; c < city.dictionary().size() && absent.empty(); ++c) {
    if (sampled.count(static_cast<int32_t>(c)) == 0) {
      absent = city.dictionary()[c];
    }
  }
  ASSERT_FALSE(absent.empty());

  const std::vector<PredicatePtr> wheres = {
      nullptr, Predicate::Compare("v", CompareOp::kLt, Value(22.0)),
      Predicate::In("city", {Value("c3"), Value("c10"), Value("c17")}),
      Predicate::Compare("city", CompareOp::kEq, Value(absent))};
  const std::vector<std::vector<std::string>> groupings = {
      {"g"}, {"city"}, {"g", "city"}, {}};
  for (int threads : {1, 4}) {
    ScopedExecThreads scope(threads);
    for (const auto& group_by : groupings) {
      for (size_t w = 0; w < wheres.size(); ++w) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads
                                        << " groups=" << group_by.size()
                                        << " where=" << w);
        QuerySpec query = q;
        query.group_by = group_by;
        query.where = wheres[w];
        ASSERT_OK_AND_ASSIGN(QueryResult cached,
                             ExecuteApprox(*published, query));
        ASSERT_OK_AND_ASSIGN(QueryResult fresh, ExecuteApprox(plain, query));
        ExpectBitIdentical(cached, fresh);
        if (w == 0) EXPECT_GT(cached.num_groups(), 0u);
        if (w == 3) EXPECT_EQ(cached.num_groups(), 0u);
      }
    }
  }
}

TEST(ApproxExecutorTest, SampleAnswersAfterBaseTableIsDestroyed) {
  // The sample owns its rows: once built it never reads the base table.
  auto base = std::make_unique<Table>(MakeCityTable());
  const QuerySpec q = AllAggregatesByG();
  Rng rng(31);
  CvoptSampler cvopt;
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, cvopt.Build(*base, {q}, 600, &rng));
  std::vector<QuerySpec> queries(3, q);
  queries[1].where = Predicate::In("city", {Value("c3"), Value("c10")});
  queries[2].group_by = {"city"};
  std::vector<QueryResult> before;
  for (const QuerySpec& query : queries) {
    ASSERT_OK_AND_ASSIGN(QueryResult r, ExecuteApprox(s, query));
    before.push_back(std::move(r));
  }
  base.reset();
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_OK_AND_ASSIGN(QueryResult after, ExecuteApprox(s, queries[i]));
    ExpectBitIdentical(before[i], after);
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
