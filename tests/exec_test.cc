// Tests for src/exec: exact group-by execution, aggregates, cube expansion,
// result joins.
#include <gtest/gtest.h>

#include "src/exec/cube.h"
#include "src/exec/group_by_executor.h"
#include "src/exec/result_join.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

TEST(AggSpecTest, Labels) {
  EXPECT_EQ(AggSpec::Avg("gpa").Label(), "AVG(gpa)");
  EXPECT_EQ(AggSpec::Sum("age").Label(), "SUM(age)");
  EXPECT_EQ(AggSpec::Count().Label(), "COUNT(*)");
  EXPECT_EQ(AggSpec::CountIf(Predicate::Compare("v", CompareOp::kGt, 1)).Label(),
            "COUNT_IF(v > 1)");
}

TEST(BoundAggregatesTest, RejectsBadSpecs) {
  Table t = MakeStudentTable();
  EXPECT_FALSE(BoundAggregates::Bind(t, {AggSpec::Avg("missing")}).ok());
  EXPECT_FALSE(BoundAggregates::Bind(t, {AggSpec::Avg("major")}).ok());
  AggSpec bad_countif{AggFunc::kCountIf, "", nullptr, 1.0};
  EXPECT_FALSE(BoundAggregates::Bind(t, {bad_countif}).ok());
}

TEST(ExecuteExactTest, PaperExampleAvgGpaByMajor) {
  Table t = MakeStudentTable();
  QuerySpec q;
  q.group_by = {"major"};
  q.aggregates = {AggSpec::Avg("gpa")};
  ASSERT_OK_AND_ASSIGN(QueryResult res, ExecuteExact(t, q));
  ASSERT_EQ(res.num_groups(), 4u);
  auto cs = res.FindByLabel("CS");
  ASSERT_TRUE(cs.has_value());
  EXPECT_DOUBLE_EQ(res.value(*cs, 0), 3.25);
  auto math = res.FindByLabel("Math");
  ASSERT_TRUE(math.has_value());
  EXPECT_DOUBLE_EQ(res.value(*math, 0), 3.7);
}

TEST(ExecuteExactTest, MultipleAggregates) {
  Table t = MakeStudentTable();
  QuerySpec q;
  q.group_by = {"college"};
  q.aggregates = {AggSpec::Avg("age"), AggSpec::Sum("sat"), AggSpec::Count()};
  ASSERT_OK_AND_ASSIGN(QueryResult res, ExecuteExact(t, q));
  ASSERT_EQ(res.num_groups(), 2u);
  auto sci = res.FindByLabel("Science");
  ASSERT_TRUE(sci.has_value());
  EXPECT_DOUBLE_EQ(res.value(*sci, 0), (25 + 22 + 24 + 28) / 4.0);
  EXPECT_DOUBLE_EQ(res.value(*sci, 1), 1250 + 1280 + 1230 + 1270);
  EXPECT_DOUBLE_EQ(res.value(*sci, 2), 4.0);
}

TEST(ExecuteExactTest, WherePredicateFiltersRows) {
  Table t = MakeStudentTable();
  QuerySpec q;
  q.group_by = {"major"};
  q.aggregates = {AggSpec::Avg("gpa")};
  q.where = Predicate::Compare("college", CompareOp::kEq, "Science");
  ASSERT_OK_AND_ASSIGN(QueryResult res, ExecuteExact(t, q));
  EXPECT_EQ(res.num_groups(), 2u);  // only CS and Math survive
  EXPECT_FALSE(res.FindByLabel("EE").has_value());
}

TEST(ExecuteExactTest, CountIfAggregate) {
  Table t = MakeStudentTable();
  QuerySpec q;
  q.group_by = {"college"};
  q.aggregates = {
      AggSpec::CountIf(Predicate::Compare("gpa", CompareOp::kGt, 3.4))};
  ASSERT_OK_AND_ASSIGN(QueryResult res, ExecuteExact(t, q));
  auto sci = res.FindByLabel("Science");
  auto eng = res.FindByLabel("Engineering");
  ASSERT_TRUE(sci.has_value());
  ASSERT_TRUE(eng.has_value());
  EXPECT_DOUBLE_EQ(res.value(*sci, 0), 2.0);  // 3.8, 3.6
  EXPECT_DOUBLE_EQ(res.value(*eng, 0), 2.0);  // 3.5, 3.7
}

TEST(ExecuteExactTest, EmptyGroupByIsFullTable) {
  Table t = MakeStudentTable();
  QuerySpec q;
  q.aggregates = {AggSpec::Count()};
  ASSERT_OK_AND_ASSIGN(QueryResult res, ExecuteExact(t, q));
  ASSERT_EQ(res.num_groups(), 1u);
  EXPECT_DOUBLE_EQ(res.value(0, 0), 8.0);
}

TEST(ExecuteExactTest, GroupByMultipleAttrs) {
  Table t = MakeStudentTable();
  QuerySpec q;
  q.group_by = {"college", "major"};
  q.aggregates = {AggSpec::Count()};
  ASSERT_OK_AND_ASSIGN(QueryResult res, ExecuteExact(t, q));
  EXPECT_EQ(res.num_groups(), 4u);
  auto g = res.FindByLabel("Science|CS");
  ASSERT_TRUE(g.has_value());
  EXPECT_DOUBLE_EQ(res.value(*g, 0), 2.0);
}

TEST(ExecuteExactTest, ErrorsOnBadQuery) {
  Table t = MakeStudentTable();
  QuerySpec no_aggs;
  no_aggs.group_by = {"major"};
  EXPECT_FALSE(ExecuteExact(t, no_aggs).ok());

  QuerySpec bad_group;
  bad_group.group_by = {"gpa"};  // double column
  bad_group.aggregates = {AggSpec::Count()};
  EXPECT_FALSE(ExecuteExact(t, bad_group).ok());
}

TEST(AccumulateSourcesTest, PartitionedPassesAddToEarlierPasses) {
  // Two passes over a radix-partitioned build into one accumulator hold
  // twice one pass: counts, weight sums and sums double (x + x == 2x
  // exactly), MEDIAN buffers hold each value twice.
  Table t = MakeSkewedTable(40, 30);
  ScopedRadixOverride radix(/*mode=*/1, /*partitions=*/8);
  ScopedExecThreads threads(4);
  ASSERT_OK_AND_ASSIGN(GroupIndex gidx, GroupIndex::Build(t, {"g"}));
  ASSERT_NE(gidx.partitions(), nullptr);
  std::vector<uint32_t> sel;
  for (uint32_t i = 0; i < t.num_rows(); ++i) {
    if (i % 3 != 0) sel.push_back(i);
  }
  const std::vector<double> weights(t.num_rows(), 1.5);
  const std::vector<AggSpec> aggs = {AggSpec::Count(), AggSpec::Sum("v"),
                                     AggSpec::Variance("v"),
                                     AggSpec::Median("v")};
  std::vector<ValueSpan> values(aggs.size());
  for (size_t j = 1; j < aggs.size(); ++j) {
    values[j].doubles = t.column(1).doubles().data();
  }
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted);
    GroupedPass pass;
    pass.num_groups = gidx.num_groups();
    pass.row_groups = &gidx.row_groups();
    pass.sizes = &gidx.sizes();
    pass.parts = gidx.partitions().get();
    pass.sel = &sel;
    pass.weights = weighted ? &weights : nullptr;
    GroupedAccumulators once, twice;
    AccumulateSources(pass, aggs, values, &once);
    AccumulateSources(pass, aggs, values, &twice);
    AccumulateSources(pass, aggs, values, &twice);
    for (size_t g = 0; g < gidx.num_groups(); ++g) {
      ASSERT_GT(once.cnt[g], 0u);
      EXPECT_EQ(twice.cnt[g], 2 * once.cnt[g]);
      if (weighted) {
        EXPECT_EQ(twice.wcnt[g], 2 * once.wcnt[g]);
      }
      EXPECT_EQ(twice.sums[1][g], 2 * once.sums[1][g]);
      EXPECT_EQ(twice.sums[2][g], 2 * once.sums[2][g]);
      EXPECT_EQ(twice.sums2[2][g], 2 * once.sums2[2][g]);
      const size_t median_len = weighted ? once.median_pairs[3][g].size()
                                         : once.median_values[3][g].size();
      EXPECT_EQ(median_len, once.cnt[g]);
      EXPECT_EQ(weighted ? twice.median_pairs[3][g].size()
                         : twice.median_values[3][g].size(),
                2 * median_len);
    }
  }
}

TEST(QueryResultTest, DuplicateGroupRejected) {
  QueryResult r({"COUNT(*)"}, {"g"});
  ASSERT_OK(r.AddGroup(GroupKey{{1}}, "1", {2.0}));
  EXPECT_FALSE(r.AddGroup(GroupKey{{1}}, "1", {3.0}).ok());
  EXPECT_FALSE(r.AddGroup(GroupKey{{2}}, "2", {1.0, 2.0}).ok());  // width
}

TEST(QuerySpecTest, ToStringRendersSql) {
  QuerySpec q;
  q.name = "T1";
  q.group_by = {"major"};
  q.aggregates = {AggSpec::Avg("gpa")};
  q.where = Predicate::Compare("age", CompareOp::kGt, 21);
  EXPECT_EQ(q.ToString(),
            "[T1] SELECT major, AVG(gpa) WHERE age > 21 GROUP BY major");
}

TEST(CubeTest, ExpandsAllSubsets) {
  QuerySpec base;
  base.name = "C";
  base.group_by = {"a", "b"};
  base.aggregates = {AggSpec::Count()};
  std::vector<QuerySpec> cube = ExpandCube(base);
  ASSERT_EQ(cube.size(), 4u);
  EXPECT_EQ(cube[0].group_by, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(cube[3].group_by, (std::vector<std::string>{}));
  EXPECT_EQ(cube[0].name, "C/a,b");
  EXPECT_EQ(cube[3].name, "C/()");
}

TEST(CubeTest, SingleAttribute) {
  QuerySpec base;
  base.group_by = {"x"};
  base.aggregates = {AggSpec::Count()};
  EXPECT_EQ(ExpandCube(base).size(), 2u);
}

TEST(CubeTest, ThreeAttributesGive8Sets) {
  QuerySpec base;
  base.group_by = {"a", "b", "c"};
  base.aggregates = {AggSpec::Count()};
  EXPECT_EQ(ExpandCube(base).size(), 8u);
}

TEST(ResultJoinTest, DiffMatchesAq1Shape) {
  Table t = MakeStudentTable();
  QuerySpec science, engineering;
  science.group_by = {"major"};
  science.aggregates = {AggSpec::Avg("gpa")};
  science.where = Predicate::Compare("college", CompareOp::kEq, "Science");
  engineering = science;
  engineering.where =
      Predicate::Compare("college", CompareOp::kEq, "Engineering");

  ASSERT_OK_AND_ASSIGN(QueryResult a, ExecuteExact(t, science));
  ASSERT_OK_AND_ASSIGN(QueryResult b, ExecuteExact(t, engineering));
  // Majors don't overlap across colleges here -> empty inner join.
  ASSERT_OK_AND_ASSIGN(QueryResult diff, DiffResults(a, b));
  EXPECT_EQ(diff.num_groups(), 0u);

  // Self-join minus self = all zeros.
  ASSERT_OK_AND_ASSIGN(QueryResult zero, DiffResults(a, a));
  ASSERT_EQ(zero.num_groups(), a.num_groups());
  for (size_t i = 0; i < zero.num_groups(); ++i) {
    EXPECT_DOUBLE_EQ(zero.value(i, 0), 0.0);
  }
}

TEST(ResultJoinTest, CustomCombine) {
  QueryResult a({"v"}, {"g"}), b({"v"}, {"g"});
  ASSERT_OK(a.AddGroup(GroupKey{{1}}, "1", {10.0}));
  ASSERT_OK(a.AddGroup(GroupKey{{2}}, "2", {20.0}));
  ASSERT_OK(b.AddGroup(GroupKey{{1}}, "1", {4.0}));
  ASSERT_OK_AND_ASSIGN(
      QueryResult ratio,
      JoinResults(a, b, [](double x, double y) { return x / y; }, {"ratio"}));
  ASSERT_EQ(ratio.num_groups(), 1u);
  EXPECT_DOUBLE_EQ(ratio.value(0, 0), 2.5);
}

TEST(ResultJoinTest, MismatchedAggCountsRejected) {
  QueryResult a({"v"}, {"g"}), b({"v", "w"}, {"g"});
  EXPECT_FALSE(DiffResults(a, b).ok());
}

}  // namespace
}  // namespace cvopt
