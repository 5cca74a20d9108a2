// Tests for ErrorReport / CompareResults.
#include <gtest/gtest.h>

#include "src/estimate/error_report.h"
#include "src/exec/group_by_executor.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

QueryResult MakeResult(const std::vector<std::pair<int64_t, double>>& groups) {
  return std::move(IntKeyResult("g", "v", groups)).ValueOrDie();
}

TEST(ErrorReportTest, ExactMatchIsZeroError) {
  QueryResult a = MakeResult({{1, 10.0}, {2, 20.0}});
  ASSERT_OK_AND_ASSIGN(ErrorReport rep, CompareResults(a, a));
  EXPECT_EQ(rep.errors.size(), 2u);
  EXPECT_DOUBLE_EQ(rep.MaxError(), 0.0);
  EXPECT_DOUBLE_EQ(rep.AvgError(), 0.0);
  EXPECT_EQ(rep.missing_groups, 0u);
}

TEST(ErrorReportTest, RelativeErrorsComputed) {
  QueryResult exact = MakeResult({{1, 100.0}, {2, 200.0}});
  QueryResult approx = MakeResult({{1, 110.0}, {2, 150.0}});
  ASSERT_OK_AND_ASSIGN(ErrorReport rep, CompareResults(exact, approx));
  EXPECT_DOUBLE_EQ(rep.MaxError(), 0.25);
  EXPECT_DOUBLE_EQ(rep.AvgError(), (0.1 + 0.25) / 2);
}

TEST(ErrorReportTest, MissingGroupChargedFullError) {
  QueryResult exact = MakeResult({{1, 100.0}, {2, 200.0}});
  QueryResult approx = MakeResult({{1, 100.0}});
  ASSERT_OK_AND_ASSIGN(ErrorReport rep, CompareResults(exact, approx));
  EXPECT_EQ(rep.missing_groups, 1u);
  EXPECT_DOUBLE_EQ(rep.MaxError(), 1.0);
}

TEST(ErrorReportTest, ExtraApproxGroupsIgnored) {
  QueryResult exact = MakeResult({{1, 100.0}});
  QueryResult approx = MakeResult({{1, 100.0}, {9, 5.0}});
  ASSERT_OK_AND_ASSIGN(ErrorReport rep, CompareResults(exact, approx));
  EXPECT_EQ(rep.errors.size(), 1u);
  EXPECT_DOUBLE_EQ(rep.MaxError(), 0.0);
}

TEST(ErrorReportTest, ZeroTruthSkipped) {
  QueryResult exact = MakeResult({{1, 0.0}, {2, 10.0}});
  QueryResult approx = MakeResult({{1, 5.0}, {2, 10.0}});
  ASSERT_OK_AND_ASSIGN(ErrorReport rep, CompareResults(exact, approx));
  EXPECT_EQ(rep.skipped_zero_truth, 1u);
  EXPECT_EQ(rep.errors.size(), 1u);
}

TEST(ErrorReportTest, AggCountMismatchRejected) {
  QueryResult a = MakeResult({});
  ASSERT_OK_AND_ASSIGN(QueryResult b,
                       QueryResult::Dense({"v", "w"}, {"g"}, {KeyColumn{}},
                                          {}, {}, {}));
  EXPECT_FALSE(CompareResults(a, b).ok());
}

// Codes of different groupings do not compare: "x" and "p" share code 0,
// so pairing them would report no missing group.
TEST(ErrorReportTest, DifferentGroupingsRejected) {
  const Table t = MakeTwoKeyTable();
  QuerySpec by_a;
  by_a.group_by = {"a"};
  by_a.aggregates = {AggSpec::Sum("v")};
  QuerySpec by_b = by_a;
  by_b.group_by = {"b"};
  ASSERT_OK_AND_ASSIGN(QueryResult a, ExecuteExact(t, by_a));
  ASSERT_OK_AND_ASSIGN(QueryResult b, ExecuteExact(t, by_b));
  const Result<ErrorReport> rep = CompareResults(a, b);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kInvalidArgument);
}

TEST(ErrorReportTest, Percentiles) {
  ErrorReport rep;
  rep.errors = {0.1, 0.2, 0.3, 0.4, 0.5};
  EXPECT_DOUBLE_EQ(rep.Percentile(0.0), 0.1);
  EXPECT_DOUBLE_EQ(rep.Percentile(0.5), 0.3);
  EXPECT_DOUBLE_EQ(rep.Percentile(1.0), 0.5);
  EXPECT_DOUBLE_EQ(rep.Percentile(0.25), 0.2);
  // Interpolation between ranks.
  EXPECT_NEAR(rep.Percentile(0.375), 0.25, 1e-12);
}

TEST(ErrorReportTest, PercentileEdgeCases) {
  ErrorReport empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(0.5), 0.0);
  ErrorReport one;
  one.errors = {0.7};
  EXPECT_DOUBLE_EQ(one.Percentile(0.0), 0.7);
  EXPECT_DOUBLE_EQ(one.Percentile(1.0), 0.7);
  // Out-of-range p clamps.
  EXPECT_DOUBLE_EQ(one.Percentile(-1.0), 0.7);
  EXPECT_DOUBLE_EQ(one.Percentile(2.0), 0.7);
}

TEST(ErrorReportTest, MergePoolsErrors) {
  ErrorReport a, b;
  a.errors = {0.1, 0.2};
  a.missing_groups = 1;
  b.errors = {0.9};
  b.skipped_zero_truth = 2;
  ErrorReport m = MergeReports({a, b});
  EXPECT_EQ(m.errors.size(), 3u);
  EXPECT_DOUBLE_EQ(m.MaxError(), 0.9);
  EXPECT_EQ(m.missing_groups, 1u);
  EXPECT_EQ(m.skipped_zero_truth, 2u);
}

TEST(ErrorReportTest, ToStringIsInformative) {
  ErrorReport rep;
  rep.errors = {0.5};
  const std::string s = rep.ToString();
  EXPECT_NE(s.find("max=50.00%"), std::string::npos);
}

TEST(ErrorReportTest, ToStringSurfacesExhaustiveStrata) {
  ErrorReport rep;
  rep.errors = {0.0};
  rep.exhaustive_strata = 2;
  rep.total_strata = 5;
  EXPECT_NE(rep.ToString().find("strata served exactly: 2/5"),
            std::string::npos);
  ErrorReport plain;  // no sample attached: no stratum clause
  EXPECT_EQ(plain.ToString().find("strata served exactly"), std::string::npos);
}

TEST(ErrorReportTest, MergeDeduplicatesPerSampleStratumCounts) {
  // Stratum counts are per-sample facts: several queries evaluated against
  // one sample must not multiply its strata, while reports pooled over
  // distinct samples (consecutive runs of differing counts) add up.
  auto rep = [](size_t exhaustive, size_t total) {
    ErrorReport r;
    r.errors = {0.1};
    r.exhaustive_strata = exhaustive;
    r.total_strata = total;
    return r;
  };
  // One sample, three queries: counts carried through once.
  ErrorReport one = MergeReports({rep(1, 3), rep(1, 3), rep(1, 3)});
  EXPECT_EQ(one.exhaustive_strata, 1u);
  EXPECT_EQ(one.total_strata, 3u);
  // Two samples, two queries each (the Table-4 shape): counts add once per
  // sample.
  ErrorReport two = MergeReports({rep(1, 3), rep(1, 3), rep(2, 4), rep(2, 4)});
  EXPECT_EQ(two.exhaustive_strata, 3u);
  EXPECT_EQ(two.total_strata, 7u);
  // Strata-less reports (plain CompareResults) neither add nor reset runs.
  ErrorReport mixed = MergeReports({rep(1, 3), ErrorReport{}, rep(1, 3)});
  EXPECT_EQ(mixed.exhaustive_strata, 1u);
  EXPECT_EQ(mixed.total_strata, 3u);
}

TEST(ErrorReportTest, MergeSumsDegradedStrata) {
  // Regression: MergeReports used to drop degraded_strata entirely, so
  // pooled multi-query reports reported 0 deadline-skipped strata no matter
  // how many draws degraded. It sums like missing_groups — once per report,
  // every query over a skipped stratum lost its answers — including across
  // runs of identical counts, which the per-sample exhaustive/total
  // collapse would have deduplicated.
  auto rep = [](size_t degraded, size_t exhaustive, size_t total) {
    ErrorReport r;
    r.errors = {0.1};
    r.degraded_strata = degraded;
    r.exhaustive_strata = exhaustive;
    r.total_strata = total;
    return r;
  };
  // Three queries against one degraded sample: identical stratum counts
  // collapse to one sample's worth, degraded answers sum per query.
  ErrorReport one = MergeReports({rep(2, 1, 5), rep(2, 1, 5), rep(2, 1, 5)});
  EXPECT_EQ(one.degraded_strata, 6u);
  EXPECT_EQ(one.exhaustive_strata, 1u);
  EXPECT_EQ(one.total_strata, 5u);
  // Mixed degraded and complete draws.
  ErrorReport two = MergeReports({rep(3, 0, 4), rep(0, 2, 6)});
  EXPECT_EQ(two.degraded_strata, 3u);
  EXPECT_EQ(two.exhaustive_strata, 2u);
  EXPECT_EQ(two.total_strata, 10u);
  EXPECT_EQ(MergeReports({}).degraded_strata, 0u);
}

}  // namespace
}  // namespace cvopt
