// Tests for src/stats: RunningStats (incl. merge properties), GroupKey,
// GroupStatsTable, CollectGroupStats.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <numeric>

#include "src/core/stratification.h"
#include "src/datagen/openaq_gen.h"
#include "src/stats/group_stats.h"
#include "src/stats/running_stats.h"
#include "src/stats/stats_collector.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance_population(), 0.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance_population(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance_sample(), 0.0);
}

TEST(RunningStatsTest, KnownSequence) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance_population(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev_population(), 2.0);
  EXPECT_NEAR(s.variance_sample(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.cv(), 0.4);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MatchesNaiveTwoPass) {
  Rng rng(3);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rng.UniformDouble(-100, 100);
  RunningStats s;
  for (double x : xs) s.Add(x);
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / xs.size();
  double m2 = 0;
  for (double x : xs) m2 += (x - mean) * (x - mean);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance_population(), m2 / xs.size(), 1e-7);
}

TEST(RunningStatsTest, CvZeroMeanGuarded) {
  RunningStats s;
  s.Add(-1.0);
  s.Add(1.0);
  // mean == 0; the CV floor keeps the value finite.
  EXPECT_TRUE(std::isfinite(s.cv()));
  EXPECT_GT(s.cv(), 0.0);
}

// Property: merging a split of a stream equals processing the whole stream.
class MergeProperty : public testing::TestWithParam<size_t> {};

TEST_P(MergeProperty, MergeEqualsConcatenation) {
  const size_t split = GetParam();
  Rng rng(41 + split);
  std::vector<double> xs(200);
  for (auto& x : xs) x = rng.UniformDouble(-5, 50);

  RunningStats whole, a, b;
  for (size_t i = 0; i < xs.size(); ++i) {
    whole.Add(xs[i]);
    (i < split ? a : b).Add(xs[i]);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(a.variance_population(), whole.variance_population(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Splits, MergeProperty,
                         testing::Values(0, 1, 50, 100, 199, 200));

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, b;
  a.Add(1.0);
  a.Add(3.0);
  RunningStats snapshot = a;
  a.Merge(b);  // merging empty is a no-op
  EXPECT_TRUE(a == snapshot);
  b.Merge(a);  // merging into empty copies
  EXPECT_TRUE(b == snapshot);
}

TEST(GroupKeyTest, EqualityAndHash) {
  GroupKey a{{1, 2}}, b{{1, 2}}, c{{2, 1}};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  GroupKeyHash h;
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(h(a), h(c));
}

TEST(GroupKeyTest, RenderUsesDictionary) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(size_t major_idx, t.ColumnIndex("major"));
  ASSERT_OK_AND_ASSIGN(size_t age_idx, t.ColumnIndex("age"));
  GroupKey k{{t.column(major_idx).GetCode(0), 25}};
  EXPECT_EQ(k.Render(t, {major_idx, age_idx}), "CS|25");
}

TEST(GroupStatsTableTest, ShapeAndAccess) {
  GroupStatsTable g(3, 2);
  EXPECT_EQ(g.num_strata(), 3u);
  EXPECT_EQ(g.num_columns(), 2u);
  g.At(2, 1).Add(7.0);
  EXPECT_EQ(g.At(2, 1).count(), 1u);
  EXPECT_EQ(g.At(0, 0).count(), 0u);
}

TEST(CollectGroupStatsTest, PerGroupMeansOnStudentTable) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification strat,
                       Stratification::Build(t, {"major"}));
  ASSERT_OK_AND_ASSIGN(const Column* gpa, t.ColumnByName("gpa"));
  StatSource src;
  src.column = gpa;
  ASSERT_OK_AND_ASSIGN(GroupStatsTable stats, CollectGroupStats(strat, {src}));
  ASSERT_EQ(stats.num_strata(), 4u);
  // Find CS stratum and verify mean gpa (3.4 + 3.1)/2.
  for (size_t c = 0; c < strat.num_strata(); ++c) {
    if (strat.Label(c) == "CS") {
      EXPECT_DOUBLE_EQ(stats.At(c, 0).mean(), 3.25);
      EXPECT_EQ(stats.At(c, 0).count(), 2u);
    }
  }
}

TEST(CollectGroupStatsTest, ConstantOneSource) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification strat,
                       Stratification::Build(t, {"college"}));
  StatSource one;
  one.constant_one = true;
  ASSERT_OK_AND_ASSIGN(GroupStatsTable stats, CollectGroupStats(strat, {one}));
  for (size_t c = 0; c < strat.num_strata(); ++c) {
    EXPECT_EQ(stats.At(c, 0).count(), 4u);
    EXPECT_DOUBLE_EQ(stats.At(c, 0).mean(), 1.0);
    EXPECT_DOUBLE_EQ(stats.At(c, 0).variance_population(), 0.0);
  }
}

TEST(CollectGroupStatsTest, IndicatorSource) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification strat,
                       Stratification::Build(t, {"college"}));
  // Indicator: age > 24.
  std::vector<uint8_t> ind(t.num_rows());
  ASSERT_OK_AND_ASSIGN(const Column* age, t.ColumnByName("age"));
  for (size_t r = 0; r < t.num_rows(); ++r) ind[r] = age->GetInt(r) > 24;
  StatSource src;
  src.indicator = &ind;
  ASSERT_OK_AND_ASSIGN(GroupStatsTable stats, CollectGroupStats(strat, {src}));
  // Science: ages 25,22,24,28 -> 2 of 4. Engineering: 21,23,27,26 -> 2 of 4.
  for (size_t c = 0; c < strat.num_strata(); ++c) {
    EXPECT_DOUBLE_EQ(stats.At(c, 0).mean(), 0.5);
  }
}

TEST(CollectGroupStatsTest, RejectsInvalidSources) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification strat,
                       Stratification::Build(t, {"major"}));
  StatSource empty;  // no stream at all
  EXPECT_FALSE(CollectGroupStats(strat, {empty}).ok());

  std::vector<uint8_t> short_ind(3);
  StatSource bad_len;
  bad_len.indicator = &short_ind;
  EXPECT_FALSE(CollectGroupStats(strat, {bad_len}).ok());

  ASSERT_OK_AND_ASSIGN(const Column* major, t.ColumnByName("major"));
  StatSource str_col;
  str_col.column = major;
  EXPECT_FALSE(CollectGroupStats(strat, {str_col}).ok());
}

// Per-stratum mean and population variance by the long-double two-pass
// formula: the reference the collected statistics are held to.
struct RefMoments {
  uint64_t n = 0;
  long double mean = 0;
  long double var = 0;
};

std::vector<RefMoments> TwoPassReference(
    const Stratification& strat, const std::function<double(size_t)>& value) {
  std::vector<RefMoments> ref(strat.num_strata());
  const size_t rows = strat.table().num_rows();
  for (size_t r = 0; r < rows; ++r) {
    RefMoments& m = ref[strat.StratumOfRow(r)];
    m.n++;
    m.mean += value(r);
  }
  for (RefMoments& m : ref) m.mean /= static_cast<long double>(m.n);
  for (size_t r = 0; r < rows; ++r) {
    RefMoments& m = ref[strat.StratumOfRow(r)];
    const long double d = value(r) - m.mean;
    m.var += d * d;
  }
  for (RefMoments& m : ref) m.var /= static_cast<long double>(m.n);
  return ref;
}

void ExpectMatchesReference(const GroupStatsTable& stats, size_t j,
                            const std::vector<RefMoments>& ref) {
  ASSERT_EQ(stats.num_strata(), ref.size());
  for (size_t c = 0; c < ref.size(); ++c) {
    const RunningStats& s = stats.At(c, j);
    const double mean = static_cast<double>(ref[c].mean);
    const double var = static_cast<double>(ref[c].var);
    EXPECT_EQ(s.count(), ref[c].n) << "stratum " << c << " source " << j;
    EXPECT_NEAR(s.mean(), mean, 1e-12 * std::fabs(mean))
        << "stratum " << c << " source " << j;
    EXPECT_NEAR(s.variance_population(), var, 1e-12 * var)
        << "stratum " << c << " source " << j;
  }
}

TEST(CollectGroupStatsTest, MatchesLongDoubleTwoPassOnOpenAq) {
  OpenAqOptions opts;
  opts.num_rows = 100000;
  Table t = GenerateOpenAq(opts);
  ASSERT_OK_AND_ASSIGN(Stratification strat,
                       Stratification::Build(t, {"country", "parameter"}));
  ASSERT_OK_AND_ASSIGN(const Column* v, t.ColumnByName("value"));
  std::vector<uint8_t> ind(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) ind[r] = v->GetDouble(r) > 0.04;
  StatSource value, indicator, one;
  value.column = v;
  indicator.indicator = &ind;
  one.constant_one = true;
  ASSERT_OK_AND_ASSIGN(GroupStatsTable stats,
                       CollectGroupStats(strat, {value, indicator, one}));
  auto value_at = [&](size_t r) { return v->GetDouble(r); };
  auto indicator_at = [&](size_t r) { return ind[r] ? 1.0 : 0.0; };
  ExpectMatchesReference(stats, 0, TwoPassReference(strat, value_at));
  ExpectMatchesReference(stats, 1, TwoPassReference(strat, indicator_at));
  ExpectMatchesReference(
      stats, 2, TwoPassReference(strat, [](size_t) { return 1.0; }));
}

TEST(CollectGroupStatsTest, LargeOffsetVarianceMatchesReference) {
  // Values 1e9 + small integers: sum(v^2) / n - mean^2 about zero cancels
  // every significant digit of the variance (|v|^2 ~ 1e18, sigma^2 ~ 10);
  // sums about each stratum's first value stay exact.
  Schema schema({{"g", DataType::kInt64}, {"v", DataType::kDouble}});
  TableBuilder b(schema);
  constexpr int kRows = 40000;  // several statistics chunks
  for (int i = 0; i < kRows; ++i) {
    const int64_t g = i % 4;
    ASSERT_OK(b.AppendRow(
        {Value(g), Value(1e9 + static_cast<double>((i * 7) % 11 + 3 * g))}));
  }
  Table t = std::move(b).Finish();
  ASSERT_OK_AND_ASSIGN(Stratification strat, Stratification::Build(t, {"g"}));
  ASSERT_OK_AND_ASSIGN(const Column* v, t.ColumnByName("v"));
  StatSource value;
  value.column = v;
  ASSERT_OK_AND_ASSIGN(GroupStatsTable stats,
                       CollectGroupStats(strat, {value}));
  const std::vector<RefMoments> ref =
      TwoPassReference(strat, [&](size_t r) { return v->GetDouble(r); });
  for (const RefMoments& m : ref) ASSERT_GT(m.var, 1.0L);
  ExpectMatchesReference(stats, 0, ref);
}

}  // namespace
}  // namespace cvopt
