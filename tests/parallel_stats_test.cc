// Thread-count tests for group-statistics collection. The statistics pass
// chunks by input shape alone, so count, mean and population variance are
// bit-identical at every thread count: the samplers' seed -> sample
// contract rests on it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/datagen/openaq_gen.h"
#include "src/stats/stats_collector.h"
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

void ExpectStatsIdentical(const GroupStatsTable& par,
                          const GroupStatsTable& serial, int threads) {
  ASSERT_EQ(par.num_strata(), serial.num_strata());
  ASSERT_EQ(par.num_columns(), serial.num_columns());
  for (size_t c = 0; c < serial.num_strata(); ++c) {
    for (size_t j = 0; j < serial.num_columns(); ++j) {
      const RunningStats& p = par.At(c, j);
      const RunningStats& s = serial.At(c, j);
      EXPECT_EQ(p.count(), s.count()) << threads << " " << c << " " << j;
      EXPECT_EQ(p.mean(), s.mean()) << threads << " " << c << " " << j;
      EXPECT_EQ(p.variance_population(), s.variance_population())
          << threads << " " << c << " " << j;
    }
  }
}

class ParallelStatsTest : public testing::TestWithParam<int> {};

TEST_P(ParallelStatsTest, MatchesSerialCollection) {
  const Table& t = TestTable();
  ASSERT_OK_AND_ASSIGN(Stratification strat,
                       Stratification::Build(t, {"country", "parameter"}));
  ASSERT_OK_AND_ASSIGN(const Column* v, t.ColumnByName("value"));
  ASSERT_OK_AND_ASSIGN(const Column* hour, t.ColumnByName("hour"));
  std::vector<uint8_t> ind(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) ind[r] = v->GetDouble(r) > 0.04;
  StatSource value, ints, indicator, one;
  value.column = v;
  ints.column = hour;
  indicator.indicator = &ind;
  one.constant_one = true;
  const std::vector<StatSource> sources = {value, ints, indicator, one};
  GroupStatsTable serial = [&] {
    ScopedExecThreads st(1);
    return std::move(CollectGroupStats(strat, sources)).ValueOrDie();
  }();
  for (const int threads : {GetParam(), 16}) {
    ScopedExecThreads scoped(threads);
    ASSERT_OK_AND_ASSIGN(GroupStatsTable par,
                         CollectGroupStats(strat, sources));
    ExpectStatsIdentical(par, serial, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelStatsTest,
                         testing::Values(1, 2, 3, 8));

TEST(ParallelStatsTest2, TinyTableMatchesSerial) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification strat,
                       Stratification::Build(t, {"major"}));
  ASSERT_OK_AND_ASSIGN(const Column* gpa, t.ColumnByName("gpa"));
  StatSource src;
  src.column = gpa;
  GroupStatsTable serial = [&] {
    ScopedExecThreads st(1);
    return std::move(CollectGroupStats(strat, {src})).ValueOrDie();
  }();
  ScopedExecThreads scoped(8);
  ASSERT_OK_AND_ASSIGN(GroupStatsTable par, CollectGroupStats(strat, {src}));
  ExpectStatsIdentical(par, serial, 8);
}

}  // namespace
}  // namespace cvopt
