// Differential tests for the shared-pass CUBE executor: ExecuteCube must
// reproduce per-spec ExecuteExact for every grouping set — identical group
// sets, emission order, labels, exact counts and medians, and sums within
// the float-summation tolerance (rollup reassociates additions) — across
// filters, thread counts, and the forced radix-partitioned build.
#include "src/exec/cube.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/datagen/openaq_gen.h"
#include "src/exec/group_by_executor.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

const Table& CubeTable() {
  static const Table* t = [] {
    OpenAqOptions opts;
    opts.num_rows = 30011;  // non-power-of-two
    return new Table(GenerateOpenAq(opts));
  }();
  return *t;
}

QuerySpec CubeBase(bool filtered) {
  QuerySpec q;
  q.name = "cube";
  q.group_by = {"country", "parameter", "hour"};
  q.aggregates = {
      AggSpec::Avg("value"),    AggSpec::Sum("value"),
      AggSpec::Count(),
      AggSpec::CountIf(
          Predicate::Compare("value", CompareOp::kGt, Value(0.04))),
      AggSpec::Variance("value"), AggSpec::Median("value")};
  if (filtered) q.where = Predicate::Between("hour", 0, 11);
  return q;
}

void ExpectCubeMatchesPerSpec(const Table& t, const QuerySpec& base) {
  const std::vector<QuerySpec> specs = ExpandCube(base);
  ASSERT_OK_AND_ASSIGN(std::vector<QueryResult> cube, ExecuteCube(t, base));
  ASSERT_EQ(cube.size(), specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    ASSERT_OK_AND_ASSIGN(QueryResult direct, ExecuteExact(t, specs[s]));
    const QueryResult& rolled = cube[s];
    ASSERT_EQ(rolled.num_groups(), direct.num_groups()) << specs[s].name;
    ASSERT_EQ(rolled.num_aggregates(), direct.num_aggregates());
    for (size_t i = 0; i < direct.num_groups(); ++i) {
      EXPECT_EQ(rolled.label(i), direct.label(i)) << specs[s].name;
      EXPECT_EQ(KeyCodesOf(rolled, i), KeyCodesOf(direct, i)) << specs[s].name;
      for (size_t j = 0; j < direct.num_aggregates(); ++j) {
        const double d = direct.value(i, j);
        const double r = rolled.value(i, j);
        const std::string& lbl = direct.agg_labels()[j];
        if (lbl.rfind("COUNT", 0) == 0 || lbl.rfind("MEDIAN", 0) == 0) {
          // Counts are integers; a parent's median selects from the same
          // multiset whichever way it was assembled.
          EXPECT_EQ(r, d) << specs[s].name << " " << lbl << " "
                          << direct.label(i);
        } else {
          EXPECT_NEAR(r, d, 1e-9 * std::max(1.0, std::fabs(d)))
              << specs[s].name << " " << lbl << " " << direct.label(i);
        }
      }
    }
  }
}

class CubeExecTest : public testing::TestWithParam<int> {};

TEST_P(CubeExecTest, MatchesPerSpecExecution) {
  ScopedExecThreads threads(GetParam());
  ExpectCubeMatchesPerSpec(CubeTable(), CubeBase(/*filtered=*/false));
}

TEST_P(CubeExecTest, MatchesPerSpecExecutionFiltered) {
  ScopedExecThreads threads(GetParam());
  ExpectCubeMatchesPerSpec(CubeTable(), CubeBase(/*filtered=*/true));
}

TEST_P(CubeExecTest, MatchesPerSpecUnderForcedRadix) {
  ScopedRadixOverride radix(/*mode=*/1, /*partitions=*/8);
  ScopedExecThreads threads(GetParam());
  ExpectCubeMatchesPerSpec(CubeTable(), CubeBase(/*filtered=*/false));
}

TEST_P(CubeExecTest, MatchesPerSpecUnderForcedRadixFiltered) {
  // WHERE + forced radix: the masked selection accumulates through the
  // partition-owned slabs (dense byte mask, no chunk merge).
  ScopedRadixOverride radix(/*mode=*/1, /*partitions=*/8);
  ScopedExecThreads threads(GetParam());
  ExpectCubeMatchesPerSpec(CubeTable(), CubeBase(/*filtered=*/true));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, CubeExecTest, testing::Values(1, 8));

// The rollup fan-out across grouping sets must be invisible in the output:
// every per-set result — labels, keys, and double values compared for
// bitwise equality, not tolerance — identical at every thread count, with
// and without a WHERE clause. Each coarser set reads the shared finest
// accumulation and rolls up independently in deterministic g-order, and
// the forced partition-owned build (fixed partition count) makes the
// finest accumulation itself thread-count-independent — unlike the
// chunk-merged path, whose chunk decomposition follows the thread count.
TEST(CubeExecTest, FanOutBitIdenticalAcrossThreadCounts) {
  ScopedRadixOverride radix(/*mode=*/1, /*partitions=*/8);
  for (const bool filtered : {false, true}) {
    const QuerySpec base = CubeBase(filtered);
    std::vector<QueryResult> serial = [&] {
      ScopedExecThreads one(1);
      return std::move(ExecuteCube(CubeTable(), base)).ValueOrDie();
    }();
    for (const int threads : {2, 3, 8}) {
      ScopedExecThreads scope(threads);
      ASSERT_OK_AND_ASSIGN(std::vector<QueryResult> par,
                           ExecuteCube(CubeTable(), base));
      ASSERT_EQ(par.size(), serial.size());
      for (size_t s = 0; s < serial.size(); ++s) {
        ASSERT_EQ(par[s].num_groups(), serial[s].num_groups())
            << "threads=" << threads << " set " << s;
        for (size_t i = 0; i < serial[s].num_groups(); ++i) {
          ASSERT_EQ(par[s].label(i), serial[s].label(i));
          ASSERT_EQ(KeyCodesOf(par[s], i), KeyCodesOf(serial[s], i));
          for (size_t j = 0; j < serial[s].num_aggregates(); ++j) {
            ASSERT_EQ(par[s].value(i, j), serial[s].value(i, j))
                << "threads=" << threads << " set " << s << " group "
                << serial[s].label(i) << " agg " << j;
          }
        }
      }
    }
  }
}

TEST(CubeExecTest, EmptyGroupByFallsBackToSingleSpec) {
  QuerySpec base;
  base.aggregates = {AggSpec::Count()};
  ASSERT_OK_AND_ASSIGN(std::vector<QueryResult> cube,
                       ExecuteCube(CubeTable(), base));
  ASSERT_EQ(cube.size(), 1u);
  ASSERT_EQ(cube[0].num_groups(), 1u);
  EXPECT_EQ(cube[0].value(0, 0), static_cast<double>(CubeTable().num_rows()));
}

TEST(CubeExecTest, EmptyTable) {
  OpenAqOptions opts;
  opts.num_rows = 0;
  Table empty = GenerateOpenAq(opts);
  ASSERT_OK_AND_ASSIGN(std::vector<QueryResult> cube,
                       ExecuteCube(empty, CubeBase(false)));
  ASSERT_EQ(cube.size(), 8u);
  for (const auto& r : cube) EXPECT_EQ(r.num_groups(), 0u);
}

TEST(CubeExecTest, RejectsMissingAggregates) {
  QuerySpec base;
  base.group_by = {"country"};
  EXPECT_FALSE(ExecuteCube(CubeTable(), base).ok());
}

}  // namespace
}  // namespace cvopt
