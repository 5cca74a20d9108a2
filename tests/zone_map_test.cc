// Zone-map chunk skipping: the differential suite pinning the bit-identity
// contract (zones on == zones off for every chunk size and thread count)
// and the skip-rate guarantee on clustered data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/exec/group_by_executor.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"
#include "src/table/chunk_codec.h"
#include "src/table/table_builder.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

// Clustered dataset: `t` ascending (timestamp-like, the zone-map-friendly
// layout), `region` changes in long runs, `v` Gaussian with sprinkled NaNs,
// `id` uniform noise (zone-map-hostile).
Table MakeClusteredTable(size_t rows) {
  Schema schema({{"t", DataType::kInt64},
                 {"region", DataType::kString},
                 {"v", DataType::kDouble},
                 {"id", DataType::kInt64}});
  TableBuilder b(schema);
  Rng rng(4242);
  const char* regions[] = {"north", "south", "east", "west", "center"};
  for (size_t i = 0; i < rows; ++i) {
    double v = 3.0 + rng.NextGaussian();
    if (i % 503 == 0) v = std::numeric_limits<double>::quiet_NaN();
    Status st = b.AppendRow({Value(static_cast<int64_t>(i)),
                             Value(regions[(i / 1000) % 5]), Value(v),
                             Value(static_cast<int64_t>(rng.Uniform(1000)))});
    CVOPT_CHECK(st.ok(), "append failed");
  }
  return std::move(b).Finish();
}

std::vector<QuerySpec> MakeQueries(size_t rows) {
  const auto t_lo = static_cast<int64_t>(rows / 2);
  const auto t_hi = static_cast<int64_t>(rows / 2 + rows / 100 - 1);
  std::vector<QuerySpec> qs;
  {
    QuerySpec q;
    q.name = "narrow-range";
    q.group_by = {"region"};
    q.aggregates = {AggSpec::Avg("v"), AggSpec::Sum("v"), AggSpec::Count()};
    q.where = Predicate::Between("t", Value(t_lo), Value(t_hi));
    qs.push_back(q);
  }
  {
    QuerySpec q;
    q.name = "string-eq";
    q.group_by = {"region"};
    q.aggregates = {AggSpec::Variance("v"),
                    AggSpec::CountIf(
                        Predicate::Compare("v", CompareOp::kGt, Value(3.0)))};
    q.where = Predicate::Compare("region", CompareOp::kEq, Value("east"));
    qs.push_back(q);
  }
  {
    QuerySpec q;
    q.name = "no-where-median";
    q.group_by = {"region"};
    q.aggregates = {AggSpec::Median("v"), AggSpec::Count()};
    qs.push_back(q);
  }
  {
    QuerySpec q;
    q.name = "double-nan";
    q.group_by = {"region"};
    q.aggregates = {AggSpec::Sum("v"), AggSpec::Count()};
    q.where = Predicate::Compare("v", CompareOp::kGt, Value(3.0));
    qs.push_back(q);
  }
  {
    QuerySpec q;
    q.name = "bool-combo";
    q.group_by = {"region"};
    q.aggregates = {AggSpec::Count(), AggSpec::Avg("v")};
    q.where = Predicate::Or(
        Predicate::And(
            Predicate::Compare("t", CompareOp::kLt, Value(int64_t{2000})),
            Predicate::Not(
                Predicate::Compare("region", CompareOp::kEq, Value("north")))),
        Predicate::In("id", {Value(int64_t{1}), Value(int64_t{500})}));
    qs.push_back(q);
  }
  {
    QuerySpec q;
    q.name = "full-table";
    q.aggregates = {AggSpec::Count(), AggSpec::Sum("id")};
    q.where = Predicate::Compare("t", CompareOp::kGe, Value(int64_t{0}));
    qs.push_back(q);
  }
  return qs;
}

// Bitwise comparison: group order, labels, and value bit patterns (NaN-safe).
void ExpectResultsIdentical(const QueryResult& a, const QueryResult& b,
                            const std::string& what) {
  ASSERT_EQ(a.num_groups(), b.num_groups()) << what;
  ASSERT_EQ(a.num_aggregates(), b.num_aggregates()) << what;
  for (size_t g = 0; g < a.num_groups(); ++g) {
    EXPECT_EQ(a.label(g), b.label(g)) << what << " group " << g;
    const std::vector<double> va = a.values(g);
    const std::vector<double> vb = b.values(g);
    ASSERT_EQ(va.size(), vb.size());
    EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)), 0)
        << what << " group " << g << " (" << a.label(g) << ")";
  }
}

// The engine's documented cross-thread contract (tests/parallel_exec_test.cc):
// group order, labels, and integer COUNT / COUNT_IF are bit-exact for every
// thread count; float aggregates merge per-chunk partials whose chunk count
// follows the thread budget — the "documented float-summation reassociation"
// of the chunk-order merge — so they compare within a relative tolerance.
void ExpectResultsEquivalent(const QueryResult& a, const QueryResult& b,
                             const std::string& what) {
  ASSERT_EQ(a.num_groups(), b.num_groups()) << what;
  ASSERT_EQ(a.num_aggregates(), b.num_aggregates()) << what;
  for (size_t g = 0; g < a.num_groups(); ++g) {
    EXPECT_EQ(a.label(g), b.label(g)) << what << " group " << g;
    for (size_t j = 0; j < a.num_aggregates(); ++j) {
      const double s = a.value(g, j);
      const double p = b.value(g, j);
      if (std::isnan(s) || std::isnan(p)) {
        // A NaN input poisons a group's SUM/AVG for every chunking alike.
        EXPECT_EQ(std::isnan(s), std::isnan(p))
            << what << " group " << g << " " << a.agg_labels()[j];
      } else if (a.agg_labels()[j].rfind("COUNT", 0) == 0) {
        EXPECT_EQ(p, s) << what << " group " << g << " " << a.agg_labels()[j];
      } else {
        EXPECT_NEAR(p, s, 1e-9 * std::max(1.0, std::fabs(s)))
            << what << " group " << g << " " << a.agg_labels()[j];
      }
    }
  }
}

TEST(ZoneMapTest, DifferentialAcrossChunkSizesAndThreads) {
  constexpr size_t kRows = 100'000;

  // What PR 7 must keep bitwise: at any fixed thread count, results are
  // invariant to zone-map pruning and to the storage chunk geometry —
  // selection vectors are position-identical whatever the morsel/chunk
  // cuts, and aggregation partials are split over row ranges fixed by the
  // row count, not by storage chunks. Across thread counts the engine's
  // pre-existing contract applies (ExpectResultsEquivalent above), no
  // worse than before.
  std::vector<QueryResult> serial_oracle;
  for (int threads : {1, 2, 3, 8}) {
    ScopedExecThreads pool(threads);

    // Oracle at this thread count: flat scan (zones off), default chunking.
    std::vector<QueryResult> oracle;
    {
      ScopedZoneMaps off(false);
      ClearPlanCache();
      Table t = MakeClusteredTable(kRows);
      for (const auto& q : MakeQueries(kRows)) {
        ASSERT_OK_AND_ASSIGN(QueryResult r, ExecuteExact(t, q));
        oracle.push_back(std::move(r));
      }
    }
    const auto queries = MakeQueries(kRows);
    if (threads == 1) {
      serial_oracle = oracle;
    } else {
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        ExpectResultsEquivalent(
            serial_oracle[qi], oracle[qi],
            queries[qi].name + " threads=" + std::to_string(threads) +
                " vs serial");
      }
    }

    for (size_t chunk_rows : {size_t{1000}, size_t{4096}, size_t{65536}}) {
      ScopedChunkRows cs(chunk_rows);
      Table t = MakeClusteredTable(kRows);
      ClearPlanCache();  // fresh compiles under each configuration
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        ASSERT_OK_AND_ASSIGN(QueryResult r, ExecuteExact(t, queries[qi]));
        ExpectResultsIdentical(
            oracle[qi], r,
            queries[qi].name + " chunk=" + std::to_string(chunk_rows) +
                " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(ZoneMapTest, SelectionDifferentialZonesOnVsOff) {
  constexpr size_t kRows = 50'000;
  ScopedChunkRows cs(1000);
  Table t = MakeClusteredTable(kRows);
  const std::vector<PredicatePtr> preds = {
      Predicate::Between("t", Value(int64_t{10'000}), Value(int64_t{10'499})),
      Predicate::Compare("t", CompareOp::kLt, Value(int64_t{777})),
      Predicate::Compare("region", CompareOp::kEq, Value("south")),
      Predicate::Compare("v", CompareOp::kNe, Value(2.5)),
      Predicate::Not(
          Predicate::Compare("t", CompareOp::kGe, Value(int64_t{40'000}))),
      Predicate::True(),
  };
  for (const auto& p : preds) {
    ASSERT_OK_AND_ASSIGN(CompiledPredicate cp,
                         CompiledPredicate::Compile(t, *p));
    SetZoneMapPruningEnabled(true);
    const std::vector<uint32_t> pruned = cp.Select();
    SetZoneMapPruningEnabled(false);
    const std::vector<uint32_t> flat = cp.Select();
    SetZoneMapPruningEnabled(true);
    EXPECT_EQ(pruned, flat) << p->ToString();

    // Range cuts never change the result either.
    const std::vector<uint32_t> a = cp.SelectRange(0, kRows / 3);
    const std::vector<uint32_t> b = cp.SelectRange(kRows / 3, kRows);
    std::vector<uint32_t> glued = a;
    glued.insert(glued.end(), b.begin(), b.end());
    EXPECT_EQ(glued, pruned) << p->ToString();
  }
}

TEST(ZoneMapTest, ClusteredOnePercentSelectivitySkipsMostChunks) {
  constexpr size_t kRows = 100'000;
  ScopedChunkRows cs(1000);  // 100 chunks
  Table t = MakeClusteredTable(kRows);
  // 1% of the rows, contiguous in `t` (clustered layout).
  const PredicatePtr p =
      Predicate::Between("t", Value(int64_t{50'000}), Value(int64_t{50'999}));
  ASSERT_OK_AND_ASSIGN(CompiledPredicate cp, CompiledPredicate::Compile(t, *p));
  ResetZoneSkipStats();
  const std::vector<uint32_t> sel = cp.Select();
  EXPECT_EQ(sel.size(), 1000u);
  const ZoneSkipStats stats = GetZoneSkipStats();
  ASSERT_EQ(stats.chunks, 100u);
  // Acceptance bar: >= 90% of chunks skipped at 1% selectivity.
  EXPECT_GE(stats.skipped, 90u);
}

TEST(ZoneMapTest, ProvablyTrueChunksShortCircuit) {
  constexpr size_t kRows = 50'000;
  ScopedChunkRows cs(1000);
  Table t = MakeClusteredTable(kRows);
  const PredicatePtr p =
      Predicate::Compare("t", CompareOp::kLt, Value(int64_t{25'000}));
  ASSERT_OK_AND_ASSIGN(CompiledPredicate cp, CompiledPredicate::Compile(t, *p));
  ResetZoneSkipStats();
  const std::vector<uint32_t> sel = cp.Select();
  EXPECT_EQ(sel.size(), 25'000u);
  const ZoneSkipStats stats = GetZoneSkipStats();
  EXPECT_EQ(stats.take_all, 25u);
  EXPECT_EQ(stats.skipped, 25u);
}

TEST(ZoneMapTest, AllNanChunksAreSkippedForDoublePredicates) {
  ScopedChunkRows cs(64);
  Schema schema({{"x", DataType::kDouble}});
  TableBuilder b(schema);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK(b.AppendRow({Value(nan)}));  // chunk 0: all NaN
  }
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK(b.AppendRow({Value(1.0)}));  // chunk 1: all 1.0
  }
  Table t = std::move(b).Finish();
  // NaN matches nothing, including `!=`.
  ASSERT_OK_AND_ASSIGN(
      CompiledPredicate ne,
      CompiledPredicate::Compile(
          t, *Predicate::Compare("x", CompareOp::kNe, Value(5.0))));
  ResetZoneSkipStats();
  EXPECT_EQ(ne.Select().size(), 64u);
  const ZoneSkipStats stats = GetZoneSkipStats();
  EXPECT_EQ(stats.skipped, 1u);   // the all-NaN chunk
  EXPECT_EQ(stats.take_all, 1u);  // the all-1.0 chunk (NaN-free)
}

TEST(ZoneMapTest, MaskRangeMatchesSelection) {
  constexpr size_t kRows = 20'000;
  ScopedChunkRows cs(1000);
  Table t = MakeClusteredTable(kRows);
  const PredicatePtr p =
      Predicate::Between("t", Value(int64_t{5'000}), Value(int64_t{5'199}));
  ASSERT_OK_AND_ASSIGN(CompiledPredicate cp, CompiledPredicate::Compile(t, *p));
  const std::vector<uint32_t> sel = cp.Select();
  // Unaligned window straddling skip / residual / take-all chunks.
  const size_t lo = 4'321, hi = 17'777;
  std::vector<uint8_t> mask(hi - lo);
  cp.EvalMaskRange(lo, hi, mask.data());
  std::vector<uint32_t> from_mask;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) from_mask.push_back(static_cast<uint32_t>(lo + i));
  }
  std::vector<uint32_t> expect;
  for (uint32_t r : sel) {
    if (r >= lo && r < hi) expect.push_back(r);
  }
  EXPECT_EQ(from_mask, expect);
}

}  // namespace
}  // namespace cvopt
