// Tests for src/exec: exact group-by execution, aggregates, cube expansion,
// result joins.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <thread>

#include "src/core/stratification.h"
#include "src/estimate/approx_executor.h"
#include "src/exec/cube.h"
#include "src/exec/group_by_executor.h"
#include "src/exec/parallel.h"
#include "src/exec/query_context.h"
#include "src/exec/result_join.h"
#include "src/expr/plan_cache.h"
#include "src/sample/sampler.h"
#include "src/server/protocol.h"
#include "src/util/failpoint.h"
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

TEST(AccumulateSourcesTest, SharedStreamMatchesSeparatePasses) {
  // AVG(v) and SUM(v) over one stream share one pass, and so do two
  // VARIANCE sources; their slabs equal those of passes each over a
  // private copy of the stream bit for bit, on the chunk-merged and
  // partitioned paths, shifted or not.
  Table t = MakeSkewedTable(40, 30);
  const std::vector<double>& v = t.column(1).doubles();
  const std::vector<AggSpec> aggs = {AggSpec::Avg("v"), AggSpec::Sum("v"),
                                     AggSpec::Variance("v"),
                                     AggSpec::Variance("v")};
  const std::vector<std::vector<double>> copies(aggs.size(), v);
  std::vector<ValueSpan> shared(aggs.size()), separate(aggs.size());
  for (size_t j = 0; j < aggs.size(); ++j) {
    shared[j].doubles = v.data();
    separate[j].doubles = copies[j].data();
  }
  auto same_bits = [](const std::vector<double>& a,
                      const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  };
  ScopedExecThreads threads(4);
  for (const int radix : {0, 1}) {
    ScopedRadixOverride force(radix, /*partitions=*/8);
    ASSERT_OK_AND_ASSIGN(GroupIndex gidx, GroupIndex::Build(t, {"g"}));
    ASSERT_EQ(gidx.partitions() != nullptr, radix == 1);
    for (const bool shifted : {false, true}) {
      SCOPED_TRACE(testing::Message() << "radix " << radix << " shifted "
                                      << shifted);
      GroupedPass pass;
      pass.num_groups = gidx.num_groups();
      pass.row_groups = &gidx.row_groups();
      pass.sizes = &gidx.sizes();
      pass.parts = gidx.partitions().get();
      pass.chunks = 4;
      pass.shift_rows = shifted ? &gidx.rep_rows() : nullptr;
      GroupedAccumulators one, two;
      AccumulateSources(pass, aggs, shared, &one);
      AccumulateSources(pass, aggs, separate, &two);
      for (size_t j = 0; j < aggs.size(); ++j) {
        EXPECT_TRUE(same_bits(one.sums[j], two.sums[j])) << j;
        EXPECT_TRUE(same_bits(one.sums2[j], two.sums2[j])) << j;
        if (shifted) EXPECT_TRUE(same_bits(one.shifts[j], two.shifts[j])) << j;
      }
    }
  }
}

// Rows for the accumulation and WHERE tests: `g` cycles through 23 groups
// in runs of 37 rows, `t` ascends (so a range predicate on it mixes
// zone-skipped, take-all and residual chunks), `v` is a signed double and
// `k` a signed int64.
Table MakeAccumulationTable(size_t rows) {
  Schema schema({{"g", DataType::kInt64},
                 {"t", DataType::kInt64},
                 {"v", DataType::kDouble},
                 {"k", DataType::kInt64}});
  TableBuilder b(schema);
  Rng rng(11);
  for (size_t i = 0; i < rows; ++i) {
    Status st = b.AppendRow(
        {Value(static_cast<int64_t>(i / 37 % 23)),
         Value(static_cast<int64_t>(i)), Value(50.0 * rng.NextGaussian()),
         Value(static_cast<int64_t>(rng.Uniform(1000)) - 500)});
    CVOPT_CHECK(st.ok(), "append failed");
  }
  return std::move(b).Finish();
}

// t in [1000, 2999], or t >= 4000 with v > 0: with small chunks the zone
// maps skip some chunks, take others whole and leave the rest residual.
PredicatePtr MixedVerdictPredicate() {
  return Predicate::Or(
      Predicate::Between("t", Value(int64_t{1000}), Value(int64_t{2999})),
      Predicate::And(
          Predicate::Compare("t", CompareOp::kGe, Value(int64_t{4000})),
          Predicate::Compare("v", CompareOp::kGt, Value(0.0))));
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Sum of term(i) per group by the plain loop: each chunk's positions
// (ascending, chunks in order) add into a zeroed partial, and the partials
// add in chunk order — the core's chunk-order merge, one slab at a time.
std::vector<double> ChunkedSums(
    const std::vector<std::vector<uint32_t>>& chunks,
    const std::vector<uint32_t>& rg, size_t groups,
    const std::function<double(size_t)>& term) {
  std::vector<double> total(groups, 0.0);
  for (const std::vector<uint32_t>& positions : chunks) {
    std::vector<double> part(groups, 0.0);
    for (const uint32_t i : positions) part[rg[i]] += term(i);
    for (size_t g = 0; g < groups; ++g) total[g] += part[g];
  }
  return total;
}

TEST(AccumulateSourcesTest, FusedLoopMatchesPerAccumulatorReference) {
  // The fused loop adds counts, weights and the first stream's S / S2 in
  // one pass; every slab must equal a plain loop per accumulator bit for
  // bit, unweighted and weighted, unmasked, under a selection and under a
  // WHERE plan, on the chunk-order merge at 1-8 chunks and on forced radix
  // partitions.
  ScopedChunkRows chunk_rows(256);
  const size_t n = 6007;
  Table t = MakeAccumulationTable(n);
  const std::vector<double>& v = t.column(2).doubles();
  const std::vector<int64_t>& k = t.column(3).ints();
  std::vector<uint8_t> ind(n);
  std::vector<double> weights(n);
  std::vector<uint32_t> sel;
  for (size_t i = 0; i < n; ++i) {
    ind[i] = k[i] > 100 ? 1 : 0;
    weights[i] = 1.0 + static_cast<double>(i % 7) * 0.37;
    if (i % 3 != 0 && (i < 2000 || i > 2500)) {
      sel.push_back(static_cast<uint32_t>(i));
    }
  }
  ASSERT_OK_AND_ASSIGN(CompiledPredicate where,
                       CompiledPredicate::Compile(t, MixedVerdictPredicate()));
  std::vector<uint8_t> match(n);
  for (size_t i = 0; i < n; ++i) match[i] = where.MatchesRow(i) ? 1 : 0;

  // Two distinct value streams (v, k), COUNT_IF, VARIANCE and MEDIAN, plus
  // COUNT and a SUM(v) that shares AVG(v)'s slabs.
  const std::vector<AggSpec> aggs = {
      AggSpec::Avg("v"),
      AggSpec::Sum("k"),
      AggSpec::CountIf(Predicate::Compare("k", CompareOp::kGt, 100)),
      AggSpec::Variance("v"),
      AggSpec::Median("v"),
      AggSpec::Count(),
      AggSpec::Sum("v")};
  std::vector<ValueSpan> values(aggs.size());
  values[0].doubles = v.data();
  values[1].ints = k.data();
  values[2].indicator = ind.data();
  values[3].doubles = v.data();
  values[4].doubles = v.data();
  values[6].doubles = v.data();
  auto value_of = [&](size_t j, size_t i) {
    return values[j].indicator != nullptr ? (ind[i] ? 1.0 : 0.0)
           : values[j].doubles != nullptr ? v[i]
                                          : static_cast<double>(k[i]);
  };

  for (const int radix : {0, 1}) {
    std::unique_ptr<GroupIndex> gidx;
    {
      ScopedRadixOverride force(radix, /*partitions=*/8);
      ScopedExecThreads build_threads(4);
      ASSERT_OK_AND_ASSIGN(GroupIndex built, GroupIndex::Build(t, {"g"}));
      gidx = std::make_unique<GroupIndex>(std::move(built));
    }
    ASSERT_EQ(gidx->partitions() != nullptr, radix == 1);
    const std::vector<uint32_t>& rg = gidx->row_groups();
    const size_t G = gidx->num_groups();
    for (const int threads : {1, 2, 4, 8}) {
      ScopedExecThreads scope(threads);
      for (const bool weighted : {false, true}) {
        for (const int mask : {0, 1, 2}) {  // none, selection, WHERE
          SCOPED_TRACE(testing::Message()
                       << "radix " << radix << " threads " << threads
                       << " weighted " << weighted << " mask " << mask);
          GroupedPass pass;
          pass.num_groups = G;
          pass.row_groups = &rg;
          pass.sizes = &gidx->sizes();
          pass.parts = gidx->partitions().get();
          pass.sel = mask == 1 ? &sel : nullptr;
          pass.where = mask == 2 ? &where : nullptr;
          pass.weights = weighted ? &weights : nullptr;
          pass.chunks = static_cast<size_t>(threads);
          GroupedAccumulators acc;
          AccumulateSources(pass, aggs, values, &acc);

          // The positions each chunk visits: `sel` indices under a
          // selection, rows otherwise; partitions visit them all in one
          // ascending run per group.
          const size_t chunks = radix == 1 ? 1 : pass.chunks;
          const size_t m = mask == 1 ? sel.size() : n;
          std::vector<std::vector<uint32_t>> visits(chunks);
          for (size_t c = 0; c < chunks; ++c) {
            for (size_t p = ChunkBegin(m, chunks, c);
                 p < ChunkBegin(m, chunks, c + 1); ++p) {
              const uint32_t i = mask == 1 ? sel[p] : static_cast<uint32_t>(p);
              if (mask != 2 || match[i]) visits[c].push_back(i);
            }
          }
          auto w = [&](size_t i) { return weighted ? weights[i] : 1.0; };

          std::vector<uint64_t> cnt(G, 0);
          for (const auto& positions : visits) {
            for (const uint32_t i : positions) cnt[rg[i]]++;
          }
          EXPECT_EQ(acc.cnt, cnt);
          if (weighted) {
            EXPECT_TRUE(SameBits(acc.wcnt, ChunkedSums(visits, rg, G, w)));
          } else {
            EXPECT_TRUE(acc.wcnt.empty());
          }
          for (size_t j = 0; j < aggs.size(); ++j) {
            const AggFunc f = aggs[j].func;
            if (f == AggFunc::kCount || f == AggFunc::kMedian) continue;
            EXPECT_TRUE(SameBits(acc.sums[j],
                                 ChunkedSums(visits, rg, G, [&](size_t i) {
                                   return w(i) * value_of(j, i);
                                 })))
                << j;
            if (f == AggFunc::kVariance) {
              EXPECT_TRUE(SameBits(acc.sums2[j],
                                   ChunkedSums(visits, rg, G, [&](size_t i) {
                                     const double x = value_of(j, i);
                                     return w(i) * x * x;
                                   })))
                  << j;
            }
          }
          // MEDIAN buffers: each group's values (and weights) in ascending
          // position order.
          std::vector<std::vector<double>> mv(G);
          std::vector<std::vector<std::pair<double, double>>> mp(G);
          for (const auto& positions : visits) {
            for (const uint32_t i : positions) {
              mv[rg[i]].push_back(v[i]);
              mp[rg[i]].emplace_back(v[i], weights[i]);
            }
          }
          if (weighted) {
            EXPECT_EQ(acc.median_pairs[4], mp);
          } else {
            EXPECT_EQ(acc.median_values[4], mv);
          }
        }
      }
    }
  }
}

// The serial answer: the rows matching query.where, found one row at a
// time by the scalar evaluator, accumulated in ascending order by the
// core's plain selection loop (one chunk) and finalized like the
// executors' results.
QueryResult SerialWhereAnswer(const Table& t, const QuerySpec& q,
                              const std::vector<double>* weights) {
  ScopedExecThreads serial(1);
  auto gidx = GroupIndex::Build(t, q.group_by).ValueOrDie();
  auto where = CompiledPredicate::Compile(t, q.where).ValueOrDie();
  std::vector<uint32_t> sel;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (where.MatchesRow(r)) sel.push_back(static_cast<uint32_t>(r));
  }
  auto bound = BoundAggregates::Bind(t, q.aggregates).ValueOrDie();
  GroupedPass pass;
  pass.num_groups = gidx.num_groups();
  pass.row_groups = &gidx.row_groups();
  pass.sizes = &gidx.sizes();
  pass.sel = &sel;
  pass.weights = weights;
  GroupedAccumulators acc;
  AccumulateSources(pass, q.aggregates, SpansOf(bound.sources()), &acc);
  return GroupedResult(t, q, gidx, &acc).ValueOrDie();
}

std::vector<QuerySpec> WhereQueries() {
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Avg("v"),      AggSpec::Sum("k"),
                  AggSpec::Count(),       AggSpec::Variance("v"),
                  AggSpec::Median("v"),
                  AggSpec::CountIf(Predicate::Compare("k", CompareOp::kGt, 0))};
  std::vector<QuerySpec> qs;
  for (const PredicatePtr& p :
       {MixedVerdictPredicate(),
        Predicate::Compare("v", CompareOp::kGt, Value(0.0)),
        Predicate::Compare("t", CompareOp::kLt, Value(int64_t{0}))}) {
    q.where = p;
    qs.push_back(q);
  }
  return qs;
}

// Chunk sizes of 64 and 1000 rows and the 4096-row default: none divides
// the 6007-row table.
constexpr size_t kWhereChunkRows[] = {64, 1000, 4096};

TEST(WhereScanTest, ExactMatchesSerialAnswerAtEveryChunkSize) {
  for (const size_t chunk_rows : kWhereChunkRows) {
    ScopedChunkRows chunks(chunk_rows);
    ClearPlanCache();
    Table t = MakeAccumulationTable(6007);
    const std::vector<QuerySpec> queries = WhereQueries();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const QuerySpec& q = queries[qi];
      SCOPED_TRACE(testing::Message() << "chunk " << chunk_rows << " "
                                      << q.where->ToString());
      const QueryResult want = SerialWhereAnswer(t, q, nullptr);
      {
        ScopedExecThreads serial(1);
        ResetZoneSkipStats();
        ASSERT_OK_AND_ASSIGN(QueryResult got, ExecuteExact(t, q));
        ExpectBitIdentical(got, want);
        if (chunk_rows == 64 && qi == 0) {
          // The mixed predicate: skipped, take-all and residual chunks.
          const ZoneSkipStats z = GetZoneSkipStats();
          EXPECT_GT(z.skipped, 0u);
          EXPECT_GT(z.take_all, 0u);
          EXPECT_GT(z.chunks, z.skipped + z.take_all);
        }
      }
      // Partition-owned slabs add in ascending row order at any thread
      // count.
      ScopedRadixOverride radix(1, /*partitions=*/8);
      ScopedExecThreads threads(4);
      ASSERT_OK_AND_ASSIGN(QueryResult got, ExecuteExact(t, q));
      ExpectBitIdentical(got, want);
    }
  }
}

TEST(WhereScanTest, ApproxMatchesSerialAnswerAtEveryChunkSize) {
  ScopedExecThreads serial(1);
  for (const size_t chunk_rows : kWhereChunkRows) {
    ScopedChunkRows chunks(chunk_rows);
    ClearPlanCache();
    Table t = MakeAccumulationTable(6007);
    auto strat = std::make_shared<Stratification>(
        Stratification::Build(t, {"g"}).ValueOrDie());
    std::vector<uint64_t> sizes(strat->num_strata(), 150);
    Rng rng(5);
    ASSERT_OK_AND_ASSIGN(StratifiedSample sample,
                         DrawStratified(t, strat, sizes, "test", &rng));
    for (const QuerySpec& q : WhereQueries()) {
      SCOPED_TRACE(testing::Message() << "chunk " << chunk_rows << " "
                                      << q.where->ToString());
      ASSERT_OK_AND_ASSIGN(QueryResult got, ExecuteApprox(sample, q));
      ExpectBitIdentical(got,
                         SerialWhereAnswer(sample.table(), q,
                                           &sample.weights()));
    }
  }
}

TEST(WhereScanTest, CubeBasePassMatchesSerialAnswerAtEveryChunkSize) {
  ScopedExecThreads serial(1);
  std::vector<QueryResult> first;  // every grouping set, first chunk size
  for (const size_t chunk_rows : kWhereChunkRows) {
    ScopedChunkRows chunks(chunk_rows);
    ClearPlanCache();
    Table t = MakeAccumulationTable(6007);
    QuerySpec q = WhereQueries()[0];
    q.aggregates = {AggSpec::Avg("v"), AggSpec::Sum("k"), AggSpec::Count()};
    ASSERT_OK_AND_ASSIGN(std::vector<QueryResult> sets, ExecuteCube(t, q));
    ASSERT_EQ(sets.size(), 2u);  // {g} and the grand total
    ExpectBitIdentical(sets[0], SerialWhereAnswer(t, q, nullptr));
    if (first.empty()) {
      first = sets;
      continue;
    }
    for (size_t i = 0; i < sets.size(); ++i) {
      ExpectBitIdentical(sets[i], first[i]);
    }
  }
}

TEST(WhereScanTest, AbortMidScanReturnsTypedStatus) {
  // The WHERE walk checks governance at every storage chunk it hands to
  // the loops; a cancel or deadline firing at the third chunk ends the
  // query with its own code, and the next query runs.
  ScopedChunkRows chunks(64);
  ScopedExecThreads serial(1);
  Table t = MakeAccumulationTable(6007);
  QuerySpec q = WhereQueries()[1];  // v > 0: every chunk is residual
  for (const auto& [policy, code] :
       {std::make_pair("cancel@3", StatusCode::kCancelled),
        std::make_pair("deadline@3", StatusCode::kDeadlineExceeded)}) {
    ASSERT_OK(failpoint::SetForTesting(std::string("exec.groupby.chunk:") +
                                       policy));
    Result<QueryResult> r = ExecuteExact(t, q);
    const uint64_t hits = failpoint::HitCount("exec.groupby.chunk");
    failpoint::ClearForTesting();
    ASSERT_FALSE(r.ok()) << policy;
    EXPECT_EQ(r.status().code(), code) << policy;
    EXPECT_EQ(hits, 3u) << policy;
  }
  ASSERT_OK_AND_ASSIGN(QueryResult again, ExecuteExact(t, q));
  EXPECT_GT(again.num_groups(), 0u);
}

TEST(WhereScanTest, BudgetBelowRowSelectionSucceeds) {
  // A WHERE query no longer holds a 4 B/row selection vector: a budget
  // that fits the batch's group index (4 B/row) and the accumulators, but
  // not another 4 B/row, answers the query exactly as without a budget.
  ScopedExecThreads serial(1);
  const size_t n = 60000;
  Table t = MakeAccumulationTable(n);
  const QuerySpec q = WhereQueries()[0];
  ASSERT_OK_AND_ASSIGN(QueryResult want, ExecuteExact(t, q));
  QueryContext ctx;
  ctx.set_memory_limit(6 * n);
  ScopedQueryContext install(&ctx);
  ASSERT_OK_AND_ASSIGN(QueryResult got, ExecuteExact(t, q));
  ExpectBitIdentical(got, want);
  EXPECT_LT(ctx.budget().peak(), 8 * n);
}

TEST(SharedGroupIndexTest, OneBuildPerContextTableAndGrouping) {
  Table t = MakeStudentTable();
  Table other = MakeStudentTable();
  // Without an ambient context every call builds.
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const GroupIndex> a,
                       GroupIndex::BuildShared(t, {"major"}));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const GroupIndex> b,
                       GroupIndex::BuildShared(t, {"major"}));
  EXPECT_NE(a, b);

  std::shared_ptr<const GroupIndex> first;
  {
    QueryContext ctx;
    ScopedQueryContext scope(&ctx);
    ASSERT_OK_AND_ASSIGN(first, GroupIndex::BuildShared(t, {"major"}));
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const GroupIndex> again,
                         GroupIndex::BuildShared(t, {"major"}));
    EXPECT_EQ(again, first);
    // The stratification is a view over the same index, not a copy.
    ASSERT_OK_AND_ASSIGN(Stratification strat,
                         Stratification::Build(t, {"major"}));
    EXPECT_EQ(&strat.row_strata(), &first->row_groups());
    EXPECT_EQ(&strat.sizes(), &first->sizes());
    EXPECT_EQ(&strat.first_rows(), &first->rep_rows());
    // Another table, or another grouping, builds its own.
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const GroupIndex> other_table,
                         GroupIndex::BuildShared(other, {"major"}));
    EXPECT_NE(other_table, first);
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const GroupIndex> by_college,
                         GroupIndex::BuildShared(t, {"college"}));
    EXPECT_NE(by_college, first);
  }
  // A later context starts empty.
  QueryContext later;
  ScopedQueryContext scope(&later);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const GroupIndex> fresh,
                       GroupIndex::BuildShared(t, {"major"}));
  EXPECT_NE(fresh, first);
  EXPECT_EQ(fresh->row_groups(), first->row_groups());
}

TEST(SharedGroupIndexTest, PoolWorkersShareTheContextMemo) {
  // Pool workers inherit the submitting thread's context, so concurrent
  // BuildShared calls touch one memo; every caller gets the same mapping.
  Table t = MakeSkewedTable(40, 30);
  ScopedExecThreads threads(4);
  QueryContext ctx;
  ScopedQueryContext scope(&ctx);
  ASSERT_OK_AND_ASSIGN(GroupIndex want, GroupIndex::Build(t, {"g"}));
  std::vector<std::shared_ptr<const GroupIndex>> got(8);
  ParallelForChunks(got.size(), got.size(), [&](size_t c, size_t, size_t) {
    got[c] = std::move(GroupIndex::BuildShared(t, {"g"})).ValueOrDie();
  });
  for (const auto& g : got) EXPECT_EQ(g->row_groups(), want.row_groups());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const GroupIndex> after,
                       GroupIndex::BuildShared(t, {"g"}));
  EXPECT_EQ(after->row_groups(), want.row_groups());
}

TEST(SharedGroupIndexTest, MemoKeepsTheIndexCharged) {
  // The memo's index stays charged to the request's budget (and its
  // parent's) until the slot is replaced or the context ends.
  Table t = MakeSkewedTable(40, 30);
  Table small = MakeSkewedTable(4, 10);
  MemoryBudget server(uint64_t{1} << 40);
  {
    QueryContext ctx;
    ctx.set_memory_limit(uint64_t{1} << 30, &server);
    ScopedQueryContext scope(&ctx);
    QuerySpec q;
    q.group_by = {"g"};
    q.aggregates = {AggSpec::Avg("v")};
    ASSERT_OK(ExecuteExact(t, q).status());
    EXPECT_GE(ctx.budget().used(), 4 * t.num_rows());
    EXPECT_GE(server.used(), 4 * t.num_rows());
    ASSERT_OK(ExecuteExact(small, q).status());
    EXPECT_EQ(ctx.budget().used(), 4 * small.num_rows());
  }
  EXPECT_EQ(server.used(), 0u);
}

TEST(QueryResultTest, WidthMismatchRejected) {
  // One group, two finals for one aggregate.
  const Result<QueryResult> r = QueryResult::Dense(
      {"COUNT(*)"}, {"g"}, {KeyColumn{}}, {2}, {1}, {1.0, 2.0});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// A table whose groupings render every label shape: a string key, int keys
// at both ends of the range, and a mixed key.
Table MakeLabelTable() {
  TableBuilder b(Schema({{"s", DataType::kString},
                         {"i", DataType::kInt64},
                         {"t", DataType::kString},
                         {"v", DataType::kDouble}}));
  const auto add = [&b](const char* s, int64_t i, const char* t) {
    CVOPT_CHECK(b.AppendRow({Value(s), Value(i), Value(t), Value(1.0)}).ok(),
                "append failed");
  };
  add("Science", -7, "a b");
  add("Eng|x", std::numeric_limits<int64_t>::min(), "");
  add("Science", std::numeric_limits<int64_t>::max(), "a b");
  add("", 0, "z");
  return std::move(b).Finish();
}

// The labels the wire carries, pinned byte for byte.
TEST(QueryResultTest, LabelGolden) {
  const Table t = MakeLabelTable();
  const auto labels = [&t](std::vector<std::string> group_by) {
    QuerySpec q;
    q.group_by = std::move(group_by);
    q.aggregates = {AggSpec::Count()};
    Result<QueryResult> r = ExecuteExact(t, q);
    CVOPT_CHECK(r.ok(), "query failed");
    return FlattenResult(*r).group_labels;
  };
  using Labels = std::vector<std::string>;
  EXPECT_EQ(labels({"s"}), (Labels{"Science", "Eng|x", ""}));
  EXPECT_EQ(labels({"i"}),
            (Labels{"-7", "-9223372036854775808", "9223372036854775807",
                    "0"}));
  EXPECT_EQ(labels({"s", "i", "t"}),
            (Labels{"Science|-7|a b", "Eng|x|-9223372036854775808|",
                    "Science|9223372036854775807|a b", "|0|z"}));
  EXPECT_EQ(labels({}), (Labels{""}));
}

// Groups pair by code only under agreeing dictionaries. TakeRows re-interns
// strings, so t.TakeRows({1, 0}) codes "b" as 0 and "a" as 1: pairing its
// result with t's by code would match "a" with "b".
TEST(QueryResultTest, MatchGroupsRefusesDisagreeingDictionaries) {
  TableBuilder b(Schema({{"s", DataType::kString}, {"v", DataType::kDouble}}));
  ASSERT_OK(b.AppendRow({Value("a"), Value(1.0)}));
  ASSERT_OK(b.AppendRow({Value("b"), Value(2.0)}));
  const Table t = std::move(b).Finish();
  QuerySpec q;
  q.group_by = {"s"};
  q.aggregates = {AggSpec::Avg("v")};
  ASSERT_OK_AND_ASSIGN(const QueryResult base, ExecuteExact(t, q));
  ASSERT_OK_AND_ASSIGN(const QueryResult swapped,
                       ExecuteExact(t.TakeRows({1, 0}), q));
  const Result<std::vector<size_t>> crossed = MatchGroups(swapped, base);
  ASSERT_FALSE(crossed.ok());
  EXPECT_EQ(crossed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(MatchGroups(base, swapped).ok());

  // A dictionary that is a prefix of the other still pairs by key, both ways.
  ASSERT_OK_AND_ASSIGN(const QueryResult prefix,
                       ExecuteExact(t.TakeRows({0, 0}), q));
  ASSERT_OK_AND_ASSIGN(std::vector<size_t> into_base, MatchGroups(prefix, base));
  EXPECT_EQ(into_base, (std::vector<size_t>{0}));
  ASSERT_OK_AND_ASSIGN(std::vector<size_t> into_prefix,
                       MatchGroups(base, prefix));
  EXPECT_EQ(into_prefix, (std::vector<size_t>{0, kNoGroup}));

  // Int keys carry no dictionary; a string key never pairs with an int one.
  TableBuilder ib(Schema({{"s", DataType::kInt64}, {"v", DataType::kDouble}}));
  ASSERT_OK(ib.AppendRow({Value(int64_t{0}), Value(1.0)}));
  ASSERT_OK_AND_ASSIGN(const QueryResult ints,
                       ExecuteExact(std::move(ib).Finish(), q));
  EXPECT_FALSE(MatchGroups(ints, base).ok());
  ASSERT_OK(MatchGroups(ints, ints).status());
}

// A const result is read from several threads at once: every reader sees
// what a lone reader sees (and ThreadSanitizer sees no race).
TEST(QueryResultTest, ConcurrentConstReads) {
  TableBuilder b(Schema({{"s", DataType::kString},
                         {"i", DataType::kInt64},
                         {"v", DataType::kDouble}}));
  for (int r = 0; r < 2000; ++r) {
    ASSERT_OK(b.AppendRow({Value("k" + std::to_string(r % 37)),
                           Value(static_cast<int64_t>(r % 11 - 5)),
                           Value(0.5 * r)}));
  }
  const Table t = std::move(b).Finish();
  QuerySpec q;
  q.group_by = {"s", "i"};
  q.aggregates = {AggSpec::Avg("v"), AggSpec::Count()};
  ASSERT_OK_AND_ASSIGN(const QueryResult result, ExecuteExact(t, q));
  ASSERT_GT(result.num_groups(), 100u);

  const auto read = [&result] {
    std::vector<std::string> out;
    for (size_t i = 0; i < result.num_groups(); ++i) {
      out.push_back(result.label(i));
      const std::optional<size_t> found = result.FindByLabel(out.back());
      out.push_back(found.has_value() ? std::to_string(*found) : "-");
    }
    const Result<std::vector<size_t>> match = MatchGroups(result, result);
    for (size_t j : match.value()) out.push_back(std::to_string(j));
    out.push_back(result.ToString(1000));
    const WireResult w = FlattenResult(result);
    out.insert(out.end(), w.group_labels.begin(), w.group_labels.end());
    for (uint64_t bits : w.value_bits) out.push_back(std::to_string(bits));
    return out;
  };
  const std::vector<std::string> want = read();
  std::vector<std::vector<std::string>> got(4);
  std::vector<std::thread> readers;
  for (auto& g : got) readers.emplace_back([&g, &read] { g = read(); });
  for (std::thread& th : readers) th.join();
  for (const auto& g : got) EXPECT_EQ(g, want);
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

TEST(ResultJoinTest, DiffKeepsMatchedGroupsOnly) {
  ASSERT_OK_AND_ASSIGN(QueryResult a,
                       IntKeyResult("g", "v", {{1, 10.0}, {2, 20.0}}));
  ASSERT_OK_AND_ASSIGN(QueryResult b, IntKeyResult("g", "v", {{1, 4.0}}));
  ASSERT_OK_AND_ASSIGN(QueryResult diff, DiffResults(a, b));
  ASSERT_EQ(diff.num_groups(), 1u);
  EXPECT_EQ(diff.key_codes(0)[0], 1);
  EXPECT_DOUBLE_EQ(diff.value(0, 0), 6.0);
  EXPECT_EQ(diff.agg_labels(), (std::vector<std::string>{"delta v"}));
}

TEST(ResultJoinTest, MismatchedAggCountsRejected) {
  ASSERT_OK_AND_ASSIGN(QueryResult a, IntKeyResult("g", "v", {}));
  ASSERT_OK_AND_ASSIGN(QueryResult b,
                       QueryResult::Dense({"v", "w"}, {"g"}, {KeyColumn{}},
                                          {}, {}, {}));
  EXPECT_FALSE(DiffResults(a, b).ok());
}

// Codes of different groupings do not compare: "x" and "p" share code 0.
TEST(ResultJoinTest, DifferentGroupingsRejected) {
  const Table t = MakeTwoKeyTable();
  QuerySpec by_a;
  by_a.group_by = {"a"};
  by_a.aggregates = {AggSpec::Sum("v")};
  QuerySpec by_b = by_a;
  by_b.group_by = {"b"};
  ASSERT_OK_AND_ASSIGN(QueryResult a, ExecuteExact(t, by_a));
  ASSERT_OK_AND_ASSIGN(QueryResult b, ExecuteExact(t, by_b));
  const Result<QueryResult> diff = DiffResults(a, b);
  ASSERT_FALSE(diff.ok());
  EXPECT_EQ(diff.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cvopt
