// End-to-end governance coverage: within-budget governed queries are
// bit-identical to ungoverned runs at every thread count; deadline /
// cancellation / budget violations come back as typed Status without
// crashing or deadlocking; a poisoned morsel halts the pool promptly; the
// in-memory -> out-of-core group-by degradation preserves results exactly;
// partial (deadline-degraded) draws flag their shortfall; and an injected
// mid-query fault leaves the plan cache and decoded-chunk LRU intact.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "src/aqp/engine.h"
#include "src/estimate/approx_executor.h"
#include "src/exec/chunked_scan.h"
#include "src/exec/group_by_executor.h"
#include "src/exec/query_context.h"
#include "src/sample/sampler.h"
#include "src/server/sample_catalog.h"
#include "src/stats/stats_collector.h"
#include "src/table/mapped_table.h"
#include "src/table/table_io.h"
#include "src/util/failpoint.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

namespace fp = failpoint;

QuerySpec GroupQuery() {
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Avg("v"), AggSpec::Count(), AggSpec::Variance("v")};
  return q;
}

QuerySpec FilteredQuery() {
  QuerySpec q = GroupQuery();
  q.where = Predicate::Compare("v", CompareOp::kGt, Value(5.0));
  return q;
}

// Configures a context that cannot plausibly fire: governance installed,
// never binding. (QueryContext holds atomics, so it is configured in
// place rather than returned by value.)
void MakePermissive(QueryContext* ctx) {
  ctx->set_timeout(std::chrono::hours(24));
  ctx->set_memory_limit(uint64_t{1} << 40);
}

TEST(GovernanceDeterminismTest, GovernedWithinBudgetBitIdentical) {
  Table t = MakeSkewedTable(12, 300);
  for (int threads : {1, 2, 3, 8}) {
    ScopedExecThreads scope(threads);
    for (const QuerySpec& q : {GroupQuery(), FilteredQuery()}) {
      ASSERT_OK_AND_ASSIGN(QueryResult plain, ExecuteExact(t, q));
      QueryContext ctx;
      MakePermissive(&ctx);
      ScopedQueryContext install(&ctx);
      ASSERT_OK_AND_ASSIGN(QueryResult governed, ExecuteExact(t, q));
      ExpectBitIdentical(plain, governed);
      EXPECT_GT(ctx.checks_performed(), 0u) << "governance never consulted";
      EXPECT_EQ(ctx.budget().used(), 0u) << "reservation leaked";
      EXPECT_GT(ctx.budget().peak(), 0u) << "nothing was ever reserved";
    }
  }
}

TEST(GovernanceDeterminismTest, GovernedApproxPipelineBitIdentical) {
  Table t = MakeSkewedTable(10, 250);
  QuerySpec q = GroupQuery();
  auto run = [&](const QueryContext* ctx) -> QueryResult {
    ScopedQueryContext install(ctx);
    auto strat_r = Stratification::Build(t, {"g"});
    CVOPT_CHECK(strat_r.ok(), "stratification failed");
    auto shared = std::make_shared<Stratification>(std::move(strat_r).value());
    std::vector<uint64_t> sizes(shared->num_strata(), 50);
    Rng rng(97);
    auto sample_r = DrawStratified(t, shared, sizes, "test", &rng);
    CVOPT_CHECK(sample_r.ok(), "draw failed");
    auto result_r = ExecuteApprox(sample_r.value(), q);
    CVOPT_CHECK(result_r.ok(), "approx failed");
    return std::move(result_r).value();
  };
  for (int threads : {1, 3, 8}) {
    ScopedExecThreads scope(threads);
    QueryResult plain = run(nullptr);
    QueryContext ctx;
    MakePermissive(&ctx);
    QueryResult governed = run(&ctx);
    ExpectBitIdentical(plain, governed);
  }
}

TEST(GovernanceAbortTest, PreCancelledQueryReturnsCancelled) {
  Table t = MakeSkewedTable(6, 100);
  QueryContext ctx;
  ctx.Cancel();
  ScopedQueryContext install(&ctx);
  Result<QueryResult> r = ExecuteExact(t, GroupQuery());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(GovernanceAbortTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  Table t = MakeSkewedTable(6, 100);
  QueryContext ctx;
  ctx.set_deadline(QueryContext::Clock::now() - std::chrono::seconds(1));
  ScopedQueryContext install(&ctx);
  Result<QueryResult> r = ExecuteExact(t, GroupQuery());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernanceAbortTest, TinyBudgetReturnsResourceExhausted) {
  Table t = MakeSkewedTable(8, 200);
  QueryContext ctx;
  ctx.set_memory_limit(64);  // nothing real fits
  ScopedQueryContext install(&ctx);
  Result<QueryResult> r = ExecuteExact(t, GroupQuery());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.budget().used(), 0u);  // the refused charge rolled back
}

TEST(GovernanceAbortTest, AbortPropagatesFromParallelWorkers) {
  // Cancel from another thread mid-query; the morsel boundaries must
  // surface kCancelled without hanging the pool. The cancel lands before
  // the query starts or mid-flight — both must yield kCancelled.
  Table t = MakeSkewedTable(12, 500);
  ScopedExecThreads scope(4, 128);
  {
    QueryContext ctx;
    ScopedQueryContext install(&ctx);
    std::thread canceller([&] { ctx.Cancel(); });
    Result<QueryResult> r = ExecuteExact(t, GroupQuery());
    canceller.join();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    }
  }
  // Either way the pool must still be serviceable afterwards (ungoverned).
  ASSERT_OK_AND_ASSIGN(QueryResult again, ExecuteExact(t, GroupQuery()));
  EXPECT_GT(again.num_groups(), 0u);
}

TEST(GovernanceAbortTest, PoisonedMorselHaltsPoolPromptly) {
  // A morsel body that fails must poison its batch: siblings check out
  // without running, the exception resurfaces on the submitting thread,
  // and nothing deadlocks. With 1000 tiny chunks and a failure planted in
  // chunk 3, the executed count must stay far below the total.
  //
  // The claim must not depend on how fast the poisoned morsel's throw
  // reaches the pool's failure flag. Three things make it so: a throw/catch
  // up front, so this batch's throw does not pay the process's one-off
  // unwinder initialisation; a gate that holds every morsel after the
  // poisoned one until the poisoned body has unwound, so no sibling can
  // drain the batch while that thread is descheduled or still unwinding;
  // and a 1 ms pause in each released sibling, so the few microseconds
  // between the unwind and the failure being recorded would have to
  // stretch past 150 ms of descheduling before siblings could run half the
  // batch. Morsels are claimed in index order, so the gate cannot
  // deadlock: chunk 3 is always claimed before any gated morsel waits on
  // it. With the early-exit flag broken, every morsel still runs.
  try {
    throw std::runtime_error("unwinder warm-up");
  } catch (const std::runtime_error&) {
  }
  ScopedExecThreads scope(4, 1);
  constexpr size_t kChunks = 1000;
  std::atomic<size_t> executed{0};
  std::atomic<bool> unwound{false};
  struct SetOnUnwind {
    std::atomic<bool>* flag;
    ~SetOnUnwind() { flag->store(true, std::memory_order_release); }
  };
  bool threw = false;
  try {
    ParallelForChunks(kChunks, kChunks, [&](size_t c, size_t, size_t) {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (c == 3) {
        SetOnUnwind guard{&unwound};
        throw std::runtime_error("poisoned morsel");
      }
      if (c > 3) {
        while (!unwound.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "poisoned morsel");
  }
  EXPECT_TRUE(threw);
  EXPECT_LT(executed.load(), kChunks / 2)
      << "early-exit flag did not stop sibling morsels";
  // The pool survives for the next caller.
  std::atomic<size_t> after{0};
  ParallelForChunks(64, 64, [&](size_t, size_t, size_t) { after++; });
  EXPECT_EQ(after.load(), 64u);
}

TEST(GovernanceAbortTest, InjectedFaultSurfacesThroughGovernedSection) {
  // A failpoint planted in the accumulator-allocation path aborts the
  // query with its typed status, mid-flight, with sanitizers clean.
  Table t = MakeSkewedTable(8, 200);
  ASSERT_OK(fp::SetForTesting("exec.groupby.alloc:cancel"));
  Result<QueryResult> r = ExecuteExact(t, GroupQuery());
  fp::ClearForTesting();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  ASSERT_OK_AND_ASSIGN(QueryResult again, ExecuteExact(t, GroupQuery()));
  EXPECT_GT(again.num_groups(), 0u);

  // The approximate executor accumulates through the same core, so the
  // same site aborts it too.
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < t.num_rows(); r += 3) rows.push_back(r);
  const StratifiedSample sample(&t, rows, std::vector<double>(rows.size(), 3.0),
                                "every-third");
  ASSERT_OK(fp::SetForTesting("exec.groupby.alloc:cancel"));
  Result<QueryResult> approx = ExecuteApprox(sample, GroupQuery());
  fp::ClearForTesting();
  ASSERT_FALSE(approx.ok());
  EXPECT_EQ(approx.status().code(), StatusCode::kCancelled);
  ASSERT_OK_AND_ASSIGN(QueryResult approx_again,
                       ExecuteApprox(sample, GroupQuery()));
  EXPECT_GT(approx_again.num_groups(), 0u);
}

class GovernedMappedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/governance_mapped.cvt";
    SetDefaultChunkRowsForTesting(512);  // many chunks for the scan loop
    // A starved chunk cache keeps every GetChunk an actual decode, so the
    // mapped.chunk_decode fail point sees each scan's full chunk stream.
    SetChunkCacheBudgetForTesting(1);
    ASSERT_OK(WriteTableFile(table_, path_));
  }
  void TearDown() override {
    SetDefaultChunkRowsForTesting(0);
    SetChunkCacheBudgetForTesting(0);
    fp::ClearForTesting();
    std::remove(path_.c_str());
  }
  Table table_ = MakeSkewedTable(10, 400);
  std::string path_;
};

TEST_F(GovernedMappedTest, MappedScanUnderTightBudgetBitIdentical) {
  // A 1 KiB budget refuses the decode wave's reservation: the scan shrinks
  // the wave to one unreserved chunk and still answers exactly as the
  // ungoverned scan does, releasing every reservation afterwards. The
  // 60-group file also outgrows the budget with its accumulators alone
  // (56 bytes a group for FilteredQuery), which the scan then keeps
  // unreserved too.
  const std::string many_path = path_ + ".many";
  ASSERT_OK(WriteTableFile(MakeSkewedTable(60, 2), many_path));
  const QuerySpec q = FilteredQuery();
  for (const std::string& path : {path_, many_path}) {
    ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
    for (int threads : {1, 8}) {
      ScopedExecThreads st(threads);
      ASSERT_OK_AND_ASSIGN(QueryResult ungoverned, ExecuteGroupByMapped(mt, q));
      QueryContext tight;
      tight.set_memory_limit(1024);
      {
        ScopedQueryContext install(&tight);
        ASSERT_OK_AND_ASSIGN(QueryResult governed,
                             ExecuteGroupByMapped(mt, q));
        ExpectBitIdentical(ungoverned, governed);
      }
      EXPECT_EQ(tight.budget().used(), 0u)
          << path << " threads=" << threads;
    }
  }
  std::remove(many_path.c_str());
}

TEST_F(GovernedMappedTest, MappedScanHonorsCancellation) {
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path_));
  QueryContext ctx;
  ctx.Cancel();
  ScopedQueryContext install(&ctx);
  Result<QueryResult> r = ExecuteGroupByMapped(mt, GroupQuery());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST_F(GovernedMappedTest, InjectedDecodeFaultLeavesCachesUsable) {
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path_));
  const QuerySpec q = FilteredQuery();
  ASSERT_OK_AND_ASSIGN(QueryResult baseline, ExecuteGroupByMapped(mt, q));

  // Fail the Nth chunk decode for several N: each aborted scan must leave
  // the decoded-chunk LRU and the plan cache consistent, proven by a clean
  // re-run matching the baseline bitwise.
  for (int nth : {1, 3, 7}) {
    ASSERT_OK(fp::SetForTesting("mapped.chunk_decode:error@" +
                                std::to_string(nth)));
    Result<QueryResult> r = ExecuteGroupByMapped(mt, q);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
    fp::ClearForTesting();
    ASSERT_OK_AND_ASSIGN(QueryResult after, ExecuteGroupByMapped(mt, q));
    ExpectBitIdentical(baseline, after);
  }

  // Same for the per-chunk governance site of the scan loop.
  ASSERT_OK(fp::SetForTesting("exec.mapped.chunk:cancel@2"));
  Result<QueryResult> r = ExecuteGroupByMapped(mt, q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  fp::ClearForTesting();
  ASSERT_OK_AND_ASSIGN(QueryResult after, ExecuteGroupByMapped(mt, q));
  ExpectBitIdentical(baseline, after);
}

TEST_F(GovernedMappedTest, OpenFailpointInjects) {
  ASSERT_OK(fp::SetForTesting("mapped.open:error"));
  Result<MappedTable> r = MappedTable::Open(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  fp::ClearForTesting();
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path_));
  EXPECT_EQ(mt.num_rows(), table_.num_rows());
}

TEST(GovernancePartialDrawTest, DeadlineDegradedDrawFlagsShortfall) {
  Table t = MakeSkewedTable(6, 200);
  ASSERT_OK_AND_ASSIGN(Stratification strat, Stratification::Build(t, {"g"}));
  auto shared = std::make_shared<Stratification>(std::move(strat));
  std::vector<uint64_t> sizes(shared->num_strata(), 40);

  // allow_partial + an already-expired deadline: every stratum is skipped,
  // flagged, and the draw still returns OK with an honest empty sample.
  QueryContext ctx;
  ctx.set_deadline(QueryContext::Clock::now() - std::chrono::seconds(1));
  ctx.set_allow_partial(true);
  ScopedQueryContext install(&ctx);
  Rng rng(101);
  ASSERT_OK_AND_ASSIGN(StratifiedSample sample,
                       DrawStratified(t, shared, sizes, "test", &rng));
  EXPECT_EQ(sample.size(), 0u);
  EXPECT_EQ(sample.num_degraded_strata(), shared->num_strata());
  for (uint8_t f : sample.stratum_exhaustive()) EXPECT_EQ(f, 0);
}

TEST(GovernancePartialDrawTest, WithoutAllowPartialDeadlineFailsTyped) {
  Table t = MakeSkewedTable(6, 200);
  ASSERT_OK_AND_ASSIGN(Stratification strat, Stratification::Build(t, {"g"}));
  auto shared = std::make_shared<Stratification>(std::move(strat));
  std::vector<uint64_t> sizes(shared->num_strata(), 40);
  QueryContext ctx;
  ctx.set_deadline(QueryContext::Clock::now() - std::chrono::seconds(1));
  ScopedQueryContext install(&ctx);
  Rng rng(101);
  Result<StratifiedSample> r = DrawStratified(t, shared, sizes, "test", &rng);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernancePartialDrawTest, AllowPartialAloneDoesNotChangeTheDraw) {
  // allow_partial only decides what a firing check does, so when nothing
  // fires the drawn sample must match the ungoverned draw bit for bit.
  Table t = MakeSkewedTable(8, 150);
  ASSERT_OK_AND_ASSIGN(Stratification strat, Stratification::Build(t, {"g"}));
  auto shared = std::make_shared<Stratification>(std::move(strat));
  std::vector<uint64_t> sizes(shared->num_strata(), 30);
  Rng rng_a(77);
  ASSERT_OK_AND_ASSIGN(StratifiedSample plain,
                       DrawStratified(t, shared, sizes, "test", &rng_a));
  QueryContext ctx;
  MakePermissive(&ctx);
  ctx.set_allow_partial(true);
  ScopedQueryContext install(&ctx);
  Rng rng_b(77);
  ASSERT_OK_AND_ASSIGN(StratifiedSample governed,
                       DrawStratified(t, shared, sizes, "test", &rng_b));
  ASSERT_EQ(plain.rows().size(), governed.rows().size());
  EXPECT_EQ(plain.rows(), governed.rows());
  EXPECT_EQ(plain.weights(), governed.weights());
  EXPECT_EQ(governed.num_degraded_strata(), 0u);
}

// 100,005 rows in table order: "early" (20,000 rows), "tiny" (10), then
// "a", "b", "c" cycling to row 100,000, then "late" (5). The draw checks
// governance every 65,536 rows, so a check firing on its second hit cuts
// the row pass at row 65,536: after "early" and "tiny" ended, inside the
// cycling strata, before "late" began.
Table MidPassCutTable() {
  Schema schema({{"g", DataType::kString}, {"v", DataType::kDouble}});
  TableBuilder b(schema);
  auto add = [&](const char* g, int rows) {
    for (int i = 0; i < rows; ++i) {
      CVOPT_CHECK(b.AppendRow({Value(g), Value(1.0)}).ok(), "append failed");
    }
  };
  add("early", 20000);
  add("tiny", 10);
  const char* cycle[] = {"a", "b", "c"};
  for (int row = 20010; row < 100000; ++row) add(cycle[row % 3], 1);
  add("late", 5);
  return std::move(b).Finish();
}

TEST(GovernancePartialDrawTest, MidPassDeadlineKeepsCompletedStrata) {
  Table t = MidPassCutTable();
  ASSERT_OK_AND_ASSIGN(Stratification strat, Stratification::Build(t, {"g"}));
  auto shared = std::make_shared<Stratification>(std::move(strat));
  ASSERT_EQ(shared->num_strata(), 6u);  // early, tiny, a, b, c, late
  // early and the cycling strata sample, tiny and late take all, c draws
  // nothing.
  const std::vector<uint64_t> sizes = {40, 100, 40, 40, 0, 5};
  Rng rng_full(303);
  ASSERT_OK_AND_ASSIGN(StratifiedSample full,
                       DrawStratified(t, shared, sizes, "test", &rng_full));

  QueryContext ctx;
  MakePermissive(&ctx);
  ctx.set_allow_partial(true);
  ASSERT_OK(fp::SetForTesting("sample.draw:deadline@2"));
  Result<StratifiedSample> cut = [&] {
    ScopedQueryContext install(&ctx);
    Rng rng(303);
    return DrawStratified(t, shared, sizes, "test", &rng);
  }();
  fp::ClearForTesting();
  ASSERT_OK(cut.status());
  // Strata whose wanted rows all precede the cut keep them; every other
  // drawn stratum is flagged; a stratum drawing nothing is not.
  EXPECT_EQ(cut->stratum_degraded(),
            (std::vector<uint8_t>{0, 0, 1, 1, 0, 1}));
  EXPECT_EQ(cut->stratum_exhaustive(),
            (std::vector<uint8_t>{0, 1, 0, 0, 0, 0}));
  // The kept rows and weights are the full draw's first two slabs.
  const size_t kept = 40 + 10;
  ASSERT_EQ(cut->rows().size(), kept);
  EXPECT_TRUE(std::equal(cut->rows().begin(), cut->rows().end(),
                         full.rows().begin()));
  EXPECT_TRUE(std::equal(cut->weights().begin(), cut->weights().end(),
                         full.weights().begin()));

  // Without allow_partial the same cut fails the draw, typed.
  ctx.set_allow_partial(false);
  ASSERT_OK(fp::SetForTesting("sample.draw:deadline@2"));
  Result<StratifiedSample> failed = [&] {
    ScopedQueryContext install(&ctx);
    Rng rng(303);
    return DrawStratified(t, shared, sizes, "test", &rng);
  }();
  fp::ClearForTesting();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernancePartialDrawTest, DegradedStrataSurfaceInErrorReport) {
  Table t = MakeSkewedTable(5, 120);
  AqpEngine engine(&t);
  QuerySpec q = GroupQuery();
  q.name = "report";

  // Draw a sample under an expired deadline with allow_partial, register
  // it, and check Evaluate surfaces the degradation count.
  ASSERT_OK_AND_ASSIGN(Stratification strat, Stratification::Build(t, {"g"}));
  auto shared = std::make_shared<Stratification>(std::move(strat));
  std::vector<uint64_t> sizes(shared->num_strata(), 25);
  QueryContext ctx;
  ctx.set_deadline(QueryContext::Clock::now() - std::chrono::seconds(1));
  ctx.set_allow_partial(true);
  StratifiedSample sample = [&] {
    ScopedQueryContext install(&ctx);
    Rng rng(55);
    auto r = DrawStratified(t, shared, sizes, "partial", &rng);
    CVOPT_CHECK(r.ok(), "draw failed");
    return std::move(r).value();
  }();
  const size_t degraded = sample.num_degraded_strata();
  ASSERT_GT(degraded, 0u);
  engine.AddSample("partial", std::move(sample));
  ASSERT_OK_AND_ASSIGN(ErrorReport report, engine.Evaluate("partial", q));
  EXPECT_EQ(report.degraded_strata, degraded);
  EXPECT_NE(report.ToString().find("skipped by deadline"), std::string::npos);
}

TEST(GovernanceStatsTest, GovernedStatsCollectionMatchesUngoverned) {
  Table t = MakeSkewedTable(9, 300);
  ASSERT_OK_AND_ASSIGN(Stratification strat, Stratification::Build(t, {"g"}));
  std::vector<StatSource> sources(1);
  sources[0].column = &t.column(1);
  ASSERT_OK_AND_ASSIGN(GroupStatsTable plain,
                       CollectGroupStats(strat, sources));
  QueryContext ctx;
  MakePermissive(&ctx);
  ScopedQueryContext install(&ctx);
  ASSERT_OK_AND_ASSIGN(GroupStatsTable governed,
                       CollectGroupStats(strat, sources));
  ASSERT_EQ(plain.num_strata(), governed.num_strata());
  for (size_t s = 0; s < plain.num_strata(); ++s) {
    EXPECT_EQ(plain.At(s, 0).count(), governed.At(s, 0).count());
    EXPECT_EQ(plain.At(s, 0).mean(), governed.At(s, 0).mean());
  }
}

TEST(GovernanceCatalogTest, GatherOverBudgetPublishesNothing) {
  // Six columns, 44 bytes per gathered row. At rate 1.0 every row is
  // sampled: the draw holds 12 bytes a row and the earlier phases need
  // less, so a 24-byte-a-row limit fails exactly at the row gather.
  Schema schema({{"g", DataType::kInt64},
                 {"a", DataType::kInt64},
                 {"b", DataType::kInt64},
                 {"v", DataType::kDouble},
                 {"w", DataType::kDouble},
                 {"s", DataType::kString}});
  TableBuilder builder(schema);
  const int64_t n = 4000;
  for (int64_t r = 0; r < n; ++r) {
    const double x = static_cast<double>(r % 97);
    ASSERT_OK(builder.AppendRow({Value(r % 8), Value(r), Value(r * 3),
                                 Value(x), Value(x / 2),
                                 Value("s" + std::to_string(r % 11))}));
  }
  const Table t = std::move(builder).Finish();
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Avg("v")};

  SampleCatalog catalog(5);
  {
    QueryContext ctx;
    ctx.set_memory_limit(24 * n);
    ScopedQueryContext install(&ctx);
    Result<std::shared_ptr<const StratifiedSample>> r =
        catalog.GetOrBuild(t, q, 1.0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(r.status().ToString().find("sample row gather"),
              std::string::npos)
        << r.status().ToString();
    EXPECT_EQ(ctx.budget().used(), 0u);
  }
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(catalog.build_failures(), 1u);

  QueryContext roomy;
  roomy.set_memory_limit(uint64_t{1} << 30);
  ScopedQueryContext install(&roomy);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const StratifiedSample> sample,
                       catalog.GetOrBuild(t, q, 1.0));
  EXPECT_EQ(sample->size(), t.num_rows());
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.builds(), 1u);
}

TEST(GovernanceStatsTest, CancelledStatsCollectionFailsTyped) {
  Table t = MakeSkewedTable(9, 300);
  ASSERT_OK_AND_ASSIGN(Stratification strat, Stratification::Build(t, {"g"}));
  std::vector<StatSource> sources(1);
  sources[0].column = &t.column(1);
  QueryContext ctx;
  ctx.Cancel();
  ScopedQueryContext install(&ctx);
  Result<GroupStatsTable> r = CollectGroupStats(strat, sources);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace cvopt
