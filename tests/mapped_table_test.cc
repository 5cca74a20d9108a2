// MappedTable (mmap-backed v2 reader), the decoded-chunk LRU cache, the
// out-of-core group-by scan, v1 compatibility, and the plan-cache reload
// guard.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include "src/exec/chunked_scan.h"
#include "src/exec/group_by_executor.h"
#include "src/exec/group_index.h"
#include "src/exec/query_context.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"
#include "src/table/mapped_table.h"
#include "src/table/table_builder.h"
#include "src/table/table_io.h"
#include "src/util/failpoint.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

class ScopedChunkRows {
 public:
  explicit ScopedChunkRows(size_t rows) { SetDefaultChunkRowsForTesting(rows); }
  ~ScopedChunkRows() { SetDefaultChunkRowsForTesting(0); }
};

class ScopedCacheBudget {
 public:
  explicit ScopedCacheBudget(size_t bytes) {
    SetChunkCacheBudgetForTesting(bytes);
  }
  ~ScopedCacheBudget() { SetChunkCacheBudgetForTesting(0); }
};

Table MakeDataset(size_t rows) {
  Schema schema({{"t", DataType::kInt64},
                 {"city", DataType::kString},
                 {"v", DataType::kDouble},
                 {"n", DataType::kInt64}});
  TableBuilder b(schema);
  Rng rng(1234);
  const char* cities[] = {"lisbon", "oslo", "quito", "hanoi", "perth", "kyiv"};
  for (size_t i = 0; i < rows; ++i) {
    double v = 10.0 + 2.0 * rng.NextGaussian();
    if (i % 211 == 0) v = std::numeric_limits<double>::quiet_NaN();
    Status st = b.AppendRow({Value(static_cast<int64_t>(i)),
                             Value(cities[(i / 250) % 6]), Value(v),
                             Value(static_cast<int64_t>(rng.Uniform(50)))});
    CVOPT_CHECK(st.ok(), "append failed");
  }
  return std::move(b).Finish();
}

std::vector<QuerySpec> MakeQueries() {
  std::vector<QuerySpec> qs;
  {
    QuerySpec q;
    q.name = "all-aggs";
    q.group_by = {"city"};
    q.aggregates = {AggSpec::Avg("v"),    AggSpec::Sum("n"),
                    AggSpec::Count(),     AggSpec::Variance("v"),
                    AggSpec::Median("v"),
                    AggSpec::CountIf(
                        Predicate::Compare("n", CompareOp::kLt, Value(int64_t{10})))};
    qs.push_back(q);
  }
  {
    // Every aggregate under a range on the clustered `t` column: at 256,
    // 1000 and 4096-row chunks the zone maps skip some chunks, take all of
    // some and leave a residual chunk at each end of the range.
    QuerySpec q;
    q.name = "all-aggs-range";
    q.group_by = {"city"};
    q.aggregates = {AggSpec::Avg("v"),    AggSpec::Sum("n"),
                    AggSpec::Count(),     AggSpec::Variance("v"),
                    AggSpec::Median("v"),
                    AggSpec::CountIf(
                        Predicate::Compare("v", CompareOp::kGt, Value(10.0)))};
    q.where =
        Predicate::Between("t", Value(int64_t{3'100}), Value(int64_t{12'900}));
    qs.push_back(q);
  }
  {
    QuerySpec q;
    q.name = "narrow-where";
    q.group_by = {"city"};
    q.aggregates = {AggSpec::Count(), AggSpec::Sum("v")};
    q.where =
        Predicate::Between("t", Value(int64_t{9'000}), Value(int64_t{9'299}));
    qs.push_back(q);
  }
  {
    QuerySpec q;
    q.name = "composite-key";
    q.group_by = {"city", "n"};
    q.aggregates = {AggSpec::Avg("v"), AggSpec::Count()};
    q.where = Predicate::Compare("n", CompareOp::kLt, Value(int64_t{5}));
    qs.push_back(q);
  }
  {
    QuerySpec q;
    q.name = "no-groups";
    q.aggregates = {AggSpec::Count(), AggSpec::Avg("n")};
    q.where = Predicate::Compare("city", CompareOp::kEq, Value("oslo"));
    qs.push_back(q);
  }
  {
    // The WHERE column and the COUNT_IF column are read nowhere else, so
    // the scan's projection must decode them for their predicates alone.
    QuerySpec q;
    q.name = "predicate-only-columns";
    q.group_by = {"n"};
    q.aggregates = {AggSpec::CountIf(Predicate::Compare(
                        "t", CompareOp::kLt, Value(int64_t{5'000}))),
                    AggSpec::Count()};
    q.where = Predicate::In("city", {Value("oslo"), Value("perth")});
    qs.push_back(q);
  }
  return qs;
}

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

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_TRUE(a.schema() == b.schema());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (a.schema().field(c).type == DataType::kDouble) {
        const double x = a.column(c).GetDouble(r);
        const double y = b.column(c).GetDouble(r);
        uint64_t bx, by;
        std::memcpy(&bx, &x, 8);
        std::memcpy(&by, &y, 8);
        ASSERT_EQ(bx, by) << "col " << c << " row " << r;
      } else {
        ASSERT_TRUE(a.column(c).GetValue(r) == b.column(c).GetValue(r))
            << "col " << c << " row " << r;
      }
    }
  }
}

TEST(MappedTableTest, OpenExposesFileGeometry) {
  ScopedChunkRows cs(256);
  Table t = MakeDataset(2'000);
  const std::string path = TempPath("geom.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  EXPECT_EQ(mt.num_rows(), 2'000u);
  EXPECT_EQ(mt.num_columns(), 4u);
  EXPECT_EQ(mt.chunk_rows(), 256u);
  EXPECT_EQ(mt.num_chunks(), 8u);
  EXPECT_EQ(mt.ChunkRowCount(6), 256u);
  EXPECT_EQ(mt.ChunkRowCount(7), 2'000u - 7 * 256u);
  const Table proto = mt.Prototype();
  EXPECT_EQ(proto.column(1).dictionary().size(), 6u);  // city
  EXPECT_TRUE(proto.column(0).dictionary().empty());   // numeric column
  std::remove(path.c_str());
}

TEST(MappedTableTest, MaterializeRoundTripsBitExactly) {
  ScopedChunkRows cs(512);
  Table t = MakeDataset(5'000);
  const std::string path = TempPath("mat.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  ASSERT_OK_AND_ASSIGN(Table back, mt.Materialize());
  ExpectTablesEqual(t, back);
  std::remove(path.c_str());
}

TEST(MappedTableTest, V1FilesStillRead) {
  Table t = MakeDataset(1'500);
  const std::string path = TempPath("legacy.cvtb");
  ASSERT_OK(WriteTableFileV1(t, path));
  ASSERT_OK_AND_ASSIGN(Table back, ReadTableFile(path));
  ExpectTablesEqual(t, back);
  std::remove(path.c_str());
}

TEST(MappedTableTest, ChunkCacheHitsEvictsAndInvalidates) {
  ScopedChunkRows cs(256);
  Table t = MakeDataset(8'192);  // 32 chunks x 4 cols
  const std::string path = TempPath("cache.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  // Budget of ~4 chunks of int64 data: decoding one full column must evict.
  ScopedCacheBudget budget(4 * 256 * sizeof(int64_t));
  ResetChunkCacheStats();
  {
    ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
    for (size_t k = 0; k < mt.num_chunks(); ++k) {
      ASSERT_OK_AND_ASSIGN(std::shared_ptr<const DecodedChunk> c,
                           mt.GetChunk(0, k));
      EXPECT_EQ(c->ints.size(), mt.ChunkRowCount(k));
    }
    ChunkCacheStats stats = GetChunkCacheStats();
    EXPECT_EQ(stats.misses, 32u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.resident_bytes, 4u * 256 * sizeof(int64_t));
    // Re-reading the most recent chunk hits.
    ASSERT_OK(mt.GetChunk(0, mt.num_chunks() - 1).status());
    EXPECT_EQ(GetChunkCacheStats().hits, stats.hits + 1);
  }
  // Destruction invalidates this table's entries.
  EXPECT_EQ(GetChunkCacheStats().resident_bytes, 0u);
  std::remove(path.c_str());
}

TEST(MappedTableTest, EvictedChunkStaysAliveForHolders) {
  ScopedChunkRows cs(256);
  Table t = MakeDataset(4'096);
  const std::string path = TempPath("pin.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ScopedCacheBudget budget(1);  // evict aggressively
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const DecodedChunk> held,
                       mt.GetChunk(0, 0));
  for (size_t k = 0; k < mt.num_chunks(); ++k) {
    ASSERT_OK(mt.GetChunk(2, k).status());
  }
  // `held` was evicted from the cache long ago but the shared_ptr keeps it.
  EXPECT_EQ(held->ints.size(), 256u);
  EXPECT_EQ(held->ints[0], 0);
  std::remove(path.c_str());
}

TEST(MappedTableTest, OutOfCoreGroupByMatchesExactBitwise) {
  for (size_t chunk_rows : {size_t{256}, size_t{1000}, size_t{4096}}) {
    ScopedChunkRows cs(chunk_rows);
    Table t = MakeDataset(20'000);
    const std::string path = TempPath("ooc.cvtb");
    ASSERT_OK(WriteTableFile(t, path));
    ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
    ScopedExecThreads serial(1);
    for (const auto& q : MakeQueries()) {
      ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
      ResetZoneSkipStats();
      ASSERT_OK_AND_ASSIGN(QueryResult mapped, ExecuteGroupByMapped(mt, q));
      const std::string what = q.name + " chunk=" + std::to_string(chunk_rows);
      if (q.name == "all-aggs-range") {
        const ZoneSkipStats z = GetZoneSkipStats();
        EXPECT_GT(z.skipped, 0u) << what;
        EXPECT_GT(z.take_all, 0u) << what;
        EXPECT_GT(z.chunks, z.skipped + z.take_all) << what;
      }
      ExpectResultsIdentical(exact, mapped, what);
    }
    std::remove(path.c_str());
  }
}

TEST(MappedTableTest, OutOfCoreGroupByUnderTinyCacheBudget) {
  // Correctness must not depend on the cache: a 1-byte budget forces every
  // chunk through decode (and immediate eviction).
  ScopedChunkRows cs(512);
  Table t = MakeDataset(10'000);
  const std::string path = TempPath("tiny.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ScopedCacheBudget budget(1);
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  for (const auto& q : MakeQueries()) {
    ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
    ASSERT_OK_AND_ASSIGN(QueryResult mapped, ExecuteGroupByMapped(mt, q));
    ExpectResultsIdentical(exact, mapped, q.name + " tiny-cache");
  }
  std::remove(path.c_str());
}

TEST(MappedTableTest, OutOfCoreGroupByWithZonePruningDisabled) {
  ScopedChunkRows cs(500);
  Table t = MakeDataset(15'000);
  const std::string path = TempPath("nozone.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  SetZoneMapPruningEnabled(false);
  for (const auto& q : MakeQueries()) {
    ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
    ASSERT_OK_AND_ASSIGN(QueryResult mapped, ExecuteGroupByMapped(mt, q));
    ExpectResultsIdentical(exact, mapped, q.name + " zones-off");
  }
  SetZoneMapPruningEnabled(true);
  std::remove(path.c_str());
}

// The morsel-parallel out-of-core scan must be bit-identical to the serial
// one at every thread count, even when a 1-byte cache budget forces every
// chunk through a fresh decode in both phases.
TEST(MappedTableTest, OutOfCoreGroupByParallelMatchesSerialTinyCache) {
  ScopedChunkRows cs(512);
  Table t = MakeDataset(20'000);
  const std::string path = TempPath("par.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ScopedCacheBudget budget(1);
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  for (const auto& q : MakeQueries()) {
    QueryResult serial = [&] {
      ScopedExecThreads st(1);
      auto r = ExecuteGroupByMapped(mt, q);
      CVOPT_CHECK(r.ok(), "serial mapped scan failed");
      return std::move(r).value();
    }();
    for (int threads : {2, 3, 8}) {
      ScopedExecThreads pt(threads);
      ASSERT_OK_AND_ASSIGN(QueryResult parallel, ExecuteGroupByMapped(mt, q));
      ExpectResultsIdentical(
          serial, parallel,
          q.name + " threads=" + std::to_string(threads));
    }
  }
  std::remove(path.c_str());
}

// The scan decodes only the columns a query reads. The table is fresh and
// the cache holds all of it, so every decode is exactly one miss: GROUP BY
// city, SUM(v) decodes two of the four columns of every chunk (the city
// column once, for the grouping's directory; the scan then hits it). A
// second query over the same grouping whose WHERE clause refutes 29 of
// the 32 chunks looks up no column of a refuted chunk.
TEST(MappedTableTest, OutOfCoreGroupByDecodesOnlyReadColumns) {
  ScopedChunkRows cs(256);
  Table t = MakeDataset(8'192);
  const std::string path = TempPath("proj.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ScopedCacheBudget budget(size_t{64} << 20);
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  QuerySpec q;
  q.group_by = {"city"};
  q.aggregates = {AggSpec::Sum("v")};
  ResetChunkCacheStats();
  ASSERT_OK_AND_ASSIGN(QueryResult r, ExecuteGroupByMapped(mt, q));
  EXPECT_EQ(GetChunkCacheStats().misses, 2u * mt.num_chunks());
  EXPECT_EQ(r.num_groups(), 6u);

  // Rows 1000..1499 live in chunks 3..5: three columns (t, city, v) of
  // three chunks are read, and only `t` was never decoded before.
  q.where =
      Predicate::Between("t", Value(int64_t{1'000}), Value(int64_t{1'499}));
  ResetChunkCacheStats();
  ResetZoneSkipStats();
  ASSERT_OK_AND_ASSIGN(QueryResult filtered, ExecuteGroupByMapped(mt, q));
  const ChunkCacheStats stats = GetChunkCacheStats();
  EXPECT_EQ(GetZoneSkipStats().skipped, 29u);
  EXPECT_EQ(stats.hits + stats.misses, 3u * 3u);
  EXPECT_EQ(stats.misses, 3u);
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
  ExpectResultsIdentical(exact, filtered, "refuting");
  std::remove(path.c_str());
}

// A warm directory: a refuting query's second run decodes nothing of the
// chunks the zone maps refute. The 1-byte cache makes every chunk lookup
// a miss, so the misses count decodes: exactly the projected columns of
// the chunks the zone maps did not skip. Cold and warm answers equal
// ExecuteExact at every chunk geometry.
TEST(MappedTableTest, WarmScanDecodesNoRefutedChunk) {
  for (size_t chunk_rows : {size_t{256}, size_t{1000}, size_t{4096}}) {
    ScopedChunkRows cs(chunk_rows);
    Table t = MakeDataset(20'000);
    const std::string path = TempPath("warm.cvtb");
    ASSERT_OK(WriteTableFile(t, path));
    ScopedCacheBudget budget(1);
    ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
    ScopedExecThreads serial(1);
    for (const auto& q : MakeQueries()) {
      if (q.name != "all-aggs-range" && q.name != "narrow-where") continue;
      const std::string what = q.name + " chunk=" + std::to_string(chunk_rows);
      ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
      ASSERT_OK_AND_ASSIGN(QueryResult cold, ExecuteGroupByMapped(mt, q));
      ResetChunkCacheStats();
      ResetZoneSkipStats();
      ASSERT_OK_AND_ASSIGN(QueryResult warm, ExecuteGroupByMapped(mt, q));
      const ZoneSkipStats z = GetZoneSkipStats();
      const ChunkCacheStats stats = GetChunkCacheStats();
      EXPECT_GT(z.skipped, 0u) << what;
      // t, city, v, plus n for the range query's SUM(n).
      const uint64_t cols = q.name == "all-aggs-range" ? 4 : 3;
      EXPECT_EQ(stats.misses, (z.chunks - z.skipped) * cols) << what;
      EXPECT_EQ(stats.hits, 0u) << what;
      ExpectResultsIdentical(exact, cold, what + " cold");
      ExpectResultsIdentical(exact, warm, what + " warm");
    }
    std::remove(path.c_str());
  }
}

// A directory is keyed by the ordered grouping columns: (city, n) and
// (n, city) hold the same keys under different ids and codes, and each
// answers its own query exactly.
TEST(MappedTableTest, GroupDirectoryPerColumnOrder) {
  ScopedChunkRows cs(1000);
  Table t = MakeDataset(20'000);
  const std::string path = TempPath("order.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  ScopedExecThreads serial(1);
  for (const std::vector<std::string>& by :
       {std::vector<std::string>{"city", "n"},
        std::vector<std::string>{"n", "city"}}) {
    QuerySpec q;
    q.group_by = by;
    q.aggregates = {AggSpec::Avg("v"), AggSpec::Count()};
    ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
    ASSERT_OK_AND_ASSIGN(QueryResult mapped, ExecuteGroupByMapped(mt, q));
    ExpectResultsIdentical(exact, mapped, by[0] + "," + by[1]);
  }
  // Both directories are kept.
  const auto city_n = mt.FindGroupDirectory({1, 3});
  const auto n_city = mt.FindGroupDirectory({3, 1});
  ASSERT_NE(city_n, nullptr);
  ASSERT_NE(n_city, nullptr);
  ASSERT_NE(city_n, n_city);
  ASSERT_EQ(city_n->num_groups(), n_city->num_groups());
  EXPECT_EQ(mt.group_directory_bytes(),
            city_n->byte_size() + n_city->byte_size());
  const std::vector<int64_t> a = RouterKeyCodes(*city_n, 0);
  const std::vector<int64_t> b = RouterKeyCodes(*n_city, 0);
  EXPECT_EQ(a[0], b[1]);
  EXPECT_EQ(a[1], b[0]);
  EXPECT_EQ(mt.FindGroupDirectory({1}), nullptr);  // never built
  std::remove(path.c_str());
}

// A directory build stopped by a fault publishes nothing: the next lookup
// still finds none, and the next query builds it and answers exactly.
TEST(MappedTableTest, AbortedDirectoryBuildPublishesNothing) {
  ScopedChunkRows cs(256);
  Table t = MakeDataset(8'192);
  const std::string path = TempPath("abort.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ScopedCacheBudget budget(1);  // every directory chunk decodes
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  ScopedExecThreads serial(1);
  const QuerySpec q = MakeQueries()[2];  // narrow-where, GROUP BY city
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
  for (const char* spec :
       {"exec.mapped.chunk:cancel@2", "exec.mapped.chunk:error@31",
        "mapped.chunk_decode:error@5"}) {
    ASSERT_OK(failpoint::SetForTesting(spec));
    EXPECT_FALSE(ExecuteGroupByMapped(mt, q).ok()) << spec;
    failpoint::ClearForTesting();
    EXPECT_EQ(mt.FindGroupDirectory({1}), nullptr) << spec;
  }
  ASSERT_OK_AND_ASSIGN(QueryResult mapped, ExecuteGroupByMapped(mt, q));
  ExpectResultsIdentical(exact, mapped, "after aborts");
  EXPECT_NE(mt.FindGroupDirectory({1}), nullptr);
  std::remove(path.c_str());
}

// The directory is part of a budgeted scan's working set: a cold scan of
// a grouping with one group per row charges at least the directory's
// bytes on top of its accumulators. A directory that large exceeds the
// table's bound (4 B per row), so it serves the scan and is not kept.
TEST(MappedTableTest, BudgetedScanChargesItsDirectory) {
  ScopedChunkRows cs(256);
  Table t = MakeDataset(8'192);
  const std::string path = TempPath("charge.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  QuerySpec q;
  q.group_by = {"t"};
  q.aggregates = {AggSpec::Count()};
  // The directory the scan builds: every row routed in file order.
  StreamGroupRouter expected({DataType::kInt64});
  expected.Bind(0, t.column(0).ints().data(), nullptr);
  for (uint32_t r = 0; r < t.num_rows(); ++r) expected.Route(r);
  ASSERT_EQ(expected.num_groups(), t.num_rows());
  for (int pass = 0; pass < 2; ++pass) {
    QueryContext ctx;
    ctx.set_memory_limit(uint64_t{1} << 30);
    ScopedQueryContext scope(&ctx);
    ASSERT_OK_AND_ASSIGN(QueryResult r, ExecuteGroupByMapped(mt, q));
    EXPECT_EQ(r.num_groups(), t.num_rows());
    const uint64_t acc_bytes =
        t.num_rows() * (sizeof(uint64_t) + sizeof(double));
    EXPECT_GE(ctx.budget().peak(), expected.byte_size() + acc_bytes)
        << "pass " << pass;
    EXPECT_EQ(ctx.budget().used(), 0u);
    EXPECT_EQ(mt.group_directory_bytes(), 0u) << "pass " << pass;
  }
  std::remove(path.c_str());
}

// The kept directories of one table stay within its bound of 4 B per row:
// a new directory drops the least recently used ones until it fits, one
// larger than the whole bound drops nothing, and every answer stays exact.
TEST(MappedTableTest, KeptDirectoriesStayWithinTheTableBound) {
  ScopedChunkRows cs(1000);
  Schema schema({{"id", DataType::kInt64},
                 {"a", DataType::kInt64},
                 {"b", DataType::kInt64},
                 {"c", DataType::kInt64},
                 {"v", DataType::kDouble}});
  TableBuilder tb(schema);
  for (int64_t i = 0; i < 40'000; ++i) {
    ASSERT_OK(tb.AppendRow({Value(i), Value(i % 64), Value(i % 16),
                            Value(i % 2'500), Value(0.5 * i)}));
  }
  const Table t = std::move(tb).Finish();
  const std::string path = TempPath("bound.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  ScopedExecThreads serial(1);
  const size_t bound = t.num_rows() * sizeof(uint32_t);
  const auto scan = [&](const std::vector<std::string>& by) {
    QuerySpec q;
    q.group_by = by;
    q.aggregates = {AggSpec::Sum("v")};
    ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
    ASSERT_OK_AND_ASSIGN(QueryResult mapped, ExecuteGroupByMapped(mt, q));
    ExpectResultsIdentical(exact, mapped, by[0]);
    EXPECT_LE(mt.group_directory_bytes(), bound) << by[0];
  };
  const auto bytes_of = [&](const std::vector<size_t>& cols) -> size_t {
    const auto dir = mt.FindGroupDirectory(cols);
    return dir == nullptr ? 0 : dir->byte_size();
  };
  scan({"a"});
  scan({"b"});
  scan({"a", "b"});
  scan({"b", "a"});
  const size_t a = bytes_of({1});
  const size_t b = bytes_of({2});
  const size_t ab = bytes_of({1, 2});
  const size_t ba = bytes_of({2, 1});
  ASSERT_TRUE(a > 0 && b > 0 && ab > 0 && ba > 0);
  EXPECT_EQ(mt.group_directory_bytes(), a + b + ab + ba);
  bytes_of({1});  // (a) is again the most recently used
  // One group per row never fits, and drops nothing.
  scan({"id"});
  EXPECT_EQ(bytes_of({0}), 0u);
  EXPECT_EQ(mt.group_directory_bytes(), a + b + ab + ba);
  // (c) does not fit beside the other four: the least recently used, (b),
  // goes first; (a) and (c) stay.
  scan({"c"});
  const size_t c = bytes_of({3});
  ASSERT_GT(c, 0u);
  ASSERT_GT(a + b + ab + ba + c, bound);
  EXPECT_EQ(bytes_of({2}), 0u);
  EXPECT_EQ(bytes_of({1}), a);
  std::remove(path.c_str());
}

// Two threads scanning one cold grouping at once may both build; both get
// the exact answer.
TEST(MappedTableTest, RacingColdScansAgree) {
  ScopedChunkRows cs(512);
  Table t = MakeDataset(20'000);
  const std::string path = TempPath("race.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  const std::vector<QuerySpec> qs = MakeQueries();
  std::vector<QueryResult> exact;
  {
    ScopedExecThreads serial(1);
    for (const auto& q : qs) {
      ASSERT_OK_AND_ASSIGN(QueryResult r, ExecuteExact(t, q));
      exact.push_back(std::move(r));
    }
  }
  for (int round = 0; round < 3; ++round) {
    ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
    for (size_t i = 0; i < qs.size(); ++i) {
      std::vector<Result<QueryResult>> got(2, Status::Internal("unrun"));
      std::vector<std::thread> racers;
      for (size_t k = 0; k < got.size(); ++k) {
        racers.emplace_back(
            [&, k] { got[k] = ExecuteGroupByMapped(mt, qs[i]); });
      }
      for (std::thread& th : racers) th.join();
      for (const auto& r : got) {
        ASSERT_OK(r.status());
        ExpectResultsIdentical(exact[i], *r, qs[i].name + " race");
      }
    }
  }
  std::remove(path.c_str());
}

TEST(MappedTableTest, TakeRowsDecodesOnlyTouchedChunks) {
  ScopedChunkRows cs(256);
  Table t = MakeDataset(8'192);
  const std::string path = TempPath("take.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  // Interleaved rows from chunks 20 and 0, out of order and repeating.
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < 10; ++i) {
    rows.push_back(5'120 + i);  // chunk 20
    rows.push_back(9 - i);      // chunk 0
  }
  rows.push_back(rows[0]);
  ResetChunkCacheStats();
  ASSERT_OK_AND_ASSIGN(Table sub, mt.TakeRows(rows));
  // Two chunks touched across 4 columns; re-touches are cache hits.
  const ChunkCacheStats stats = GetChunkCacheStats();
  EXPECT_EQ(stats.misses, 2u * 4u);
  ExpectTablesEqual(sub, t.TakeRows(rows));
  EXPECT_FALSE(mt.TakeRows({8'192}).ok());  // out of range
  std::remove(path.c_str());
}

TEST(MappedTableTest, OutOfCoreGroupByRejectsBadQueries) {
  ScopedChunkRows cs(512);
  Table t = MakeDataset(1'000);
  const std::string path = TempPath("badq.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  QuerySpec q;
  EXPECT_FALSE(ExecuteGroupByMapped(mt, q).ok());  // no aggregates
  q.aggregates = {AggSpec::Avg("city")};           // string aggregation
  EXPECT_FALSE(ExecuteGroupByMapped(mt, q).ok());
  q.aggregates = {AggSpec::Count()};
  q.group_by = {"v"};  // double grouping
  EXPECT_FALSE(ExecuteGroupByMapped(mt, q).ok());
  q.group_by = {"nope"};  // unknown column
  EXPECT_FALSE(ExecuteGroupByMapped(mt, q).ok());
  std::remove(path.c_str());
}

// The satellite regression: a table written, destroyed, and reloaded gets a
// fresh Table::id(), so the reloaded table can never be served a stale plan
// whose column pointers belonged to the destroyed original.
TEST(MappedTableTest, ReloadedTableNeverHitsStalePlanCacheEntry) {
  ClearPlanCache();
  const std::string path = TempPath("reload.cvtb");
  const PredicatePtr pred =
      Predicate::Compare("t", CompareOp::kLt, Value(int64_t{500}));
  uint64_t first_id = 0;
  {
    Table t = MakeDataset(2'000);
    first_id = t.id();
    ASSERT_OK(WriteTableFile(t, path));
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const CompiledPredicate> plan,
                         CompilePredicateCached(t, pred));
    EXPECT_EQ(plan->Select().size(), 500u);
  }  // original table (and its column storage) destroyed here
  const PlanCacheStats before = GetPlanCacheStats();
  EXPECT_EQ(before.misses, 1u);

  ASSERT_OK_AND_ASSIGN(Table reloaded, ReadTableFile(path));
  EXPECT_NE(reloaded.id(), first_id);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const CompiledPredicate> plan2,
                       CompilePredicateCached(reloaded, pred));
  // A fresh compile, not a stale hit: same hit count, one more miss.
  const PlanCacheStats after = GetPlanCacheStats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(plan2->Select().size(), 500u);
  ClearPlanCache();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cvopt
