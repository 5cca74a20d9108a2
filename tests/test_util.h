// Shared helpers for the cvopt test suite.
#ifndef CVOPT_TESTS_TEST_UTIL_H_
#define CVOPT_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/exec/group_index.h"
#include "src/exec/parallel.h"
#include "src/exec/query_result.h"
#include "src/table/table_builder.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace cvopt {

/// Applies a thread count (default grain 512, so test-sized tables actually
/// split into many morsels) to the shared scheduler for the lifetime of the
/// scope.
class ScopedExecThreads {
 public:
  explicit ScopedExecThreads(int threads, size_t grain = 512)
      : saved_(GetExecOptions()) {
    ExecOptions o;
    o.num_threads = threads;
    o.morsel_min_rows = grain;
    SetExecOptions(o);
  }
  ~ScopedExecThreads() { SetExecOptions(saved_); }

 private:
  ExecOptions saved_;
};

/// Forces (mode 1) or suppresses (mode 0) the radix-partitioned GroupIndex
/// build for the lifetime of the scope, restoring the automatic heuristic
/// on exit. `partitions` pins the partition count (0 = derive from the
/// thread count).
class ScopedRadixOverride {
 public:
  explicit ScopedRadixOverride(int mode, size_t partitions = 0) {
    GroupIndex::SetRadixOverrideForTesting(mode, partitions);
  }
  ~ScopedRadixOverride() { GroupIndex::SetRadixOverrideForTesting(-1, 0); }
};

/// Sets the storage chunk size of tables built in the scope, restoring the
/// default however the test exits.
class ScopedChunkRows {
 public:
  explicit ScopedChunkRows(size_t rows) { SetDefaultChunkRowsForTesting(rows); }
  ~ScopedChunkRows() { SetDefaultChunkRowsForTesting(0); }
};

/// Switches zone-map pruning for the scope, re-enabling it on exit.
class ScopedZoneMaps {
 public:
  explicit ScopedZoneMaps(bool on) { SetZoneMapPruningEnabled(on); }
  ~ScopedZoneMaps() { SetZoneMapPruningEnabled(true); }
};

/// Bitwise equality of two results: same groups in the same order, with
/// value doubles compared by representation, not tolerance.
inline void ExpectBitIdentical(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.num_groups(), b.num_groups());
  ASSERT_EQ(a.num_aggregates(), b.num_aggregates());
  for (size_t i = 0; i < a.num_groups(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    for (size_t j = 0; j < a.num_aggregates(); ++j) {
      const double x = a.value(i, j);
      const double y = b.value(i, j);
      EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
          << "group " << a.label(i) << " agg " << j << ": " << x << " vs "
          << y;
    }
  }
}

/// Group i's key codes as a vector (for comparisons).
inline std::vector<int64_t> KeyCodesOf(const QueryResult& r, size_t i) {
  return {r.key_codes(i), r.key_codes(i) + r.key_arity()};
}

/// Group g's codes in a StreamGroupRouter.
inline std::vector<int64_t> RouterKeyCodes(const StreamGroupRouter& router,
                                           size_t g) {
  const int64_t* codes = router.key_codes().data() + g * router.arity();
  return {codes, codes + router.arity()};
}

/// MatchGroups(from, into), with nullopt for a group with no match.
inline std::vector<std::optional<size_t>> MatchedGroups(
    const QueryResult& from, const QueryResult& into) {
  std::vector<std::optional<size_t>> out;
  for (size_t j : std::move(MatchGroups(from, into)).ValueOrDie()) {
    out.push_back(j == kNoGroup ? std::nullopt : std::optional<size_t>(j));
  }
  return out;
}

/// A one-aggregate result grouped by one int attribute: one group per
/// (key, value) pair, in order.
inline Result<QueryResult> IntKeyResult(
    const std::string& attr, const std::string& agg,
    const std::vector<std::pair<int64_t, double>>& groups) {
  std::vector<int64_t> codes;
  std::vector<double> finals;
  for (const auto& [k, v] : groups) {
    codes.push_back(k);
    finals.push_back(v);
  }
  return QueryResult::Dense({agg}, {attr}, {KeyColumn{}}, std::move(codes),
                            std::vector<uint64_t>(groups.size(), 1), finals);
}

#define ASSERT_OK(expr)                                         \
  do {                                                          \
    const ::cvopt::Status _st = (expr);                         \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                    \
  } while (0)

#define EXPECT_OK(expr)                                         \
  do {                                                          \
    const ::cvopt::Status _st = (expr);                         \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                    \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                        \
  auto CVOPT_CONCAT_(_r_, __LINE__) = (rexpr);                  \
  ASSERT_TRUE(CVOPT_CONCAT_(_r_, __LINE__).ok())                \
      << CVOPT_CONCAT_(_r_, __LINE__).status().ToString();      \
  lhs = std::move(CVOPT_CONCAT_(_r_, __LINE__)).value();

/// The paper's example Student table (Table 1).
inline Table MakeStudentTable() {
  Schema schema({{"id", DataType::kInt64},
                 {"age", DataType::kInt64},
                 {"gpa", DataType::kDouble},
                 {"sat", DataType::kInt64},
                 {"major", DataType::kString},
                 {"college", DataType::kString}});
  TableBuilder b(schema);
  auto add = [&b](int64_t id, int64_t age, double gpa, int64_t sat,
                  const char* major, const char* college) {
    Status st = b.AppendRow({Value(id), Value(age), Value(gpa), Value(sat),
                             Value(major), Value(college)});
    CVOPT_CHECK(st.ok(), "append failed");
  };
  add(1, 25, 3.4, 1250, "CS", "Science");
  add(2, 22, 3.1, 1280, "CS", "Science");
  add(3, 24, 3.8, 1230, "Math", "Science");
  add(4, 28, 3.6, 1270, "Math", "Science");
  add(5, 21, 3.5, 1210, "EE", "Engineering");
  add(6, 23, 3.2, 1260, "EE", "Engineering");
  add(7, 27, 3.7, 1220, "ME", "Engineering");
  add(8, 26, 3.3, 1230, "ME", "Engineering");
  return std::move(b).Finish();
}

/// Two rows keyed by two string columns with the same codes: a = "x", "y"
/// and b = "p", "q" (codes 0 and 1 each), with a value column v.
inline Table MakeTwoKeyTable() {
  TableBuilder b(Schema({{"a", DataType::kString},
                         {"b", DataType::kString},
                         {"v", DataType::kDouble}}));
  CVOPT_CHECK(b.AppendRow({Value("x"), Value("p"), Value(1.0)}).ok(),
              "append failed");
  CVOPT_CHECK(b.AppendRow({Value("y"), Value("q"), Value(2.0)}).ok(),
              "append failed");
  return std::move(b).Finish();
}

/// A small skewed table: `groups` groups, group g has (g+1)*base rows with
/// value distribution N(mean_g, sigma_g) where means and sigmas diverge.
inline Table MakeSkewedTable(int groups, int base, uint64_t seed = 7) {
  Schema schema({{"g", DataType::kInt64}, {"v", DataType::kDouble}});
  TableBuilder b(schema);
  Rng rng(seed);
  for (int g = 0; g < groups; ++g) {
    const int n = (g + 1) * base;
    const double mean = 10.0 * (g + 1);
    const double sigma = 0.5 * (groups - g);  // small groups more variable
    for (int i = 0; i < n; ++i) {
      Status st = b.AppendRow(
          {Value(static_cast<int64_t>(g)),
           Value(mean + sigma * rng.NextGaussian())});
      CVOPT_CHECK(st.ok(), "append failed");
    }
  }
  return std::move(b).Finish();
}

/// A StreamGroupRouter over `cols` of `t`, bound to their current storage
/// (the table must not grow while the router reads it).
inline StreamGroupRouter RouterOverTable(const Table& t,
                                         const std::vector<size_t>& cols) {
  std::vector<DataType> types;
  for (size_t c : cols) types.push_back(t.column(c).type());
  StreamGroupRouter router(types);
  for (size_t j = 0; j < cols.size(); ++j) {
    const Column& col = t.column(cols[j]);
    router.Bind(j, col.ints().data(), col.codes().data());
  }
  return router;
}

}  // namespace cvopt

#endif  // CVOPT_TESTS_TEST_UTIL_H_
