// Unit tests for the shared dense group-id pipeline: all three build tiers
// (direct remap, packed flat-hash, wide-key fallback), subset builds, the
// Resolve validation helper, and the GroupKeyInterner — plus a differential
// test against a naive unordered_map reference over randomized tables.
#include "src/exec/group_index.h"

#include <gtest/gtest.h>

#include <numeric>
#include <unordered_map>

#include "src/table/table_builder.h"
#include "src/util/rng.h"
#include "src/util/simd.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

// Naive reference: first-seen dense ids via a node-based key map.
struct ReferenceIndex {
  std::vector<uint32_t> row_groups;
  std::vector<GroupKey> keys;
  std::vector<uint64_t> sizes;
};

ReferenceIndex NaiveIndex(const Table& table, const std::vector<size_t>& cols,
                          const std::vector<uint32_t>* rows) {
  ReferenceIndex out;
  std::unordered_map<GroupKey, uint32_t, GroupKeyHash> index;
  const size_t n = rows != nullptr ? rows->size() : table.num_rows();
  GroupKey key;
  key.codes.resize(cols.size());
  for (size_t i = 0; i < n; ++i) {
    const size_t r = rows != nullptr ? (*rows)[i] : i;
    for (size_t j = 0; j < cols.size(); ++j) {
      key.codes[j] = table.column(cols[j]).GroupCode(r);
    }
    auto [it, inserted] =
        index.try_emplace(key, static_cast<uint32_t>(out.keys.size()));
    if (inserted) {
      out.keys.push_back(key);
      out.sizes.push_back(0);
    }
    out.row_groups.push_back(it->second);
    out.sizes[it->second]++;
  }
  return out;
}

void ExpectMatchesReference(const GroupIndex& gidx, const ReferenceIndex& ref) {
  ASSERT_EQ(gidx.num_groups(), ref.keys.size());
  ASSERT_EQ(gidx.row_groups().size(), ref.row_groups.size());
  // First-seen id assignment must agree exactly, not just up to relabeling.
  EXPECT_EQ(gidx.row_groups(), ref.row_groups);
  for (size_t g = 0; g < gidx.num_groups(); ++g) {
    EXPECT_EQ(gidx.KeyOf(g), ref.keys[g]) << "group " << g;
    EXPECT_EQ(gidx.sizes()[g], ref.sizes[g]) << "group " << g;
  }
}

Table MakeTypedTable(const std::vector<int64_t>& small_ints,
                     const std::vector<int64_t>& wide_ints,
                     const std::vector<std::string>& strings) {
  Schema schema({{"s", DataType::kString},
                 {"i", DataType::kInt64},
                 {"w", DataType::kInt64},
                 {"d", DataType::kDouble}});
  TableBuilder b(schema);
  for (size_t r = 0; r < strings.size(); ++r) {
    Status st = b.AppendRow({Value(strings[r]), Value(small_ints[r]),
                             Value(wide_ints[r]), Value(0.5)});
    CVOPT_CHECK(st.ok(), "append failed");
  }
  return std::move(b).Finish();
}

TEST(GroupIndexTest, SingleStringColumnIsDirectTier) {
  Table t = MakeTypedTable({1, 2, 3, 4, 5}, {0, 0, 0, 0, 0},
                           {"b", "a", "b", "c", "a"});
  ASSERT_OK_AND_ASSIGN(GroupIndex gidx, GroupIndex::Build(t, {"s"}));
  EXPECT_EQ(gidx.tier(), GroupIndex::Tier::kDirect);
  ASSERT_EQ(gidx.num_groups(), 3u);
  // First-seen order: b, a, c.
  EXPECT_EQ(gidx.row_groups(), (std::vector<uint32_t>{0, 1, 0, 2, 1}));
  EXPECT_EQ(gidx.sizes(), (std::vector<uint64_t>{2, 2, 1}));
  EXPECT_EQ(gidx.Label(0), "b");
  EXPECT_EQ(gidx.Label(1), "a");
  EXPECT_EQ(gidx.Label(2), "c");
}

TEST(GroupIndexTest, SingleSmallIntColumnIsDirectTier) {
  // Negative values exercise the min-rebasing of the remap array.
  Table t = MakeTypedTable({-7, 3, -7, 100, 3}, {0, 0, 0, 0, 0},
                           {"x", "x", "x", "x", "x"});
  ASSERT_OK_AND_ASSIGN(GroupIndex gidx, GroupIndex::Build(t, {"i"}));
  EXPECT_EQ(gidx.tier(), GroupIndex::Tier::kDirect);
  ASSERT_EQ(gidx.num_groups(), 3u);
  EXPECT_EQ(gidx.row_groups(), (std::vector<uint32_t>{0, 1, 0, 2, 1}));
  EXPECT_EQ(gidx.KeyOf(0), (GroupKey{{-7}}));
  EXPECT_EQ(gidx.KeyOf(2), (GroupKey{{100}}));
}

TEST(GroupIndexTest, SingleWideIntColumnFallsToPackedHash) {
  // Spread > 2^22 forces the flat-hash tier; a single int always packs.
  const int64_t big = int64_t{1} << 30;
  Table t = MakeTypedTable({0, big, 0, -big, big}, {0, 0, 0, 0, 0},
                           {"x", "x", "x", "x", "x"});
  ASSERT_OK_AND_ASSIGN(GroupIndex gidx, GroupIndex::Build(t, {"i"}));
  EXPECT_EQ(gidx.tier(), GroupIndex::Tier::kPacked);
  ASSERT_EQ(gidx.num_groups(), 3u);
  EXPECT_EQ(gidx.row_groups(), (std::vector<uint32_t>{0, 1, 0, 2, 1}));
  EXPECT_EQ(gidx.sizes(), (std::vector<uint64_t>{2, 2, 1}));
}

TEST(GroupIndexTest, SmallRowCountOverMidDomainAvoidsDirectRemap) {
  // 5 rows over a ~100k-spread int: the code domain would fit the direct
  // tier's bit budget, but a dense remap dwarfs the mapped row count, so
  // the flat-hash tier must take over.
  Table t = MakeTypedTable({0, 100000, 0, 55555, 100000}, {0, 0, 0, 0, 0},
                           {"x", "x", "x", "x", "x"});
  ASSERT_OK_AND_ASSIGN(GroupIndex gidx, GroupIndex::Build(t, {"i"}));
  EXPECT_EQ(gidx.tier(), GroupIndex::Tier::kPacked);
  EXPECT_EQ(gidx.row_groups(), (std::vector<uint32_t>{0, 1, 0, 2, 1}));
}

TEST(GroupIndexTest, MultiColumnSmallDomainsAreDirectTier) {
  Table t = MakeTypedTable({0, 1, 0, 1, 0}, {0, 0, 0, 0, 0},
                           {"a", "a", "b", "b", "a"});
  ASSERT_OK_AND_ASSIGN(GroupIndex gidx, GroupIndex::Build(t, {"s", "i"}));
  EXPECT_EQ(gidx.tier(), GroupIndex::Tier::kDirect);
  ASSERT_EQ(gidx.num_groups(), 4u);
  EXPECT_EQ(gidx.row_groups(), (std::vector<uint32_t>{0, 1, 2, 3, 0}));
  EXPECT_EQ(gidx.KeyOf(1), (GroupKey{{0, 1}}));  // code of "a", int 1
}

TEST(GroupIndexTest, MultiColumnPackableIsPackedTier) {
  const int64_t big = int64_t{1} << 30;  // ~31 bits + string bits <= 64
  Table t = MakeTypedTable({0, 0, 0, 0, 0}, {0, big, 0, 7, big},
                           {"a", "a", "b", "b", "a"});
  ASSERT_OK_AND_ASSIGN(GroupIndex gidx, GroupIndex::Build(t, {"s", "w"}));
  EXPECT_EQ(gidx.tier(), GroupIndex::Tier::kPacked);
  ExpectMatchesReference(gidx, NaiveIndex(t, {0, 2}, nullptr));
}

TEST(GroupIndexTest, UnpackableKeysFallToWideTier) {
  // Two columns each spanning ~2^41 cannot bit-pack into 64 bits.
  const int64_t huge = int64_t{1} << 40;
  Table t = MakeTypedTable({0, 3 * huge, -huge, 0, 3 * huge},
                           {-2 * huge, huge, 0, -2 * huge, huge},
                           {"x", "x", "x", "x", "x"});
  ASSERT_OK_AND_ASSIGN(GroupIndex gidx, GroupIndex::Build(t, {"i", "w"}));
  EXPECT_EQ(gidx.tier(), GroupIndex::Tier::kWide);
  ASSERT_EQ(gidx.num_groups(), 3u);
  EXPECT_EQ(gidx.row_groups(), (std::vector<uint32_t>{0, 1, 2, 0, 1}));
  EXPECT_EQ(gidx.KeyOf(0), (GroupKey{{0, -2 * huge}}));
}

TEST(GroupIndexTest, EmptyAttrsYieldSingleGroup) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(GroupIndex gidx, GroupIndex::Build(t, {}));
  ASSERT_EQ(gidx.num_groups(), 1u);
  EXPECT_EQ(gidx.sizes()[0], t.num_rows());
  EXPECT_TRUE(gidx.KeyOf(0).codes.empty());
}

TEST(GroupIndexTest, ResolveRejectsDoubleColumns) {
  Table t = MakeStudentTable();
  EXPECT_FALSE(GroupIndex::Build(t, {"gpa"}).ok());
  EXPECT_FALSE(GroupIndex::Build(t, {"major", "gpa"}).ok());
  EXPECT_FALSE(GroupIndex::Build(t, {"nope"}).ok());
  ASSERT_OK_AND_ASSIGN(std::vector<size_t> cols,
                       GroupIndex::Resolve(t, {"major", "age"}));
  EXPECT_EQ(cols, (std::vector<size_t>{4, 1}));
}

TEST(GroupIndexTest, BuildForRowsMapsOnlyOccurringGroups) {
  Table t = MakeStudentTable();  // majors: CS CS Math Math EE EE ME ME
  const std::vector<uint32_t> rows = {6, 2, 7, 3};
  ASSERT_OK_AND_ASSIGN(GroupIndex gidx,
                       GroupIndex::BuildForRows(t, {"major"}, rows));
  ASSERT_EQ(gidx.num_groups(), 2u);  // only ME and Math occur in the subset
  EXPECT_EQ(gidx.row_groups(), (std::vector<uint32_t>{0, 1, 0, 1}));
  EXPECT_EQ(gidx.Label(0), "ME");
  EXPECT_EQ(gidx.Label(1), "Math");
  EXPECT_EQ(gidx.sizes(), (std::vector<uint64_t>{2, 2}));
}

TEST(GroupIndexTest, BuildForRowsEmptySubset) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(GroupIndex gidx, GroupIndex::BuildForRows(t, {"major"}, {}));
  EXPECT_EQ(gidx.num_groups(), 0u);
  EXPECT_TRUE(gidx.row_groups().empty());
}

// Randomized differential: every tier must reproduce the naive map exactly
// (ids, first-seen order, sizes, keys) on tables mixing strings, small ints,
// and wide ints, over full builds and random subsets.
class GroupIndexFuzz : public testing::TestWithParam<int> {};

TEST_P(GroupIndexFuzz, MatchesNaiveReference) {
  Rng rng(3100 + GetParam());
  const size_t n = 300 + rng.Uniform(300);
  std::vector<int64_t> small(n), wide(n);
  std::vector<std::string> strs(n);
  const char* names[] = {"aa", "bb", "cc", "dd", "ee", "ff", "gg"};
  for (size_t r = 0; r < n; ++r) {
    small[r] = static_cast<int64_t>(rng.Uniform(25)) - 12;
    // Wide values: a few clusters scattered over +/- 2^40.
    wide[r] = (static_cast<int64_t>(rng.Uniform(7)) - 3) * (int64_t{1} << 40) +
              static_cast<int64_t>(rng.Uniform(3));
    strs[r] = names[rng.Uniform(7)];
  }
  Table t = MakeTypedTable(small, wide, strs);

  // {"w", "w"} repeats the ~43-bit column so the packed budget overflows,
  // exercising the wide tier alongside direct and packed.
  const std::vector<std::vector<std::string>> attr_sets = {
      {"s"},      {"i"},      {"w"},           {"s", "i"},
      {"s", "w"}, {"i", "w"}, {"s", "i", "w"}, {"w", "i", "s"},
      {"w", "w"}, {"w", "w", "s"}};
  for (const auto& attrs : attr_sets) {
    ASSERT_OK_AND_ASSIGN(GroupIndex gidx, GroupIndex::Build(t, attrs));
    ASSERT_OK_AND_ASSIGN(std::vector<size_t> cols, GroupIndex::Resolve(t, attrs));
    ExpectMatchesReference(gidx, NaiveIndex(t, cols, nullptr));

    // Random subset build (with repeats).
    std::vector<uint32_t> rows;
    for (size_t i = 0; i < n / 2; ++i) {
      rows.push_back(static_cast<uint32_t>(rng.Uniform(n)));
    }
    ASSERT_OK_AND_ASSIGN(GroupIndex sub, GroupIndex::BuildForRows(t, attrs, rows));
    ExpectMatchesReference(sub, NaiveIndex(t, cols, &rows));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupIndexFuzz, testing::Range(0, 5));

// The radix-partitioned build must reproduce the naive reference exactly
// (ids in first-seen order, sizes, keys) for every tier, partition count —
// including the P=1 single-partition edge and P far above the group count
// (empty partitions) — and thread count, over full and subset builds.
class RadixBuildFuzz : public testing::TestWithParam<int> {};

TEST_P(RadixBuildFuzz, ForcedRadixMatchesNaiveReference) {
  Rng rng(8800 + GetParam());
  const size_t n = 400 + rng.Uniform(400);
  std::vector<int64_t> small(n), wide(n);
  std::vector<std::string> strs(n);
  const char* names[] = {"aa", "bb", "cc", "dd", "ee", "ff", "gg"};
  for (size_t r = 0; r < n; ++r) {
    small[r] = static_cast<int64_t>(rng.Uniform(25)) - 12;
    wide[r] = (static_cast<int64_t>(rng.Uniform(9)) - 4) * (int64_t{1} << 40) +
              static_cast<int64_t>(rng.Uniform(5));
    strs[r] = names[rng.Uniform(7)];
  }
  Table t = MakeTypedTable(small, wide, strs);

  // Covers all three tiers: direct ({"s"}, {"s","i"}), packed ({"s","w"},
  // {"i","w"}), wide ({"w","w"}, {"w","w","s"}).
  const std::vector<std::vector<std::string>> attr_sets = {
      {"s"}, {"s", "i"}, {"s", "w"}, {"i", "w"}, {"w", "w"}, {"w", "w", "s"}};
  std::vector<uint32_t> rows;
  for (size_t i = 0; i < n / 2; ++i) {
    rows.push_back(static_cast<uint32_t>(rng.Uniform(n)));
  }
  for (const size_t partitions : {size_t{1}, size_t{2}, size_t{8}, size_t{64}}) {
    ScopedRadixOverride radix(/*mode=*/1, partitions);
    for (const int threads : {1, 2, 3, 8}) {
      ScopedExecThreads scope(threads, /*grain=*/64);
      for (const auto& attrs : attr_sets) {
        ASSERT_OK_AND_ASSIGN(GroupIndex gidx, GroupIndex::Build(t, attrs));
        ASSERT_OK_AND_ASSIGN(std::vector<size_t> cols,
                             GroupIndex::Resolve(t, attrs));
        ASSERT_NE(gidx.partitions(), nullptr);
        ExpectMatchesReference(gidx, NaiveIndex(t, cols, nullptr));

        ASSERT_OK_AND_ASSIGN(GroupIndex sub,
                             GroupIndex::BuildForRows(t, attrs, rows));
        ExpectMatchesReference(sub, NaiveIndex(t, cols, &rows));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadixBuildFuzz, testing::Range(0, 3));

TEST(RadixBuildTest, PartitionArtifactIsConsistent) {
  // The artifact must tile the mapped positions exactly: every position in
  // one partition, ascending within it, local ids consistent with the
  // global mapping, and partition-owned global id sets disjoint.
  Rng rng(515);
  const size_t n = 3000;
  std::vector<int64_t> small(n), wide(n);
  std::vector<std::string> strs(n);
  for (size_t r = 0; r < n; ++r) {
    small[r] = static_cast<int64_t>(rng.Uniform(600));
    wide[r] = static_cast<int64_t>(rng.Uniform(1u << 30));
    strs[r] = "s" + std::to_string(rng.Uniform(50));
  }
  Table t = MakeTypedTable(small, wide, strs);
  ScopedRadixOverride radix(/*mode=*/1, /*partitions=*/8);
  ASSERT_OK_AND_ASSIGN(GroupIndex gidx, GroupIndex::Build(t, {"s", "i", "w"}));
  const auto& gp = gidx.partitions();
  ASSERT_NE(gp, nullptr);
  EXPECT_EQ(gp->num_partitions(), 8u);
  EXPECT_EQ(gp->part_rows.size(), n);
  EXPECT_EQ(gp->part_local.size(), n);
  EXPECT_EQ(gp->local_to_global.size(), gidx.num_groups());
  std::vector<int> seen_pos(n, 0);
  std::vector<int> seen_group(gidx.num_groups(), 0);
  for (size_t p = 0; p < gp->num_partitions(); ++p) {
    for (size_t g = 0; g < gp->num_groups_in(p); ++g) {
      const uint32_t global = gp->local_to_global[gp->group_base[p] + g];
      EXPECT_EQ(seen_group[global]++, 0) << "global id owned twice";
    }
    for (size_t k = gp->part_base[p]; k < gp->part_base[p + 1]; ++k) {
      const uint32_t pos = gp->part_rows[k];
      EXPECT_EQ(seen_pos[pos]++, 0) << "position scattered twice";
      if (k > gp->part_base[p]) EXPECT_LT(gp->part_rows[k - 1], pos);
      // Local id agrees with the global row->group mapping.
      EXPECT_EQ(gp->local_to_global[gp->group_base[p] + gp->part_local[k]],
                gidx.group_of(pos));
    }
  }
  EXPECT_EQ(std::count(seen_pos.begin(), seen_pos.end(), 1),
            static_cast<long>(n));
}

TEST(RadixBuildTest, AutoHeuristicEngagesOnHugeCardinality) {
  // Int keys over 2^30 spread (packed tier) at n >= 65536: ~100k groups,
  // and ~400k >= 2^18 groups for the huge-G regime. The automatic path
  // must engage when parallel and stay off serially — with bit-identical
  // ids either way.
  for (const size_t n : {size_t{100000}, size_t{400000}}) {
    SCOPED_TRACE(n);
    Schema schema({{"k", DataType::kInt64}});
    TableBuilder b(schema);
    Rng rng(99);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_OK(
          b.AppendRow({Value(static_cast<int64_t>(rng.Uniform(1u << 30)))}));
    }
    Table t = std::move(b).Finish();
    GroupIndex serial = [&] {
      ScopedExecThreads one(1);
      return std::move(GroupIndex::Build(t, {"k"})).ValueOrDie();
    }();
    EXPECT_EQ(serial.partitions(), nullptr);  // serial: radix never engages
    EXPECT_GT(serial.num_groups(), n * 99 / 100);  // nearly all distinct
    ScopedExecThreads threads(4);
    ASSERT_OK_AND_ASSIGN(GroupIndex par, GroupIndex::Build(t, {"k"}));
    EXPECT_EQ(par.tier(), GroupIndex::Tier::kPacked);
    ASSERT_NE(par.partitions(), nullptr);
    EXPECT_EQ(par.row_groups(), serial.row_groups());
    EXPECT_EQ(par.sizes(), serial.sizes());
  }
}

// --------------------------------------------- SIMD-vs-scalar parity

// The batched packed probe (8-lane hash mix + slot prefetch) must leave no
// trace in the output: builds with the vector backend forced off and on
// assign bit-identical first-seen ids, sizes, and keys across every tier,
// the forced-radix path, and subset builds. On hosts without a vector
// backend both passes are scalar.
class GroupBuildSimdParityFuzz : public testing::TestWithParam<int> {};

TEST_P(GroupBuildSimdParityFuzz, BuildsBitIdenticalScalarVsVector) {
  Rng rng(6600 + GetParam());
  const size_t n = 500 + rng.Uniform(400);
  std::vector<int64_t> small(n), wide(n);
  std::vector<std::string> strs(n);
  const char* names[] = {"aa", "bb", "cc", "dd", "ee", "ff", "gg"};
  for (size_t r = 0; r < n; ++r) {
    small[r] = static_cast<int64_t>(rng.Uniform(25)) - 12;
    wide[r] = (static_cast<int64_t>(rng.Uniform(9)) - 4) * (int64_t{1} << 40) +
              static_cast<int64_t>(rng.Uniform(5));
    strs[r] = names[rng.Uniform(7)];
  }
  Table t = MakeTypedTable(small, wide, strs);
  std::vector<uint32_t> rows;
  for (size_t i = 0; i < n / 2; ++i) {
    rows.push_back(static_cast<uint32_t>(rng.Uniform(n)));
  }
  const std::vector<std::vector<std::string>> attr_sets = {
      {"s"}, {"s", "i"}, {"s", "w"}, {"i", "w"}, {"w", "w"}};
  for (const int radix_mode : {0, 1}) {
    ScopedRadixOverride radix(radix_mode, /*partitions=*/radix_mode ? 8 : 0);
    for (const auto& attrs : attr_sets) {
      simd::SetEnabledForTesting(0);
      ASSERT_OK_AND_ASSIGN(GroupIndex scalar, GroupIndex::Build(t, attrs));
      ASSERT_OK_AND_ASSIGN(GroupIndex scalar_sub,
                           GroupIndex::BuildForRows(t, attrs, rows));
      simd::SetEnabledForTesting(1);
      ASSERT_OK_AND_ASSIGN(GroupIndex vec, GroupIndex::Build(t, attrs));
      ASSERT_OK_AND_ASSIGN(GroupIndex vec_sub,
                           GroupIndex::BuildForRows(t, attrs, rows));
      EXPECT_EQ(vec.row_groups(), scalar.row_groups());
      EXPECT_EQ(vec.sizes(), scalar.sizes());
      EXPECT_EQ(vec_sub.row_groups(), scalar_sub.row_groups());
      EXPECT_EQ(vec_sub.sizes(), scalar_sub.sizes());
      for (size_t g = 0; g < vec.num_groups(); ++g) {
        ASSERT_EQ(vec.KeyOf(g), scalar.KeyOf(g)) << "group " << g;
      }
    }
  }
  simd::SetEnabledForTesting(1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupBuildSimdParityFuzz, testing::Range(0, 4));

// RouteBatch must be observationally identical to per-row Route — same ids
// in the same order, same group count and keys — including mid-stream field
// widening (values that outgrow their packed field) and the wide-tier
// fallback (keys that cannot pack at all), at batch boundaries that leave
// ragged tails, with the vector backend both off and on.
class RouterBatchParityFuzz : public testing::TestWithParam<int> {};

TEST_P(RouterBatchParityFuzz, RouteBatchMatchesPerRowRoute) {
  Rng rng(7700 + GetParam());
  const size_t n = 700 + rng.Uniform(300);
  std::vector<int64_t> small(n), wide(n);
  std::vector<std::string> strs(n);
  const char* names[] = {"aa", "bb", "cc", "dd", "ee"};
  for (size_t r = 0; r < n; ++r) {
    // Growing magnitudes force Widen mid-stream; occasional huge values
    // push the composite key past 64 bits into the wide tier.
    const int64_t mag = int64_t{1} << rng.Uniform(r < n / 2 ? 20 : 44);
    small[r] = static_cast<int64_t>(rng.Uniform(9)) - 4;
    wide[r] = (rng.NextBernoulli(0.5) ? -1 : 1) * (mag + static_cast<int64_t>(rng.Uniform(3)));
    strs[r] = names[rng.Uniform(5)];
  }
  Table t = MakeTypedTable(small, wide, strs);
  const std::vector<std::vector<std::string>> attr_sets = {
      {"s"}, {"i", "w"}, {"s", "i", "w"}, {"w", "w"}, {}};
  for (const int simd_mode : {0, 1}) {
    simd::SetEnabledForTesting(simd_mode);
    for (const auto& attrs : attr_sets) {
      ASSERT_OK_AND_ASSIGN(std::vector<size_t> cols,
                           GroupIndex::Resolve(t, attrs));
      StreamGroupRouter serial = RouterOverTable(t, cols);
      StreamGroupRouter batched = RouterOverTable(t, cols);
      std::vector<uint32_t> want(n), got(n);
      for (size_t r = 0; r < n; ++r) {
        want[r] = serial.Route(static_cast<uint32_t>(r));
      }
      // Uneven blocks exercise full 8-row batches and ragged tails.
      std::vector<uint32_t> ids(n);
      std::iota(ids.begin(), ids.end(), 0u);
      size_t lo = 0;
      while (lo < n) {
        const size_t len = std::min<size_t>(n - lo, 1 + rng.Uniform(37));
        batched.RouteBatch(ids.data() + lo, len, got.data() + lo);
        lo += len;
      }
      EXPECT_EQ(got, want);
      ASSERT_EQ(batched.num_groups(), serial.num_groups());
      EXPECT_EQ(batched.packed(), serial.packed());
      for (size_t g = 0; g < serial.num_groups(); ++g) {
        ASSERT_EQ(batched.KeyOf(g), serial.KeyOf(g)) << "group " << g;
      }
    }
  }
  simd::SetEnabledForTesting(1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterBatchParityFuzz, testing::Range(0, 4));

TEST(GroupKeyInternerTest, AssignsDenseFirstSeenIds) {
  GroupKeyInterner interner;
  EXPECT_EQ(interner.Intern(GroupKey{{1, 2}}), 0u);
  EXPECT_EQ(interner.Intern(GroupKey{{2, 1}}), 1u);
  EXPECT_EQ(interner.Intern(GroupKey{{1, 2}}), 0u);
  EXPECT_EQ(interner.Intern(GroupKey{{}}), 2u);
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.keys()[1], (GroupKey{{2, 1}}));
}

TEST(GroupKeyInternerTest, SurvivesGrowth) {
  GroupKeyInterner interner(4);
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(interner.Intern(GroupKey{{i, -i}}), static_cast<uint32_t>(i));
  }
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(interner.Intern(GroupKey{{i, -i}}), static_cast<uint32_t>(i));
  }
  EXPECT_EQ(interner.size(), 5000u);
}

}  // namespace
}  // namespace cvopt
