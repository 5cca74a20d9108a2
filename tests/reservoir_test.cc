// Tests for reservoir sampling: exact sizes, uniformity, weighted bias, and
// the edge cases of the per-stratum parallel draw (take-all, allocation 0,
// single-row strata, rows excluded by a WHERE-filtered stratification).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "src/core/stratification.h"
#include "src/sample/reservoir.h"
#include "src/sample/sampler.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

TEST(ReservoirTest, KeepsEverythingWhenUnderCapacity) {
  Rng rng(1);
  ReservoirSampler res(10, &rng);
  for (uint32_t i = 0; i < 5; ++i) res.Offer(i);
  EXPECT_EQ(res.sample().size(), 5u);
  EXPECT_EQ(res.seen(), 5u);
}

TEST(ReservoirTest, ExactCapacityWhenOverOffered) {
  Rng rng(2);
  ReservoirSampler res(100, &rng);
  for (uint32_t i = 0; i < 100000; ++i) res.Offer(i);
  EXPECT_EQ(res.sample().size(), 100u);
  // All items distinct (without replacement).
  std::set<uint32_t> s(res.sample().begin(), res.sample().end());
  EXPECT_EQ(s.size(), 100u);
}

TEST(ReservoirTest, ZeroCapacity) {
  Rng rng(3);
  ReservoirSampler res(0, &rng);
  for (uint32_t i = 0; i < 10; ++i) res.Offer(i);
  EXPECT_TRUE(res.sample().empty());
}

TEST(ReservoirTest, InclusionProbabilityIsUniform) {
  // Sample 50 of 500, 4000 repetitions: each item should be included about
  // 400 times. A loose 5-sigma band keeps the test deterministic-enough.
  const int n = 500, k = 50, reps = 4000;
  std::vector<int> hits(n, 0);
  Rng rng(4);
  for (int rep = 0; rep < reps; ++rep) {
    ReservoirSampler res(k, &rng);
    for (uint32_t i = 0; i < static_cast<uint32_t>(n); ++i) res.Offer(i);
    for (uint32_t x : res.sample()) hits[x]++;
  }
  const double p = static_cast<double>(k) / n;
  const double expect = reps * p;
  const double sigma = std::sqrt(reps * p * (1 - p));
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(hits[i], expect, 5 * sigma) << "item " << i;
  }
}

TEST(WeightedReservoirTest, SizesAndDistinctness) {
  Rng rng(5);
  WeightedReservoirSampler res(20, &rng);
  for (uint32_t i = 0; i < 1000; ++i) res.Offer(i, 1.0 + i % 7);
  std::vector<uint32_t> out = res.TakeSample();
  EXPECT_EQ(out.size(), 20u);
  std::set<uint32_t> s(out.begin(), out.end());
  EXPECT_EQ(s.size(), 20u);
}

TEST(WeightedReservoirTest, SkipsNonPositiveWeights) {
  Rng rng(6);
  WeightedReservoirSampler res(5, &rng);
  res.Offer(1, 0.0);
  res.Offer(2, -1.0);
  res.Offer(3, 2.0);
  std::vector<uint32_t> out = res.TakeSample();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 3u);
}

TEST(WeightedReservoirTest, HeavyItemsSampledMoreOften) {
  // Items 0..9: item 9 has weight 10, others weight 1. Sampling 1 of 10
  // repeatedly, item 9 should win ~10/19 of the time.
  Rng rng(7);
  int wins = 0;
  const int reps = 5000;
  for (int rep = 0; rep < reps; ++rep) {
    WeightedReservoirSampler res(1, &rng);
    for (uint32_t i = 0; i < 10; ++i) res.Offer(i, i == 9 ? 10.0 : 1.0);
    if (res.TakeSample()[0] == 9) wins++;
  }
  const double frac = static_cast<double>(wins) / reps;
  EXPECT_NEAR(frac, 10.0 / 19.0, 0.04);
}

TEST(DrawReservoirTest, IdentityItemsMatchExplicitItems) {
  // nullptr items samples the identity sequence: same rng, same draws.
  std::vector<uint32_t> items(1000);
  std::iota(items.begin(), items.end(), 0);
  Rng rng_a(9), rng_b(9);
  std::vector<uint32_t> a(50), b(50);
  ASSERT_EQ(DrawReservoir(items.data(), items.size(), 50, &rng_a, a.data()),
            50u);
  ASSERT_EQ(DrawReservoir(nullptr, items.size(), 50, &rng_b, b.data()), 50u);
  EXPECT_EQ(a, b);
}

TEST(DrawReservoirTest, TakeAllConsumesNoDraws) {
  // n <= k copies every item and must not touch the rng — the take-all
  // path of the per-stratum draw is draw-free by contract.
  std::vector<uint32_t> items = {5, 7, 9};
  std::vector<uint32_t> out(10, 0);
  Rng rng(33), mirror(33);
  EXPECT_EQ(DrawReservoir(items.data(), 3, 10, &rng, out.data()), 3u);
  EXPECT_EQ(out[0], 5u);
  EXPECT_EQ(out[1], 7u);
  EXPECT_EQ(out[2], 9u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rng.Next64(), mirror.Next64());
}

TEST(DrawReservoirTest, ZeroCapacityAndZeroItems) {
  Rng rng(41);
  uint32_t sink = 123;
  EXPECT_EQ(DrawReservoir(nullptr, 100, 0, &rng, &sink), 0u);
  EXPECT_EQ(DrawReservoir(nullptr, 0, 10, &rng, &sink), 0u);
  EXPECT_EQ(sink, 123u);  // nothing written
}

TEST(DrawReservoirTest, MatchesReservoirSamplerOfferSequence) {
  // DrawReservoir is Algorithm R exactly as ReservoirSampler::Offer runs
  // it, so the same rng state yields the same sample.
  Rng rng_a(55), rng_b(55);
  ReservoirSampler res(25, &rng_a);
  for (uint32_t i = 0; i < 500; ++i) res.Offer(i);
  std::vector<uint32_t> direct(25);
  ASSERT_EQ(DrawReservoir(nullptr, 500, 25, &rng_b, direct.data()), 25u);
  EXPECT_EQ(direct, res.sample());
}

// ---------------------------------------------------------------------
// Per-stratum draw edges through DrawStratified.

TEST(DrawStratifiedEdgeTest, TakeAllEmptyAndSingleRowStrata) {
  // Strata of sizes {1, 3, 200}: allocation {1 (single-row take-all),
  // 3 (exact take-all boundary), 0 (no draws)}.
  Schema schema({{"g", DataType::kString}, {"v", DataType::kDouble}});
  TableBuilder b(schema);
  ASSERT_OK(b.AppendRow({Value("solo"), Value(1.0)}));
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(b.AppendRow({Value("trio"), Value(2.0)}));
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(b.AppendRow({Value("bulk"), Value(3.0)}));
  }
  Table t = std::move(b).Finish();
  ASSERT_OK_AND_ASSIGN(Stratification strat, Stratification::Build(t, {"g"}));
  auto shared = std::make_shared<Stratification>(std::move(strat));
  ASSERT_EQ(shared->num_strata(), 3u);

  Rng rng(71);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       DrawStratified(t, shared, {1, 3, 0}, "t", &rng));
  ASSERT_EQ(s.size(), 4u);
  std::vector<int> per(3, 0);
  for (uint32_t r : s.rows()) {
    ASSERT_LT(r, t.num_rows());
    per[shared->StratumOfRow(r)]++;
  }
  EXPECT_EQ(per[0], 1);  // single-row stratum: exactly its row
  EXPECT_EQ(per[1], 3);  // allocation == population: all three rows
  EXPECT_EQ(per[2], 0);  // allocation 0: no draws
  // Take-all weights are 1 (n_c / s_c with s_c == n_c).
  for (double w : s.weights()) EXPECT_DOUBLE_EQ(w, 1.0);
}

TEST(DrawStratifiedEdgeTest, AllAllocationsZeroYieldsEmptySample) {
  Table t = MakeSkewedTable(3, 20);
  ASSERT_OK_AND_ASSIGN(Stratification strat, Stratification::Build(t, {"g"}));
  auto shared = std::make_shared<Stratification>(std::move(strat));
  Rng rng(79), mirror(79);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       DrawStratified(t, shared, {0, 0, 0}, "t", &rng));
  EXPECT_EQ(s.size(), 0u);
  // Only the master-seed derivation consumed randomness.
  (void)mirror.Next64();
  EXPECT_EQ(rng.Next64(), mirror.Next64());
}

TEST(DrawStratifiedEdgeTest, DrawnRowsAreDistinctWithinStrata) {
  Table t = MakeSkewedTable(6, 80, /*seed=*/11);
  ASSERT_OK_AND_ASSIGN(Stratification strat, Stratification::Build(t, {"g"}));
  auto shared = std::make_shared<Stratification>(std::move(strat));
  std::vector<uint64_t> alloc(shared->num_strata());
  for (size_t c = 0; c < alloc.size(); ++c) alloc[c] = shared->sizes()[c] / 3;
  Rng rng(83);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       DrawStratified(t, shared, alloc, "t", &rng));
  std::set<uint32_t> distinct(s.rows().begin(), s.rows().end());
  EXPECT_EQ(distinct.size(), s.rows().size());
}

}  // namespace
}  // namespace cvopt
