// Tests for the ordinal draw (DrawOrdinals): exact k-subset uniformity,
// draw accounting, scratch reuse, and the edges of the stratified draw
// built on it (take-all, allocation 0, single-row strata, the row pass
// that maps each stratum's ordinals to its rows).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
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

// Upper 0.1% point of the chi-square distribution with `df` degrees of
// freedom (Wilson–Hilferty).
double ChiSquareCritical(double df) {
  const double z = 3.09;
  const double a = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - a + z * std::sqrt(a), 3.0);
}

TEST(DrawOrdinalsTest, EveryKSubsetAppearsAtTheUniformRate) {
  // Every one of the C(n, k) subsets must be drawn at rate 1 / C(n, k): a
  // sampler with the right inclusion probabilities but correlated pairs
  // fails here while passing a first-order inclusion test.
  struct Case {
    uint64_t n, k;
  };
  std::vector<uint64_t> bitmap;
  Rng rng(2024);
  for (const Case& c : {Case{4, 2}, Case{5, 2}, Case{6, 3}, Case{7, 4},
                        Case{8, 2}, Case{8, 5}}) {
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " k=" << c.k);
    const int reps = 30000;
    std::map<uint32_t, int> counts;  // subset as a bit mask -> draws
    std::vector<uint32_t> out(c.k);
    for (int rep = 0; rep < reps; ++rep) {
      ASSERT_EQ(DrawOrdinals(c.n, c.k, &rng, out.data(), &bitmap), c.k);
      uint32_t mask = 0;
      for (size_t i = 0; i < c.k; ++i) {
        ASSERT_LT(out[i], c.n);
        if (i > 0) {
          ASSERT_LT(out[i - 1], out[i]);  // ascending, distinct
        }
        mask |= 1u << out[i];
      }
      counts[mask]++;
    }
    uint64_t subsets = 1;  // C(n, k)
    for (uint64_t i = 0; i < c.k; ++i) subsets = subsets * (c.n - i) / (i + 1);
    ASSERT_EQ(counts.size(), subsets);
    const double expect = static_cast<double>(reps) / subsets;
    double chi2 = 0.0;
    for (const auto& [mask, seen] : counts) {
      chi2 += (seen - expect) * (seen - expect) / expect;
    }
    EXPECT_LT(chi2, ChiSquareCritical(static_cast<double>(subsets - 1)));
  }
}

TEST(DrawOrdinalsTest, InclusionIsUniformAcrossBitmapWords) {
  // 50 of 500 over an eight-word bitmap, 4000 repetitions: each ordinal is
  // included about 400 times (5-sigma band).
  const int n = 500, k = 50, reps = 4000;
  std::vector<int> hits(n, 0);
  std::vector<uint32_t> out(k);
  std::vector<uint64_t> bitmap;
  Rng rng(4);
  for (int rep = 0; rep < reps; ++rep) {
    DrawOrdinals(n, k, &rng, out.data(), &bitmap);
    for (uint32_t x : out) hits[x]++;
  }
  const double p = static_cast<double>(k) / n;
  const double sigma = std::sqrt(reps * p * (1 - p));
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(hits[i], reps * p, 5 * sigma) << "ordinal " << i;
  }
}

TEST(DrawOrdinalsTest, UsesExactlyKDraws) {
  // Floyd's algorithm: one Uniform(j + 1) call for each j in [n - k, n).
  const uint64_t n = 1000, k = 37;
  Rng rng(9), mirror(9);
  std::vector<uint32_t> out(k);
  std::vector<uint64_t> bitmap;
  DrawOrdinals(n, k, &rng, out.data(), &bitmap);
  for (uint64_t j = n - k; j < n; ++j) (void)mirror.Uniform(j + 1);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rng.Next64(), mirror.Next64());
}

TEST(DrawOrdinalsTest, TakeAllConsumesNoDraws) {
  // k >= n returns every ordinal and must not touch the rng: take-all
  // strata are draw-free by contract.
  for (uint64_t k : {3, 10}) {
    std::vector<uint32_t> out(k, 99);
    std::vector<uint64_t> bitmap;
    Rng rng(33), mirror(33);
    EXPECT_EQ(DrawOrdinals(3, k, &rng, out.data(), &bitmap), 3u);
    EXPECT_EQ(out[0], 0u);
    EXPECT_EQ(out[1], 1u);
    EXPECT_EQ(out[2], 2u);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(rng.Next64(), mirror.Next64());
  }
}

TEST(DrawOrdinalsTest, ZeroKAndZeroN) {
  Rng rng(41), mirror(41);
  std::vector<uint64_t> bitmap;
  uint32_t sink = 123;
  EXPECT_EQ(DrawOrdinals(100, 0, &rng, &sink, &bitmap), 0u);
  EXPECT_EQ(DrawOrdinals(0, 10, &rng, &sink, &bitmap), 0u);
  EXPECT_EQ(DrawOrdinals(0, 0, &rng, &sink, &bitmap), 0u);
  EXPECT_EQ(sink, 123u);  // nothing written
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rng.Next64(), mirror.Next64());
}

TEST(DrawOrdinalsTest, ScratchComesBackZeroedAndReusable) {
  // A reused scratch bitmap yields the same draws as a fresh one.
  std::vector<uint64_t> shared;
  for (uint64_t n : {700, 64, 5000, 129}) {
    Rng a(n), b(n);
    std::vector<uint32_t> x(n / 3), y(n / 3);
    std::vector<uint64_t> fresh;
    DrawOrdinals(n, n / 3, &a, x.data(), &shared);
    DrawOrdinals(n, n / 3, &b, y.data(), &fresh);
    EXPECT_EQ(x, y);
    EXPECT_TRUE(std::all_of(shared.begin(), shared.end(),
                            [](uint64_t w) { return w == 0; }));
  }
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

TEST(DrawStratifiedEdgeTest, EachStratumGetsTheRowsAtItsDrawnOrdinals) {
  // Stratum c's slab holds, in order, its rows of rank DrawOrdinals(n_c,
  // s_c) on Rng::ForStratum(master, c), where master is the caller's first
  // Next64(). Strata interleave in table order, so the row pass must rank
  // each row within its own stratum.
  Schema schema({{"g", DataType::kInt64}, {"v", DataType::kDouble}});
  TableBuilder b(schema);
  Rng gen(5);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_OK(b.AppendRow({Value(static_cast<int64_t>(gen.Uniform(7))),
                           Value(1.0)}));
  }
  Table t = std::move(b).Finish();
  ASSERT_OK_AND_ASSIGN(Stratification strat, Stratification::Build(t, {"g"}));
  auto shared = std::make_shared<Stratification>(std::move(strat));
  const size_t r = shared->num_strata();
  std::vector<std::vector<uint32_t>> members(r);
  for (uint32_t row = 0; row < t.num_rows(); ++row) {
    members[shared->StratumOfRow(row)].push_back(row);
  }
  std::vector<uint64_t> alloc(r);
  for (size_t c = 0; c < r; ++c) alloc[c] = c == 2 ? 100000 : 5 + 11 * c;

  Rng rng(91);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       DrawStratified(t, shared, alloc, "t", &rng));
  const uint64_t master = Rng(91).Next64();
  std::vector<uint32_t> expect;
  std::vector<uint64_t> bitmap;
  for (size_t c = 0; c < r; ++c) {
    const uint64_t n_c = members[c].size();
    const uint64_t s_c = std::min(alloc[c], n_c);
    std::vector<uint32_t> ords(s_c);
    Rng stream = Rng::ForStratum(master, c);
    DrawOrdinals(n_c, s_c, &stream, ords.data(), &bitmap);
    for (uint32_t o : ords) expect.push_back(members[c][o]);
  }
  EXPECT_EQ(s.rows(), expect);
  EXPECT_EQ(s.stratum_exhaustive()[2], 1);  // take-all
}

}  // namespace
}  // namespace cvopt
