// Golden-digest determinism tests for the sampling layer. The contract:
// for a fixed seed, every sampler's drawn row-id set is a pure function of
// the seed — independent of CVOPT_THREADS (ExecOptions::num_threads), the
// morsel grain, and any scheduler interleaving. Each sampler's digest is
// compared across thread counts {1, 2, 3, 8} AND against a checked-in
// golden value, so a future scheduler change that silently reshuffles
// samples (re-ranking a stratum's rows, re-chunking the statistics pass,
// perturbing an allocation by one row) fails loudly here.
//
// The input table is built from integer arithmetic only (values are
// integer-valued doubles, no transcendental functions), so every statistic
// feeding the CVOPT/RL allocations is an exact IEEE computation and the
// digests are stable wherever IEEE doubles are.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/exec/parallel.h"
#include "src/sample/congress_sampler.h"
#include "src/sample/cvopt_sampler.h"
#include "src/sample/rl_sampler.h"
#include "src/sample/streaming_cvopt_sampler.h"
#include "src/sample/uniform_sampler.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

// FNV-1a over the sorted row ids: a digest of the drawn row-id *set*
// (assembly order is already pinned by the stratum-major layout, but the
// set is the statistical object the contract protects).
uint64_t DigestRows(std::vector<uint32_t> rows) {
  std::sort(rows.begin(), rows.end());
  uint64_t h = 1469598103934665603ULL;
  for (uint32_t r : rows) {
    h = (h ^ r) * 1099511628211ULL;
  }
  return h;
}

// 6600 rows, 10 x 5 strata with sizes 24*(g+1), integer-valued doubles.
const Table& DigestTable() {
  static const Table* t = [] {
    Schema schema({{"g", DataType::kString},
                   {"h", DataType::kInt64},
                   {"v", DataType::kDouble}});
    TableBuilder b(schema);
    Rng gen(101);
    for (int g = 0; g < 10; ++g) {
      const std::string label = "g" + std::to_string(g);
      const int n = (g + 1) * 120;
      for (int i = 0; i < n; ++i) {
        const int64_t h = static_cast<int64_t>(i % 5);
        // Integer-valued doubles with per-group mean 100*(g+1) and spread
        // growing for small groups — skew without transcendentals.
        const double v = static_cast<double>(
            100 * (g + 1) +
            static_cast<int64_t>(gen.Uniform(40 * (10 - g))) - 20 * (10 - g));
        CVOPT_CHECK(b.AppendRow({Value(label), Value(h), Value(v)}).ok(),
                    "append failed");
      }
    }
    return new Table(std::move(b).Finish());
  }();
  return *t;
}

QuerySpec DigestQuery() {
  QuerySpec q;
  q.group_by = {"g", "h"};
  q.aggregates = {AggSpec::Avg("v")};
  return q;
}

struct GoldenCase {
  const char* name;
  const Sampler* sampler;
  uint64_t golden;
};

uint64_t BuildDigest(const Sampler& sampler, int threads) {
  ScopedExecThreads scope(threads);
  Rng rng(424242);
  auto s = sampler.Build(DigestTable(), {DigestQuery()}, 660, &rng);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return DigestRows(s->rows());
}

TEST(SamplingDeterminismTest, DigestsMatchAcrossThreadCountsAndGoldens) {
  static const UniformSampler uniform;
  static const CongressSampler congress;
  static const RlSampler rl;
  static const CvoptSampler cvopt;
  static const StreamingCvoptSampler streaming(/*replan_interval=*/500);
  const GoldenCase cases[] = {
      {"Uniform", &uniform, 0xf68c4cc45fc8f181ULL},
      {"Congress", &congress, 0xf8f0448554bf9502ULL},
      {"RL", &rl, 0xfd67214f05e8d12dULL},
      {"CVOPT", &cvopt, 0xbed7ded3ce7161a5ULL},
      {"CVOPT-STREAM", &streaming, 0xe5e81e3ea313dcebULL},
  };
  for (const GoldenCase& c : cases) {
    const uint64_t serial = BuildDigest(*c.sampler, 1);
    for (int threads : {2, 3, 8}) {
      EXPECT_EQ(BuildDigest(*c.sampler, threads), serial)
          << c.name << " reshuffled at " << threads << " threads";
    }
    EXPECT_EQ(serial, c.golden)
        << c.name << ": drawn row set changed for a fixed seed; if the new "
        << "sampling behaviour is intended, repin the golden to 0x" << std::hex
        << serial;
  }
}

TEST(SamplingDeterminismTest, DigestIndependentOfMorselGrain) {
  // Chunk boundaries must never leak into the draw: sweep the grain from
  // per-row morsels to a single chunk.
  static const CvoptSampler cvopt;
  uint64_t first = 0;
  bool have_first = false;
  for (size_t grain : {size_t{1}, size_t{64}, size_t{512}, size_t{100000}}) {
    ScopedExecThreads scope(8, grain);
    Rng rng(424242);
    auto s = cvopt.Build(DigestTable(), {DigestQuery()}, 660, &rng);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    const uint64_t d = DigestRows(s->rows());
    if (!have_first) {
      first = d;
      have_first = true;
    } else {
      EXPECT_EQ(d, first) << "grain " << grain;
    }
  }
}

TEST(SamplingDeterminismTest, RepeatedBuildsFromSameSeedAreIdentical) {
  // Rows AND weights, in emission order — the full artifact, not just the
  // set digest.
  static const CongressSampler congress;
  ScopedExecThreads scope(3);
  Rng rng1(777);
  Rng rng2(777);
  ASSERT_OK_AND_ASSIGN(
      StratifiedSample a,
      congress.Build(DigestTable(), {DigestQuery()}, 500, &rng1));
  ASSERT_OK_AND_ASSIGN(
      StratifiedSample b,
      congress.Build(DigestTable(), {DigestQuery()}, 500, &rng2));
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.weights(), b.weights());
}

TEST(RngForStratumTest, PureFunctionOfSeedAndStratum) {
  Rng a = Rng::ForStratum(42, 7);
  Rng b = Rng::ForStratum(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngForStratumTest, DistinctStrataYieldDistinctStreams) {
  // Sibling streams from one seed must differ pairwise (first outputs all
  // distinct across a wide id range, including huge ids).
  std::vector<uint64_t> firsts;
  for (uint64_t id : {0ULL, 1ULL, 2ULL, 1000ULL, 1ULL << 32, ~0ULL}) {
    firsts.push_back(Rng::ForStratum(9, id).Next64());
  }
  std::sort(firsts.begin(), firsts.end());
  EXPECT_TRUE(std::adjacent_find(firsts.begin(), firsts.end()) ==
              firsts.end());
}

TEST(RngForStratumTest, DerivationDoesNotTouchParent) {
  Rng parent(5);
  Rng mirror(5);
  (void)Rng::ForStratum(123, 4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(parent.Next64(), mirror.Next64());
}

}  // namespace
}  // namespace cvopt
