// Statistical acceptance tests for the stratified draw phase — the
// correctness story of the splittable per-stratum RNG streams. The paper's
// estimator guarantees are properties of per-stratum inclusion
// probabilities, not of draw order (Nirkhiwale et al.'s sampling algebra),
// which is exactly what licenses splitting the RNG; these tests pin that
// property directly:
//   * per-stratum sample sizes match the allocation exactly,
//   * within every stratum, row inclusion probabilities are uniform
//     (chi-square over repeated seeded draws at the 0.999 level), and
//   * approximate AVG answers stay inside their CLT error bounds at high
//     confidence (via error_report against the exact executor),
// each across the OpenAQ / TPC-H / Bikes generators.
//
// Every repetition draws with a distinct fixed seed, so the suite is fully
// deterministic: thresholds sit at the 0.999 quantile (plus small slack for
// the chi-square approximation), and a pass is reproducible bit for bit.
// The chi-square repetitions dominate the runtime; ctest labels this binary
// "slow" so tools/run_tests.sh can skip it in the default tier-1 lap
// (opt back in with --slow).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/core/cvopt_allocator.h"
#include "src/core/stratification.h"
#include "src/datagen/bikes_gen.h"
#include "src/datagen/openaq_gen.h"
#include "src/datagen/tpch_gen.h"
#include "src/estimate/approx_executor.h"
#include "src/estimate/error_report.h"
#include "src/exec/group_by_executor.h"
#include "src/sample/cvopt_sampler.h"
#include "src/sample/sampler.h"
#include "src/stats/stats_collector.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

// Chi-square quantile via the Wilson–Hilferty cube approximation — accurate
// to a fraction of a percent for the dof sizes used here (>= ~30).
double ChiSquareQuantile(double dof, double z) {
  const double a = 2.0 / (9.0 * dof);
  const double c = 1.0 - a + z * std::sqrt(a);
  return dof * c * c * c;
}

constexpr double kZ999 = 3.090232306167813;  // standard normal 0.999 quantile

struct GeneratorCase {
  const char* name;
  Table table;
  std::vector<std::string> strat_attrs;
  const char* value_column;
};

std::vector<GeneratorCase> MakeGenerators() {
  std::vector<GeneratorCase> cases;
  {
    OpenAqOptions o;
    o.num_rows = 20000;
    cases.push_back({"openaq", GenerateOpenAq(o), {"country"}, "value"});
  }
  {
    TpchOptions o;
    o.num_rows = 20000;
    cases.push_back({"tpch",
                     GenerateTpchLineitem(o),
                     {"returnflag", "linestatus"},
                     "extendedprice"});
  }
  {
    BikesOptions o;
    o.num_rows = 20000;
    cases.push_back({"bikes", GenerateBikes(o), {"gender"}, "trip_duration"});
  }
  return cases;
}

// An allocation exercising every edge the draw phase supports: roughly 1/8
// sampling for large strata, and take-all for strata below the cutoff.
std::vector<uint64_t> EighthAllocation(const Stratification& strat) {
  std::vector<uint64_t> alloc(strat.num_strata());
  for (size_t c = 0; c < alloc.size(); ++c) {
    alloc[c] = std::max<uint64_t>(1, strat.sizes()[c] / 8);
  }
  return alloc;
}

TEST(SamplingStatisticsTest, PerStratumSizesMatchAllocationExactly) {
  for (auto& g : MakeGenerators()) {
    ASSERT_OK_AND_ASSIGN(Stratification strat,
                         Stratification::Build(g.table, g.strat_attrs));
    auto shared = std::make_shared<Stratification>(std::move(strat));
    const size_t r = shared->num_strata();
    // Mix of regimes: stratum 0 take-all (allocation == population), the
    // rest 1/8 with a zero-allocation stratum thrown in.
    std::vector<uint64_t> alloc = EighthAllocation(*shared);
    alloc[0] = shared->sizes()[0];
    if (r > 2) alloc[r / 2] = 0;
    Rng rng(2024);
    ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                         DrawStratified(g.table, shared, alloc, "t", &rng));
    std::vector<uint64_t> counted(r, 0);
    for (uint32_t row : s.rows()) counted[shared->StratumOfRow(row)]++;
    for (size_t c = 0; c < r; ++c) {
      const uint64_t expect = std::min<uint64_t>(alloc[c], shared->sizes()[c]);
      EXPECT_EQ(counted[c], expect) << g.name << " stratum " << c;
    }
    // Drawn rows are distinct and stratum-consistent by construction.
    std::vector<uint32_t> sorted(s.rows());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << g.name << ": duplicate row drawn";
  }
}

TEST(SamplingStatisticsTest, InclusionProbabilityUniformWithinStrata) {
  // For SRSWOR of s_c from n_c, every row's inclusion probability is
  // p = s_c / n_c and the Pearson statistic over per-row hit counts,
  // rescaled by 1/(1-p) for the without-replacement marginal variance
  // p(1-p), is approximately chi-square with n_c - 1 dof. Assert at the
  // 0.999 quantile (5% slack for the approximation) per stratum.
  const int kReps = 600;
  for (auto& g : MakeGenerators()) {
    ASSERT_OK_AND_ASSIGN(Stratification strat,
                         Stratification::Build(g.table, g.strat_attrs));
    auto shared = std::make_shared<Stratification>(std::move(strat));
    const size_t r = shared->num_strata();
    const std::vector<uint64_t> alloc = EighthAllocation(*shared);

    std::vector<uint32_t> hits(g.table.num_rows(), 0);
    for (int rep = 0; rep < kReps; ++rep) {
      Rng rng(90000 + rep);
      ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                           DrawStratified(g.table, shared, alloc, "t", &rng));
      for (uint32_t row : s.rows()) hits[row]++;
    }

    // Per-stratum Pearson statistic over that stratum's rows.
    std::vector<double> x2(r, 0.0);
    for (size_t row = 0; row < g.table.num_rows(); ++row) {
      const uint32_t c = shared->StratumOfRow(row);
      const double p = static_cast<double>(alloc[c]) /
                       static_cast<double>(shared->sizes()[c]);
      const double e = kReps * p;
      const double d = static_cast<double>(hits[row]) - e;
      x2[c] += d * d / e;
    }
    size_t tested = 0;
    for (size_t c = 0; c < r; ++c) {
      const uint64_t n_c = shared->sizes()[c];
      const uint64_t s_c = alloc[c];
      // Take-all and tiny strata carry no randomness worth a chi-square.
      if (s_c >= n_c || n_c < 64) continue;
      const double p = static_cast<double>(s_c) / static_cast<double>(n_c);
      const double statistic = x2[c] / (1.0 - p);
      const double bound =
          1.05 * ChiSquareQuantile(static_cast<double>(n_c - 1), kZ999);
      EXPECT_LT(statistic, bound)
          << g.name << " stratum " << c << " (n=" << n_c << ", s=" << s_c
          << ")";
      ++tested;
    }
    EXPECT_GT(tested, 0u) << g.name;
  }
}

TEST(SamplingStatisticsTest, ApproxErrorsWithinCltBoundsAtConfidence) {
  // Stratified-uniform draws make the per-group AVG estimator a stratum
  // SRSWOR mean: Var = (1 - s/n) * sigma^2 / s (population sigma, finite-
  // population correction). Across repetitions and groups, the observed
  // relative error from error_report should exceed the 99.9% CLT bound
  // essentially never; allow 1% of answers for CLT approximation on small
  // strata. Groups here coincide with strata (group-by == stratification
  // attrs), so exact-result group order aligns with stratum order.
  const int kReps = 20;
  for (auto& g : MakeGenerators()) {
    QuerySpec q;
    q.group_by = g.strat_attrs;
    q.aggregates = {AggSpec::Avg(g.value_column)};

    ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(g.table, q));
    ASSERT_OK_AND_ASSIGN(Stratification strat,
                         Stratification::Build(g.table, g.strat_attrs));
    auto shared = std::make_shared<Stratification>(std::move(strat));
    ASSERT_OK_AND_ASSIGN(const Column* vcol,
                         g.table.ColumnByName(g.value_column));
    StatSource src;
    src.column = vcol;
    ASSERT_OK_AND_ASSIGN(GroupStatsTable stats,
                         CollectGroupStats(*shared, {src}));
    const std::vector<uint64_t> alloc = EighthAllocation(*shared);
    ASSERT_EQ(exact.num_groups(), shared->num_strata());

    size_t answers = 0, violations = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      Rng rng(77000 + rep);
      ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                           DrawStratified(g.table, shared, alloc, "t", &rng));
      ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, q));
      ASSERT_OK_AND_ASSIGN(ErrorReport report, CompareResults(exact, approx));
      ASSERT_EQ(report.missing_groups, 0u) << g.name;
      ASSERT_EQ(report.skipped_zero_truth, 0u) << g.name;
      ASSERT_EQ(report.errors.size(), exact.num_groups()) << g.name;
      for (size_t c = 0; c < exact.num_groups(); ++c) {
        const double n_c = static_cast<double>(shared->sizes()[c]);
        const double s_c =
            static_cast<double>(std::min<uint64_t>(alloc[c], shared->sizes()[c]));
        const double mu = exact.value(c, 0);
        if (s_c >= n_c) {
          // Take-all strata answer exactly.
          EXPECT_LT(report.errors[c], 1e-9) << g.name << " stratum " << c;
          continue;
        }
        const double sigma = stats.At(c, 0).stddev_population();
        const double var = (1.0 - s_c / n_c) * sigma * sigma / s_c;
        const double bound = kZ999 * std::sqrt(var) / std::fabs(mu);
        ++answers;
        if (report.errors[c] > bound) ++violations;
      }
    }
    EXPECT_LT(static_cast<double>(violations),
              0.01 * static_cast<double>(answers) + 2.0)
        << g.name << ": " << violations << " of " << answers
        << " answers outside the 99.9% CLT bound";
  }
}

TEST(SamplingStatisticsTest, EndToEndSamplersHonorAllocationSizes) {
  // The sampler entry points hand DrawStratified their allocation in
  // stratification order; the realized per-stratum sizes must equal the
  // planned ones exactly.
  Table t = MakeSkewedTable(8, 150, /*seed=*/5);
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Avg("v")};

  CvoptSampler cvopt;
  ASSERT_OK_AND_ASSIGN(AllocationPlan plan, cvopt.Plan(t, {q}, 600));
  Rng rng(31337);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, cvopt.Build(t, {q}, 600, &rng));
  ASSERT_NE(s.stratification(), nullptr);
  std::vector<uint64_t> counted(plan.strat->num_strata(), 0);
  for (uint32_t row : s.rows()) {
    counted[s.stratification()->StratumOfRow(row)]++;
  }
  for (size_t c = 0; c < counted.size(); ++c) {
    EXPECT_EQ(counted[c], plan.allocation.sizes[c]) << "stratum " << c;
  }
}

}  // namespace
}  // namespace cvopt
