// End-to-end integration tests reproducing the paper's qualitative claims
// at test scale: CVOPT beats Uniform on max error and matches Congress on
// average error for skewed data, samples are reusable across predicates,
// and CVOPT-INF trades median error for max error.
#include <gtest/gtest.h>

#include <cmath>

#include "src/aqp/engine.h"
#include "src/datagen/openaq_gen.h"
#include "src/sample/congress_sampler.h"
#include "src/sample/cvopt_sampler.h"
#include "src/sample/rl_sampler.h"
#include "src/sample/uniform_sampler.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

class IntegrationTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    OpenAqOptions opts;
    opts.num_rows = 200000;
    table_ = new Table(GenerateOpenAq(opts));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  static QuerySpec Aq3Like() {
    QuerySpec q;
    q.name = "AQ3";
    q.group_by = {"country", "parameter"};
    q.aggregates = {AggSpec::Avg("value")};
    return q;
  }

  struct RepStats {
    double max_err = 0;
    double avg_err = 0;
    double median = 0;
    double missing = 0;
  };

  // Average of `reps` independent sample draws, mirroring the paper's
  // "average of 5 identical and independent repetitions".
  static RepStats AveragedErrors(const Sampler& sampler,
                                 const std::vector<QuerySpec>& build_queries,
                                 double rate, const QuerySpec& eval_query,
                                 int reps, uint64_t seed) {
    RepStats out;
    for (int rep = 0; rep < reps; ++rep) {
      AqpEngine engine(table_, seed + rep);
      Status st = engine.BuildSample("s", sampler, build_queries, rate);
      CVOPT_CHECK(st.ok(), "build failed");
      auto rep_result = engine.Evaluate("s", eval_query);
      CVOPT_CHECK(rep_result.ok(), "evaluate failed");
      out.max_err += rep_result->MaxError() / reps;
      out.avg_err += rep_result->AvgError() / reps;
      out.median += rep_result->Percentile(0.5) / reps;
      out.missing += static_cast<double>(rep_result->missing_groups) / reps;
    }
    return out;
  }

  static Table* table_;
};

Table* IntegrationTest::table_ = nullptr;

TEST_F(IntegrationTest, CvoptBeatsUniformOnMaxError) {
  AqpEngine engine(table_, 1);
  CvoptSampler cvopt;
  UniformSampler uniform;
  const QuerySpec q = Aq3Like();
  ASSERT_OK(engine.BuildSample("cvopt", cvopt, {q}, 0.01));
  ASSERT_OK(engine.BuildSample("uniform", uniform, {q}, 0.01));
  ASSERT_OK_AND_ASSIGN(ErrorReport cvopt_rep, engine.Evaluate("cvopt", q));
  ASSERT_OK_AND_ASSIGN(ErrorReport uni_rep, engine.Evaluate("uniform", q));
  EXPECT_LT(cvopt_rep.MaxError(), uni_rep.MaxError())
      << "CVOPT: " << cvopt_rep.ToString() << "\nUniform: " << uni_rep.ToString();
  // Uniform misses small groups at 1%.
  EXPECT_GT(uni_rep.missing_groups, 0u);
  EXPECT_EQ(cvopt_rep.missing_groups, 0u);
}

TEST_F(IntegrationTest, CvoptAtLeastMatchesCongress) {
  CvoptSampler cvopt;
  CongressSampler congress;
  const QuerySpec q = Aq3Like();
  const RepStats c = AveragedErrors(cvopt, {q}, 0.01, q, 5, 200);
  const RepStats g = AveragedErrors(congress, {q}, 0.01, q, 5, 200);
  // Averaged over draws, CVOPT's average error should not be meaningfully
  // worse than the frequency-only baseline (it optimizes the l2 of CVs,
  // so the realized *max* remains noisy on heavy-tailed data).
  EXPECT_LT(c.avg_err, g.avg_err * 1.15);
}

TEST_F(IntegrationTest, SampleReusableAcrossPredicates) {
  CvoptSampler cvopt;
  const QuerySpec q = Aq3Like();
  // Same sample answers a 50%-selectivity variant it was not built for.
  QuerySpec filtered = q;
  filtered.where = Predicate::Between("hour", 0, 11);
  const RepStats rep = AveragedErrors(cvopt, {q}, 0.02, filtered, 5, 300);
  EXPECT_LT(rep.median, 0.35);
  EXPECT_LT(rep.avg_err, 0.6);
}

TEST_F(IntegrationTest, ErrorDecreasesWithSampleRate) {
  AqpEngine engine(table_, 4);
  CvoptSampler cvopt;
  const QuerySpec q = Aq3Like();
  ASSERT_OK(engine.BuildSample("small", cvopt, {q}, 0.002));
  ASSERT_OK(engine.BuildSample("large", cvopt, {q}, 0.05));
  ASSERT_OK_AND_ASSIGN(ErrorReport small, engine.Evaluate("small", q));
  ASSERT_OK_AND_ASSIGN(ErrorReport large, engine.Evaluate("large", q));
  EXPECT_LT(large.AvgError(), small.AvgError());
}

TEST_F(IntegrationTest, CvoptInfLowersMaxVsMedianTradeoff) {
  // On a SASG query, CVOPT-INF should not have a much larger average max
  // error than CVOPT (Section 6.6; per-draw maxima are noisy on
  // heavy-tailed data, so compare 5-rep averages with slack).
  QuerySpec q;
  q.name = "sasg";
  q.group_by = {"country"};
  q.aggregates = {AggSpec::Avg("value")};
  CvoptSampler l2;
  AllocatorOptions inf_opts;
  inf_opts.norm = CvNorm::kLinf;
  CvoptSampler linf(inf_opts);
  const RepStats r2 = AveragedErrors(l2, {q}, 0.01, q, 5, 500);
  const RepStats ri = AveragedErrors(linf, {q}, 0.01, q, 5, 500);
  EXPECT_LT(ri.max_err, r2.max_err * 2.0 + 0.10);
  // Both cover every group.
  EXPECT_DOUBLE_EQ(ri.missing, 0.0);
  EXPECT_DOUBLE_EQ(r2.missing, 0.0);
}

TEST_F(IntegrationTest, MasgJointOptimization) {
  // AQ2-like: multiple aggregates sharing a group-by.
  AqpEngine engine(table_, 6);
  QuerySpec q;
  q.name = "AQ2";
  q.group_by = {"country", "parameter", "unit"};
  q.aggregates = {AggSpec::Sum("value"), AggSpec::Count()};
  CvoptSampler cvopt;
  UniformSampler uniform;
  ASSERT_OK(engine.BuildSample("cvopt", cvopt, {q}, 0.01));
  ASSERT_OK(engine.BuildSample("uniform", uniform, {q}, 0.01));
  ASSERT_OK_AND_ASSIGN(ErrorReport c, engine.Evaluate("cvopt", q));
  ASSERT_OK_AND_ASSIGN(ErrorReport u, engine.Evaluate("uniform", q));
  EXPECT_LT(c.MaxError(), u.MaxError());
}

TEST_F(IntegrationTest, MamgFinestStratificationServesBothQueries) {
  AqpEngine engine(table_, 7);
  QuerySpec q1;
  q1.group_by = {"country"};
  q1.aggregates = {AggSpec::Avg("value")};
  QuerySpec q2;
  q2.group_by = {"parameter"};
  q2.aggregates = {AggSpec::Avg("latitude")};
  CvoptSampler cvopt;
  ASSERT_OK(engine.BuildSample("joint", cvopt, {q1, q2}, 0.01));
  ASSERT_OK_AND_ASSIGN(ErrorReport r1, engine.Evaluate("joint", q1));
  ASSERT_OK_AND_ASSIGN(ErrorReport r2, engine.Evaluate("joint", q2));
  EXPECT_EQ(r1.missing_groups, 0u);
  EXPECT_EQ(r2.missing_groups, 0u);
  EXPECT_LT(r1.AvgError(), 0.15);
  EXPECT_LT(r2.AvgError(), 0.15);
}

TEST_F(IntegrationTest, WeightedAggregateShiftsAccuracy) {
  // Fig 2's mechanism: boosting one aggregate's weight lowers its error
  // relative to a run where the other aggregate is boosted.
  AqpEngine engine(table_, 8);
  QuerySpec favor_first;
  favor_first.group_by = {"country"};
  favor_first.aggregates = {AggSpec::Avg("value", 0.9),
                            AggSpec::Avg("latitude", 0.1)};
  QuerySpec favor_second;
  favor_second.group_by = {"country"};
  favor_second.aggregates = {AggSpec::Avg("value", 0.1),
                             AggSpec::Avg("latitude", 0.9)};
  CvoptSampler cvopt;
  ASSERT_OK(engine.BuildSample("w1", cvopt, {favor_first}, 0.005));
  ASSERT_OK(engine.BuildSample("w2", cvopt, {favor_second}, 0.005));

  QuerySpec eval;  // unweighted evaluation query, same shape
  eval.group_by = {"country"};
  eval.aggregates = {AggSpec::Avg("value"), AggSpec::Avg("latitude")};
  ASSERT_OK_AND_ASSIGN(QueryResult exact, engine.AnswerExact(eval));
  auto err_of = [&](const std::string& sample, size_t agg) -> double {
    auto approx = engine.AnswerApprox(sample, eval);
    CVOPT_CHECK(approx.ok(), "approx failed");
    double total = 0;
    size_t n = 0;
    const auto matched = MatchedGroups(exact, *approx);
    for (size_t i = 0; i < exact.num_groups(); ++i) {
      const auto j = matched[i];
      if (!j.has_value()) continue;
      const double truth = exact.value(i, agg);
      if (std::fabs(truth) < 1e-9) continue;
      total += std::fabs(approx->value(*j, agg) - truth) / std::fabs(truth);
      n++;
    }
    return total / static_cast<double>(n);
  };
  // Favoring "value" must make value's error smaller than when defavored.
  EXPECT_LT(err_of("w1", 0), err_of("w2", 0));
}

}  // namespace
}  // namespace cvopt
