// Shared harness for the experiment binaries: the paper's datasets, its
// query workload (AQ1..AQ8, B1..B4 from the appendix), the sampler roster,
// and repetition/averaging/printing helpers. Every bench binary regenerates
// one paper table or figure (see DESIGN.md §2 and EXPERIMENTS.md).
#ifndef CVOPT_BENCH_HARNESS_H_
#define CVOPT_BENCH_HARNESS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/aqp/engine.h"
#include "src/datagen/bikes_gen.h"
#include "src/datagen/openaq_gen.h"
#include "src/estimate/error_report.h"
#include "src/exec/cube.h"
#include "src/exec/result_join.h"
#include "src/sample/congress_sampler.h"
#include "src/sample/cvopt_sampler.h"
#include "src/sample/rl_sampler.h"
#include "src/sample/sample_seek_sampler.h"
#include "src/sample/uniform_sampler.h"
#include "src/util/string_util.h"

namespace cvopt {
namespace bench {

/// Default dataset sizes. The paper ran 200M-row OpenAQ and 11.5M-row Bikes
/// on a Hadoop cluster; these laptop-scale defaults preserve the group
/// structure (38 countries x 7 parameters; 619 stations x 3 years).
inline constexpr uint64_t kOpenAqRows = 2'000'000;
inline constexpr uint64_t kBikesRows = 1'000'000;

/// Cached synthetic datasets (generated once per process).
const Table& OpenAq();
const Table& Bikes();

// ---- OpenAQ queries (paper appendix) -------------------------------------

/// AQ1 (one year's half): per-country AVG(value) and COUNT_IF(value > 0.04)
/// for parameter 'bc' in `year`. The full AQ1 is the per-country difference
/// of the 2018 and 2017 halves (see Aq1Diff).
QuerySpec Aq1Year(int year);

/// The sampling-target (predicate-free) version of AQ1's aggregates.
QuerySpec Aq1BuildTarget();

/// AQ2: SELECT country, parameter, unit, SUM(value), COUNT(*) GROUP BY ...
QuerySpec Aq2();

/// AQ3: AVG(value) by (country, parameter, unit); WHERE hour BETWEEN lo, hi.
/// Defaults reproduce the paper's trivially-true 0..24 predicate. The
/// variants AQ3.a/b/c use 0..5 / 0..11 / 0..17 (25% / 50% / 75%).
QuerySpec Aq3(int hour_lo = 0, int hour_hi = 24);

/// AQ4: AVG(value) WHERE parameter = 'co' GROUP BY country, month, year.
QuerySpec Aq4();

/// AQ5: AVG(value) by (country, parameter, unit) WHERE latitude > 0.
QuerySpec Aq5();

/// AQ6: COUNT_IF(value > 0.5) by (parameter, unit) WHERE country = 'C05'.
QuerySpec Aq6();

/// AQ7: SUM(value) GROUP BY country, parameter WITH CUBE (base query).
QuerySpec Aq7Base();

/// AQ8: SUM(value), SUM(latitude) GROUP BY country, parameter WITH CUBE.
QuerySpec Aq8Base();

// ---- Bikes queries --------------------------------------------------------

/// B1: AVG(age), AVG(trip_duration) by from_station_id WHERE age > 0.
QuerySpec B1();

/// B2: AVG(trip_duration) by from_station_id; optional hour predicate for
/// the B2.a/b/c selectivity variants (hour 0..5 / 0..11 / 0..17).
QuerySpec B2(int hour_lo = 0, int hour_hi = 24);

/// B3: SUM(trip_duration) GROUP BY from_station_id, year WITH CUBE
///     WHERE age > 0.
QuerySpec B3Base();

/// B4: SUM(trip_duration), SUM(age) GROUP BY from_station_id, year WITH CUBE.
QuerySpec B4Base();

// ---- Samplers -------------------------------------------------------------

/// The paper's method roster, in its reporting order.
struct Method {
  std::string name;
  std::unique_ptr<Sampler> sampler;
};
std::vector<Method> PaperMethods(bool include_sample_seek);

// ---- Evaluation -----------------------------------------------------------

/// Pooled error statistics of one method on a set of evaluation queries,
/// averaged over independent sample draws.
struct EvalStats {
  double max_err = 0;
  double avg_err = 0;
  double median = 0;
  double p90 = 0;
  double p99 = 0;
  double missing = 0;
};

/// Builds a `rate` sample tuned for `build_queries` with `sampler`, answers
/// every query in `eval_queries` from it, pools the per-answer errors, and
/// averages the summary statistics over `reps` independent draws — the
/// paper's protocol ("each reported result is the average of 5 identical
/// and independent repetitions").
EvalStats Evaluate(const Table& table, const Sampler& sampler,
                   const std::vector<QuerySpec>& build_queries,
                   const std::vector<QuerySpec>& eval_queries, double rate,
                   int reps, uint64_t seed);

/// Like Evaluate but for AQ1: computes the 2018-2017 per-country differences
/// exactly and from the sample, and compares those.
EvalStats EvaluateAq1(const Table& table, const Sampler& sampler, double rate,
                      int reps, uint64_t seed);

/// Per-percentile averaged errors for Fig 6 (CVOPT vs CVOPT-INF).
std::vector<double> PercentileProfile(const Table& table,
                                      const Sampler& sampler,
                                      const QuerySpec& query, double rate,
                                      const std::vector<double>& percentiles,
                                      int reps, uint64_t seed);

// ---- Reporting ------------------------------------------------------------

/// Prints "name: 12.34%"-style aligned rows.
void PrintHeader(const std::string& title);
void PrintRow(const std::string& label, const std::vector<std::string>& cells);
std::string Pct(double fraction);

}  // namespace bench
}  // namespace cvopt

#endif  // CVOPT_BENCH_HARNESS_H_
