// ErrorReport: per-group relative errors of an approximate answer against
// the exact one, with the summary statistics the paper reports (maximum,
// average, median, percentiles).
#ifndef CVOPT_ESTIMATE_ERROR_REPORT_H_
#define CVOPT_ESTIMATE_ERROR_REPORT_H_

#include <string>
#include <vector>

#include "src/exec/query_result.h"

namespace cvopt {

/// Summary of |approx - exact| / |exact| across all (group, aggregate)
/// answers of a query.
struct ErrorReport {
  /// One relative error per (group, aggregate) pair of the exact result.
  /// Groups missing from the approximate answer are charged 100% error
  /// (matching the paper: "Uniform has largest error of 100%, as some
  /// groups are absent").
  std::vector<double> errors;
  /// How many exact groups were missing from the approximate result.
  size_t missing_groups = 0;
  /// Ground-truth answers whose value is ~0 are skipped (relative error is
  /// undefined); count of skipped answers.
  size_t skipped_zero_truth = 0;
  /// Strata the sample served exactly — DrawStratified's take-all path,
  /// including its silent clamp of over-population allocations — out of
  /// the sample's total strata. Answers confined to exhaustive strata are
  /// exact, not estimates, so acceptance tests use these counts to tell
  /// genuinely sampled error from trivially-zero error. Both stay 0 when
  /// the comparison was not given a sample (plain CompareResults).
  size_t exhaustive_strata = 0;
  size_t total_strata = 0;
  /// Strata the draw skipped under a governance deadline with allow_partial
  /// set (DrawStratified's partial-draw degradation): answers over them are
  /// missing, not estimated. 0 for complete draws.
  size_t degraded_strata = 0;

  double MaxError() const;
  double AvgError() const;
  /// p in [0, 1]; Percentile(0.5) is the median (linear interpolation).
  double Percentile(double p) const;

  std::string ToString() const;
};

/// Compares the approximate result to the exact one. Per-aggregate errors:
/// the two results must have the same grouping attributes and aggregate
/// count (aggregate labels are not checked so renamed joins still compare).
Result<ErrorReport> CompareResults(const QueryResult& exact,
                                   const QueryResult& approx);

/// Merges multiple reports into one pooled report (for multi-query tables
/// like Table 4 / Table 5 of the paper).
ErrorReport MergeReports(const std::vector<ErrorReport>& reports);

}  // namespace cvopt

#endif  // CVOPT_ESTIMATE_ERROR_REPORT_H_
