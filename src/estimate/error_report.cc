#include "src/estimate/error_report.h"

#include <algorithm>
#include <cmath>

#include "src/util/string_util.h"

namespace cvopt {

double ErrorReport::MaxError() const {
  double m = 0.0;
  for (double e : errors) m = std::max(m, e);
  return m;
}

double ErrorReport::AvgError() const {
  if (errors.empty()) return 0.0;
  double s = 0.0;
  for (double e : errors) s += e;
  return s / static_cast<double>(errors.size());
}

double ErrorReport::Percentile(double p) const {
  if (errors.empty()) return 0.0;
  std::vector<double> sorted = errors;
  std::sort(sorted.begin(), sorted.end());
  p = std::clamp(p, 0.0, 1.0);
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = static_cast<size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::string ErrorReport::ToString() const {
  std::string out = StrFormat(
      "errors over %zu answers: max=%.2f%% avg=%.2f%% median=%.2f%% "
      "(missing groups: %zu, zero-truth skipped: %zu)",
      errors.size(), MaxError() * 100, AvgError() * 100,
      Percentile(0.5) * 100, missing_groups, skipped_zero_truth);
  if (total_strata > 0) {
    out += StrFormat(" [strata served exactly: %zu/%zu]", exhaustive_strata,
                     total_strata);
  }
  if (degraded_strata > 0) {
    out += StrFormat(" [strata skipped by deadline: %zu]", degraded_strata);
  }
  return out;
}

Result<ErrorReport> CompareResults(const QueryResult& exact,
                                   const QueryResult& approx) {
  if (exact.num_aggregates() != approx.num_aggregates()) {
    return Status::InvalidArgument(
        StrFormat("aggregate count mismatch: exact=%zu approx=%zu",
                  exact.num_aggregates(), approx.num_aggregates()));
  }
  CVOPT_ASSIGN_OR_RETURN(std::vector<size_t> match,
                         MatchGroups(exact, approx));
  ErrorReport report;
  const size_t t = exact.num_aggregates();
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    if (match[i] == kNoGroup) {
      report.missing_groups++;
      for (size_t a = 0; a < t; ++a) {
        const double truth = exact.value(i, a);
        if (std::fabs(truth) < 1e-12) {
          report.skipped_zero_truth++;
        } else {
          report.errors.push_back(1.0);  // missing group := 100% error
        }
      }
      continue;
    }
    for (size_t a = 0; a < t; ++a) {
      const double truth = exact.value(i, a);
      if (std::fabs(truth) < 1e-12) {
        report.skipped_zero_truth++;
        continue;
      }
      const double est = approx.value(match[i], a);
      report.errors.push_back(std::fabs(est - truth) / std::fabs(truth));
    }
  }
  return report;
}

ErrorReport MergeReports(const std::vector<ErrorReport>& reports) {
  ErrorReport merged;
  // Struct-exhaustiveness guard: destructuring names every ErrorReport
  // field, so adding a field without deciding its merge policy below fails
  // to compile here instead of being silently dropped from pooled reports.
  {
    [[maybe_unused]] const auto& [errors_, missing_, zero_, exhaustive_,
                                  total_, degraded_] = merged;
  }
  // Stratum counts are per-SAMPLE facts, not per-answer facts: several
  // queries evaluated against one sample all report identical counts, and
  // summing them would multiply the sample's strata by the query count.
  // Collapse RUNS of identical counts (the one-sample, many-queries table,
  // which merges its per-sample reports consecutively) and sum across
  // runs (reports pooled over distinct samples).
  size_t prev_exhaustive = 0;
  size_t prev_total = 0;
  for (const auto& r : reports) {
    merged.errors.insert(merged.errors.end(), r.errors.begin(), r.errors.end());
    merged.missing_groups += r.missing_groups;
    merged.skipped_zero_truth += r.skipped_zero_truth;
    // Degraded strata sum like missing_groups: every query over a
    // deadline-skipped stratum is missing its answer, so the pooled report
    // charges the skip once per affected report, not once per sample.
    merged.degraded_strata += r.degraded_strata;
    if (r.total_strata == 0 && r.exhaustive_strata == 0) continue;
    if (r.total_strata != prev_total || r.exhaustive_strata != prev_exhaustive) {
      merged.exhaustive_strata += r.exhaustive_strata;
      merged.total_strata += r.total_strata;
      prev_exhaustive = r.exhaustive_strata;
      prev_total = r.total_strata;
    }
  }
  return merged;
}

}  // namespace cvopt
