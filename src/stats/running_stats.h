// RunningStats: single-pass mean/variance (Welford), mergeable so
// statistics can be combined across strata.
#ifndef CVOPT_STATS_RUNNING_STATS_H_
#define CVOPT_STATS_RUNNING_STATS_H_

#include <cstdint>

namespace cvopt {

/// Numerically-stable streaming moments over a sequence of doubles.
class RunningStats {
 public:
  RunningStats() = default;

  /// The accumulator of `count` observations with the given mean and sum
  /// of squared deviations from it.
  static RunningStats FromMoments(uint64_t count, double mean, double m2);

  /// Adds one observation.
  void Add(double x);

  /// Merges another accumulator into this one (Chan et al. parallel merge).
  void Merge(const RunningStats& other);

  uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

  /// Population variance: sum((x-mean)^2) / n. The per-group sigma^2 in the
  /// paper's allocation formulas is the population variance of the group.
  double variance_population() const;

  /// Sample variance: sum((x-mean)^2) / (n-1).
  double variance_sample() const;

  /// Population standard deviation.
  double stddev_population() const;

  /// Coefficient of variation sigma/|mu| of the observed values, with the
  /// population sigma. Returns 0 when count == 0; when |mu| underflows
  /// relative to sigma, returns sigma / mu_floor (see cv_mu_floor below).
  double cv() const;

  bool operator==(const RunningStats& other) const;

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Floor applied to |mu| when computing CVs, relative to sigma. The paper
/// assumes non-zero means; this keeps the optimization finite when a group
/// mean is ~0 (documented deviation, DESIGN.md §4).
inline constexpr double kCvMuFloorRatio = 1e-9;

}  // namespace cvopt

#endif  // CVOPT_STATS_RUNNING_STATS_H_
