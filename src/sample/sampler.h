// Sampler: the common interface of all sampling methods compared in the
// paper (Uniform, Congress/CS, RL, Sample+Seek, CVOPT, CVOPT-INF).
#ifndef CVOPT_SAMPLE_SAMPLER_H_
#define CVOPT_SAMPLE_SAMPLER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/stratification.h"
#include "src/exec/query.h"
#include "src/sample/stratified_sample.h"
#include "src/util/rng.h"

namespace cvopt {

/// Builds a sample of `budget` rows tuned (or not) to a target query set.
class Sampler {
 public:
  virtual ~Sampler() = default;

  /// Method name used in experiment reports, e.g. "CVOPT".
  virtual std::string name() const = 0;

  /// Draws a sample of about `budget` rows. `queries` describes the target
  /// workload (grouping attributes, aggregates, weights); methods that are
  /// query-oblivious (Uniform) ignore it. The table must outlive the sample.
  virtual Result<StratifiedSample> Build(const Table& table,
                                         const std::vector<QuerySpec>& queries,
                                         uint64_t budget, Rng* rng) const = 0;
};

/// Helper shared by the stratified methods: draws min(sizes[c], n_c) rows
/// uniformly without replacement from every stratum (allocations at or above
/// the stratum population take every row) and assembles the sample with
/// weights n_c / s_c, rows grouped stratum-major.
///
/// Stratum c draws its s_c ascending ordinals in [0, n_c) with DrawOrdinals
/// (exactly s_c draws; a take-all stratum draws none), then one pass over
/// row_strata() replaces each ordinal with the stratum's row of that rank in
/// table order.
///
/// Determinism contract: the drawn row sets are a pure function of the rng's
/// state at entry (one Next64() derives a master seed; stratum c then draws
/// on its own Rng::ForStratum(master, c) stream), the stratification, and
/// the allocation — independent of thread count and chunking.
///
/// Under QueryContext::allow_partial a firing governance check ends the row
/// pass early: strata whose wanted rows were all matched keep them, every
/// other stratum with s_c > 0 is dropped and flagged degraded.
Result<StratifiedSample> DrawStratified(
    const Table& table, std::shared_ptr<const Stratification> strat,
    const std::vector<uint64_t>& sizes, const std::string& method, Rng* rng);

}  // namespace cvopt

#endif  // CVOPT_SAMPLE_SAMPLER_H_
