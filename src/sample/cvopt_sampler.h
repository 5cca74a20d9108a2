// CVOPT and CVOPT-INF samplers: the paper's contribution, wired end-to-end —
// finest stratification, per-stratum statistics, optimal allocation
// (Lemma 1 / Section 5 binary search), and per-stratum uniform draws
// without replacement (Algorithm 1).
#ifndef CVOPT_SAMPLE_CVOPT_SAMPLER_H_
#define CVOPT_SAMPLE_CVOPT_SAMPLER_H_

#include "src/core/cvopt_allocator.h"
#include "src/sample/sampler.h"
#include "src/util/string_util.h"

namespace cvopt {

/// The CVOPT sampler. Defaults to the l2 norm of the CVs; construct with
/// CvNorm::kLinf for CVOPT-INF (single aggregate, single group-by).
class CvoptSampler : public Sampler {
 public:
  explicit CvoptSampler(AllocatorOptions options = {})
      : options_(std::move(options)) {}

  std::string name() const override {
    switch (options_.norm) {
      case CvNorm::kLinf:
        return "CVOPT-INF";
      case CvNorm::kLp:
        return StrFormat("CVOPT-L%.3g", options_.lp_p);
      case CvNorm::kL2:
        break;
    }
    return "CVOPT";
  }

  Result<StratifiedSample> Build(const Table& table,
                                 const std::vector<QuerySpec>& queries,
                                 uint64_t budget, Rng* rng) const override;

  /// Computes the allocation plan without drawing rows (for inspection).
  Result<AllocationPlan> Plan(const Table& table,
                              const std::vector<QuerySpec>& queries,
                              uint64_t budget) const {
    return PlanCvoptAllocation(table, queries, budget, options_);
  }

 private:
  AllocatorOptions options_;
};

}  // namespace cvopt

#endif  // CVOPT_SAMPLE_CVOPT_SAMPLER_H_
