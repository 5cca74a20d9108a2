// Streaming CVOPT — the paper's future-work direction (3) in Section 8:
// "handling streaming data". The two-pass offline algorithm (statistics
// pass, then sampling pass) becomes a single pass:
//
//   * per-stratum statistics are maintained incrementally (Welford);
//   * each stratum owns a reservoir whose capacity is re-planned every
//     `replan_interval` rows from the *running* statistics, using the same
//     Lemma-1 optimizer as the offline algorithm;
//   * shrinking a reservoir drops uniformly-chosen victims (the remaining
//     contents stay a uniform sample); growing a reservoir only affects
//     future offers, so strata whose optimal allocation grows late in the
//     stream are mildly biased toward late rows.
//
// This mirrors the design of the authors' companion work on stratified
// sampling over streams (Nguyen et al., EDBT 2019, reference [17] of the
// paper). It is a principled heuristic, not an optimality-preserving
// reduction: on stationary streams it converges to the offline allocation
// (tested), on adversarially ordered streams the within-stratum uniformity
// degrades for grown reservoirs.
#ifndef CVOPT_SAMPLE_STREAMING_CVOPT_SAMPLER_H_
#define CVOPT_SAMPLE_STREAMING_CVOPT_SAMPLER_H_

#include <memory>
#include <vector>

#include "src/exec/aggregate.h"
#include "src/exec/group_index.h"
#include "src/expr/compiled_predicate.h"
#include "src/sample/sampler.h"
#include "src/stats/running_stats.h"

namespace cvopt {

/// One-pass CVOPT over a row stream. Use StreamingCvoptBuilder directly for
/// true streams; the Sampler adapter below replays a Table as a stream so
/// it can slot into the experiment harness.
class StreamingCvoptBuilder {
 public:
  /// `group_columns` are the stratification column indices in the source
  /// table; `value_column` the aggregated (numeric) column; `budget` the
  /// total reservoir capacity; `replan_interval` how often (in rows) the
  /// allocation is recomputed.
  StreamingCvoptBuilder(const Table* table, std::vector<size_t> group_columns,
                        size_t value_column, uint64_t budget,
                        uint64_t replan_interval, Rng* rng);

  /// Optional row filter: offered rows failing the compiled predicate are
  /// skipped via the allocation-free scalar kernel path. The plan must
  /// outlive the builder. Only sound when every query the sample will
  /// answer carries the same predicate.
  void set_filter(const CompiledPredicate* filter) { filter_ = filter; }

  /// Offers the next stream row (by base-table row id).
  void Offer(uint32_t row);

  /// Offers the contiguous row range [lo, hi) in order — equivalent to
  /// calling Offer on each row, but filters blockwise through the
  /// predicate's vector kernels. Bit-identical to the per-row loop: routing
  /// order, stratum id assignment, and every RNG draw are unchanged.
  void OfferRange(size_t lo, size_t hi);

  /// Rows currently held across all reservoirs, with HT weights n_c / s_c
  /// computed from the stream counts seen so far. Gathering them into the
  /// sample's table may throw QueryAbortedError under a governed budget
  /// (see StratifiedSample); StreamingCvoptSampler::Build returns it as a
  /// status.
  StratifiedSample Finish() &&;

  uint64_t rows_seen() const { return rows_seen_; }
  size_t num_strata() const { return strata_.size(); }

 private:
  struct Stratum {
    RunningStats stats;
    std::vector<uint32_t> reservoir;
    size_t capacity = 1;
    uint64_t seen = 0;
  };

  // Everything Offer does after routing (stats, reservoir step, replan
  // cadence) — shared by Offer and OfferRange.
  void Admit(uint32_t row, uint32_t stratum);
  void Replan();
  // Points the router at the grouping columns' current storage: the
  // stream may have appended rows (reallocating the columns) since the
  // previous offer.
  void BindRouter();

  const Table* table_;
  std::vector<size_t> group_columns_;
  size_t value_column_;
  uint64_t budget_;
  uint64_t replan_interval_;
  Rng* rng_;
  const CompiledPredicate* filter_ = nullptr;

  uint64_t rows_seen_ = 0;
  // Packed dense-id stratum router (GroupIndex's packed/wide tiers, grown
  // incrementally): one code load + pack + probe per offered row, no
  // GroupKey materialization or per-row code-vector writes.
  StreamGroupRouter router_;
  std::vector<Stratum> strata_;
};

/// Sampler adapter: replays the table in row order as a stream. Uses the
/// first query's group-by attributes and first numeric aggregate column.
class StreamingCvoptSampler : public Sampler {
 public:
  explicit StreamingCvoptSampler(uint64_t replan_interval = 50'000)
      : replan_interval_(replan_interval) {}

  std::string name() const override { return "CVOPT-STREAM"; }

  Result<StratifiedSample> Build(const Table& table,
                                 const std::vector<QuerySpec>& queries,
                                 uint64_t budget, Rng* rng) const override;

 private:
  uint64_t replan_interval_;
};

}  // namespace cvopt

#endif  // CVOPT_SAMPLE_STREAMING_CVOPT_SAMPLER_H_
