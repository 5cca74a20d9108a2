// StratifiedSample: a materialized random sample with per-row Horvitz–
// Thompson weights. This is the artifact the offline phase produces and the
// online phase queries; because rows carry scale-up weights, the same sample
// answers queries with runtime predicates and new groupings (Section 6.3).
//
// A sample is a compact weighted table: construction gathers the sampled
// base rows, in sample order, into a Table the sample owns, so answering a
// query reads only the sample's own rows and never the base table again
// (the base may be destroyed once the sample exists).
#ifndef CVOPT_SAMPLE_STRATIFIED_SAMPLE_H_
#define CVOPT_SAMPLE_STRATIFIED_SAMPLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/stratification.h"
#include "src/exec/group_index.h"
#include "src/table/table.h"

namespace cvopt {

/// A sample of base-table rows. `weights[i]` is the expansion factor of
/// sampled row i: the number of base rows it represents (n_c / s_c for
/// stratified uniform designs, 1 / (M * p_i) for measure-biased designs).
class StratifiedSample {
 public:
  /// Gathers base rows `rows` (each CVOPT_CHECKed against
  /// base->num_rows()) into the sample's own table, column by column:
  /// int64 and double values and string dictionary codes are copied
  /// verbatim and each string column adopts the base column's dictionary,
  /// so codes, group keys and labels equal the base's. The gathered bytes
  /// are reserved against the ambient QueryContext; over budget,
  /// construction throws QueryAbortedError(kResourceExhausted), which the
  /// samplers' Build entry points return as a status.
  StratifiedSample(const Table* base, std::vector<uint32_t> rows,
                   std::vector<double> weights, std::string method);

  /// The sampled rows: row i is base row rows()[i]. Heap-owned and shared
  /// by copies of the sample, so its address (which compiled plans and
  /// GroupIndexes borrow) is stable for the sample's lifetime.
  const Table& table() const { return *table_; }
  /// Base-table position of each sampled row (for reports and tests; the
  /// query path reads table() instead).
  const std::vector<uint32_t>& rows() const { return rows_; }
  const std::vector<double>& weights() const { return weights_; }
  const std::string& method() const { return method_; }

  size_t size() const { return rows_.size(); }

  /// Fraction of base rows materialized.
  double SampleRate() const {
    return base_rows_ == 0 ? 0.0
                           : static_cast<double>(rows_.size()) /
                                 static_cast<double>(base_rows_);
  }

  /// Optional: a GroupIndex built over table() for the grouping `attrs`,
  /// which ExecuteApprox reuses for every query grouped exactly by `attrs`
  /// instead of building one (a catalog sample caches its class's GROUP
  /// BY). A null `index` drops the cache.
  void set_group_index(std::vector<std::string> attrs,
                       std::shared_ptr<const GroupIndex> index) {
    group_index_attrs_ = std::move(attrs);
    group_index_ = std::move(index);
  }
  /// The cached index when `attrs` equals its grouping, else null.
  std::shared_ptr<const GroupIndex> group_index(
      const std::vector<std::string>& attrs) const {
    return attrs == group_index_attrs_ ? group_index_ : nullptr;
  }

  /// Bytes the sample holds: its table's column storage (the dictionaries
  /// are the base table's, shared), its positions and weights, and the
  /// cached GroupIndex.
  uint64_t resident_bytes() const;

  /// Optional: the stratification the sample was drawn under (for reports
  /// and tests). It maps every base-table row and resident_bytes() does
  /// not count it, so the serving catalog publishes samples without it.
  void set_stratification(std::shared_ptr<const Stratification> s) {
    strat_ = std::move(s);
  }
  const Stratification* stratification() const { return strat_.get(); }

  /// Optional: per-stratum exhaustive-service flags (aligned with the
  /// stratification's strata). Flag c is 1 when the draw took every row of
  /// stratum c — the allocation met or exceeded the population, including
  /// DrawStratified's take-all clamp — so answers over that stratum are
  /// exact, not estimates. Empty when the sample was not drawn through
  /// DrawStratified (e.g. measure-biased designs).
  void set_stratum_exhaustive(std::vector<uint8_t> flags) {
    stratum_exhaustive_ = std::move(flags);
  }
  const std::vector<uint8_t>& stratum_exhaustive() const {
    return stratum_exhaustive_;
  }
  /// Number of strata served exactly (take-all / clamped allocations).
  size_t num_exhaustive_strata() const {
    size_t n = 0;
    for (uint8_t f : stratum_exhaustive_) n += f;
    return n;
  }

  /// Optional: per-stratum degradation flags (aligned with the
  /// stratification's strata). Flag c is 1 when the draw was cut short by a
  /// governance deadline / cancellation before stratum c drew, under a
  /// QueryContext with allow_partial set: the stratum contributed no rows
  /// and answers over it are missing rather than estimated. Empty when the
  /// draw completed every stratum.
  void set_stratum_degraded(std::vector<uint8_t> flags) {
    stratum_degraded_ = std::move(flags);
  }
  const std::vector<uint8_t>& stratum_degraded() const {
    return stratum_degraded_;
  }
  /// Number of strata skipped by a partial (deadline-degraded) draw.
  size_t num_degraded_strata() const {
    size_t n = 0;
    for (uint8_t f : stratum_degraded_) n += f;
    return n;
  }

  /// A standalone copy of table() (for export or for engines that want a
  /// physical sample table it can own). String columns carry the base
  /// column's whole dictionary.
  Table Materialize() const { return *table_; }

 private:
  size_t base_rows_;
  std::shared_ptr<const Table> table_;
  std::vector<uint32_t> rows_;
  std::vector<double> weights_;
  std::string method_;
  std::shared_ptr<const Stratification> strat_;
  std::vector<uint8_t> stratum_exhaustive_;
  std::vector<uint8_t> stratum_degraded_;
  std::vector<std::string> group_index_attrs_;
  std::shared_ptr<const GroupIndex> group_index_;
};

}  // namespace cvopt

#endif  // CVOPT_SAMPLE_STRATIFIED_SAMPLE_H_
