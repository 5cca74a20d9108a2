// Stratification: the mapping from table rows to strata for a set of
// grouping attributes, plus projections onto attribute subsets. This is the
// "finest stratification" machinery of Section 4 of the paper: for multiple
// group-by clauses the table is stratified by the union of all group-by
// attribute sets, and each query's groups are projections of the strata.
#ifndef CVOPT_CORE_STRATIFICATION_H_
#define CVOPT_CORE_STRATIFICATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/group_index.h"
#include "src/stats/group_key.h"
#include "src/table/table.h"
#include "src/util/status.h"

namespace cvopt {

/// Partition of a table's rows into strata, one stratum per distinct
/// combination of the stratification attributes that occurs in the data.
/// An empty attribute list yields a single stratum holding every row.
///
/// A view over the table's full-table GroupIndex for the attributes: the
/// strata are its groups, and the row mapping, sizes and representative
/// rows are the index's own (shared, not copied). The Stratification holds
/// a pointer to the source table; the table must outlive it.
class Stratification {
 public:
  /// Builds the stratification in one pass over the table, or shares the
  /// index an earlier query of the same request built (see
  /// GroupIndex::BuildShared). Attributes must be int64 or string columns
  /// (doubles are not groupable).
  static Result<Stratification> Build(const Table& table,
                                      std::vector<std::string> attrs);

  const Table& table() const { return *table_; }
  const std::vector<std::string>& attrs() const { return attrs_; }
  const std::vector<size_t>& column_indices() const {
    return index_->column_indices();
  }

  size_t num_strata() const { return keys_.size(); }

  /// Per-row stratum ids, aligned with table rows.
  const std::vector<uint32_t>& row_strata() const {
    return index_->row_groups();
  }
  uint32_t StratumOfRow(size_t row) const { return index_->group_of(row); }

  /// Number of rows in each stratum (the paper's n_c).
  const std::vector<uint64_t>& sizes() const { return index_->sizes(); }

  /// The first row of each stratum in table order (its representative).
  const std::vector<uint32_t>& first_rows() const {
    return index_->rep_rows();
  }

  const GroupKey& key(size_t stratum) const { return keys_[stratum]; }

  /// Human-readable stratum label, e.g. "US|pm25".
  std::string Label(size_t stratum) const {
    return keys_[stratum].Render(*table_, column_indices());
  }

  /// Mapping of this (finest) stratification onto the coarser grouping by a
  /// subset of its attributes: the paper's Pi(c, A) and C(a).
  struct Projection {
    /// For every stratum c, the id of its parent group a = Pi(c, A).
    std::vector<uint32_t> stratum_to_parent;
    /// Keys of the parent groups (over `sub_attrs`).
    std::vector<GroupKey> parent_keys;
    /// n_a: total rows in each parent group.
    std::vector<uint64_t> parent_sizes;
    /// Column indices of the sub-attributes in the source table.
    std::vector<size_t> parent_column_indices;

    size_t num_parents() const { return parent_keys.size(); }
  };

  /// Projects onto `sub_attrs`, which must be a subset of attrs(). An empty
  /// list projects every stratum onto one full-table group.
  Result<Projection> Project(const std::vector<std::string>& sub_attrs) const;

 private:
  Stratification() = default;

  const Table* table_ = nullptr;
  std::vector<std::string> attrs_;
  std::shared_ptr<const GroupIndex> index_;
  std::vector<GroupKey> keys_;
};

/// Returns the set-union of the given attribute lists, preserving first-seen
/// order (the paper's C = A1 ∪ ... ∪ Ak).
std::vector<std::string> UnionAttrs(
    const std::vector<std::vector<std::string>>& attr_sets);

}  // namespace cvopt

#endif  // CVOPT_CORE_STRATIFICATION_H_
