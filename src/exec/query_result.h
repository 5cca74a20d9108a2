// QueryResult: the (group -> aggregate values) answer of a group-by query,
// from either the exact engine or a sample-based estimator.
#ifndef CVOPT_EXEC_QUERY_RESULT_H_
#define CVOPT_EXEC_QUERY_RESULT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/stats/group_key.h"
#include "src/util/status.h"

namespace cvopt {

/// Answer of one group-by query: an ordered list of groups, each with one
/// value per aggregate. An immutable value of three flat parts:
///   - the key codes, row-major (stride = key_arity()): a string column's
///     dictionary code, an int column's value;
///   - per grouping column, its type and its dictionary (KeyColumn), shared
///     with the table the result was computed over, so no string is copied;
///   - the values, row-major (stride = num_aggregates()).
/// Labels ("v1|v2|...") are rendered from the codes only where they are
/// read: label(), FindByLabel(), ToString() and the wire encoding.
///
/// Thread-safety: a const QueryResult holds no lazy state, so any number of
/// threads may read one at once.
class QueryResult {
 public:
  /// No aggregates, no grouping columns, no groups.
  QueryResult() = default;

  /// The one construction path, from a dense-id aggregation over G
  /// candidate groups (G = counts.size()): group g's key is
  /// codes[g * k .. (g + 1) * k) (k = key_columns.size(), one code per
  /// grouping attribute), counts[g] its surviving row count, and
  /// finals[j * G + g] its value of aggregate j. Groups with counts[g] == 0
  /// are absent; the rest keep their id order. InvalidArgument if the
  /// widths disagree.
  static Result<QueryResult> Dense(std::vector<std::string> agg_labels,
                                   std::vector<std::string> group_attrs,
                                   std::vector<KeyColumn> key_columns,
                                   std::vector<int64_t> codes,
                                   const std::vector<uint64_t>& counts,
                                   const std::vector<double>& finals);

  size_t num_groups() const { return num_groups_; }
  size_t num_aggregates() const { return agg_labels_.size(); }
  /// Codes per group: one per grouping attribute.
  size_t key_arity() const { return key_columns_.size(); }

  /// Group i's key codes (key_arity() of them).
  const int64_t* key_codes(size_t i) const {
    return codes_.data() + i * key_arity();
  }
  const std::vector<KeyColumn>& key_columns() const { return key_columns_; }

  /// Group i's label, rendered from its codes.
  std::string label(size_t i) const;
  /// Copy of group i's aggregate values (row slice of the flat array).
  std::vector<double> values(size_t i) const {
    const size_t t = agg_labels_.size();
    return std::vector<double>(values_.begin() + i * t,
                               values_.begin() + (i + 1) * t);
  }
  double value(size_t i, size_t agg) const {
    return values_[i * agg_labels_.size() + agg];
  }

  const std::vector<std::string>& agg_labels() const { return agg_labels_; }
  const std::vector<std::string>& group_attrs() const { return group_attrs_; }

  /// Index of a group by its label, if present (renders every label on the
  /// way: tests and examples).
  std::optional<size_t> FindByLabel(const std::string& label) const;

  std::string ToString(size_t max_groups = 20) const;

 private:
  std::vector<std::string> agg_labels_;
  std::vector<std::string> group_attrs_;
  std::vector<KeyColumn> key_columns_;
  size_t num_groups_ = 0;
  std::vector<int64_t> codes_;  // row-major, stride = key_arity()
  std::vector<double> values_;  // row-major, stride = num_aggregates()
};

/// MatchGroups' mark of a group with no match.
inline constexpr size_t kNoGroup = SIZE_MAX;

/// Pairs the groups of two results by key: out[i] is the index of the
/// group of `into` whose codes equal those of group i of `from`, or
/// kNoGroup. One flat hash over `into`'s codes per call. InvalidArgument
/// if the results are grouped by different attributes, or if a grouping
/// column's types or dictionaries disagree (neither dictionary a prefix of
/// the other), since their codes do not compare.
Result<std::vector<size_t>> MatchGroups(const QueryResult& from,
                                        const QueryResult& into);

}  // namespace cvopt

#endif  // CVOPT_EXEC_QUERY_RESULT_H_
