// QuerySpec: a group-by query with aggregates, an optional WHERE predicate,
// and weights — the unit of work for both the exact and approximate engines.
#ifndef CVOPT_EXEC_QUERY_H_
#define CVOPT_EXEC_QUERY_H_

#include <string>
#include <vector>

#include "src/exec/aggregate.h"
#include "src/expr/predicate.h"

namespace cvopt {

/// SELECT <group_by>, <aggregates> FROM t [WHERE where] GROUP BY <group_by>.
struct QuerySpec {
  /// Identifier used in reports (e.g. "AQ3").
  std::string name;
  /// Grouping attributes; empty means a full-table (single-group) query.
  std::vector<std::string> group_by;
  /// Aggregates computed per group; at least one.
  std::vector<AggSpec> aggregates;
  /// Optional selection predicate (nullptr = no predicate).
  PredicatePtr where;
  /// Query-level weight, e.g. its frequency in a workload (Section 4.3).
  double weight = 1.0;

  /// Each aggregate's Label(), in order.
  std::vector<std::string> AggLabels() const;

  /// SQL-ish rendering for logs.
  std::string ToString() const;
};

}  // namespace cvopt

#endif  // CVOPT_EXEC_QUERY_H_
