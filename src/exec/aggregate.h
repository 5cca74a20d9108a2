// Aggregate function specifications for group-by queries.
#ifndef CVOPT_EXEC_AGGREGATE_H_
#define CVOPT_EXEC_AGGREGATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/expr/predicate.h"
#include "src/stats/stats_collector.h"
#include "src/table/table.h"
#include "src/util/status.h"

namespace cvopt {

/// Supported aggregate functions. The paper's framework covers AVG, SUM and
/// COUNT directly (Section 2, Section 5 "COUNT and SUM are very similar");
/// COUNT_IF is the conditional count used by queries AQ1 and AQ6. VARIANCE
/// (population) and MEDIAN implement the Section-5 extension ("the method
/// can potentially be extended to aggregates such as per-group median and
/// variance"): both are estimated from the weighted sample — variance via
/// weighted first/second moments, median as the weighted midpoint.
enum class AggFunc { kAvg, kSum, kCount, kCountIf, kVariance, kMedian };

const char* AggFuncToString(AggFunc f);

/// One aggregate in a query's SELECT list.
struct AggSpec {
  AggFunc func = AggFunc::kAvg;
  /// Aggregated column; ignored for kCount.
  std::string column;
  /// Row filter for kCountIf (e.g. value > 0.04); must be set for kCountIf.
  PredicatePtr filter;
  /// User-assigned weight for this aggregate (Section 3.2); default 1.
  double weight = 1.0;

  static AggSpec Avg(std::string col, double weight = 1.0) {
    return AggSpec{AggFunc::kAvg, std::move(col), nullptr, weight};
  }
  static AggSpec Sum(std::string col, double weight = 1.0) {
    return AggSpec{AggFunc::kSum, std::move(col), nullptr, weight};
  }
  static AggSpec Count(double weight = 1.0) {
    return AggSpec{AggFunc::kCount, "", nullptr, weight};
  }
  static AggSpec CountIf(PredicatePtr filter, double weight = 1.0) {
    return AggSpec{AggFunc::kCountIf, "", std::move(filter), weight};
  }
  static AggSpec Variance(std::string col, double weight = 1.0) {
    return AggSpec{AggFunc::kVariance, std::move(col), nullptr, weight};
  }
  static AggSpec Median(std::string col, double weight = 1.0) {
    return AggSpec{AggFunc::kMedian, std::move(col), nullptr, weight};
  }

  /// e.g. "AVG(value)" or "COUNT_IF(value > 0.04)".
  std::string Label() const;
};

/// Owns materialized value streams (COUNT_IF indicators) and exposes one
/// StatSource per aggregate, suitable for CollectGroupStats.
class BoundAggregates {
 public:
  /// Resolves every AggSpec against the table. Fails on unknown columns,
  /// string-typed aggregation columns, or kCountIf without a filter.
  /// COUNT_IF indicators are evaluated over every table row.
  static Result<BoundAggregates> Bind(const Table& table,
                                      const std::vector<AggSpec>& aggs);

  const std::vector<StatSource>& sources() const { return sources_; }
  size_t size() const { return sources_.size(); }

 private:
  // Indicator vectors are heap-allocated so StatSource pointers stay stable
  // when the BoundAggregates object moves.
  std::vector<std::unique_ptr<std::vector<uint8_t>>> indicators_;
  std::vector<StatSource> sources_;
};

}  // namespace cvopt

#endif  // CVOPT_EXEC_AGGREGATE_H_
