// Joining two query results on their group keys — enough to express queries
// like AQ1, which joins per-country 2018 aggregates against 2017 aggregates
// and reports their differences.
#ifndef CVOPT_EXEC_RESULT_JOIN_H_
#define CVOPT_EXEC_RESULT_JOIN_H_

#include <functional>

#include "src/exec/query_result.h"

namespace cvopt {

/// Inner-joins `a` and `b` on group key; for each matching group emits
/// combine(a_value, b_value) per aggregate. The two results must have the
/// same number of aggregates and the same grouping attributes.
Result<QueryResult> JoinResults(
    const QueryResult& a, const QueryResult& b,
    const std::function<double(double, double)>& combine,
    const std::vector<std::string>& out_agg_labels);

/// Convenience: per-aggregate difference a - b (AQ1's avg_incre/cnt_incre).
Result<QueryResult> DiffResults(const QueryResult& a, const QueryResult& b);

}  // namespace cvopt

#endif  // CVOPT_EXEC_RESULT_JOIN_H_
