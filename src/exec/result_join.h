// Joining two query results on their group keys — enough to express queries
// like AQ1, which joins per-country 2018 aggregates against 2017 aggregates
// and reports their differences.
#ifndef CVOPT_EXEC_RESULT_JOIN_H_
#define CVOPT_EXEC_RESULT_JOIN_H_

#include "src/exec/query_result.h"

namespace cvopt {

/// Inner-joins `a` and `b` on group key (MatchGroups) and emits, per
/// matching group, a - b per aggregate (AQ1's avg_incre/cnt_incre), labelled
/// "delta <label>". The two results must have the same number of aggregates
/// and the same grouping attributes.
Result<QueryResult> DiffResults(const QueryResult& a, const QueryResult& b);

}  // namespace cvopt

#endif  // CVOPT_EXEC_RESULT_JOIN_H_
