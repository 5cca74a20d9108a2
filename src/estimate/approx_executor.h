// Approximate query execution over a weighted sample. Every sampled row
// carries a Horvitz–Thompson expansion weight, so SUM/COUNT/COUNT_IF are
// estimated by weighted sums and AVG by the ratio estimator — which is what
// lets one materialized sample serve runtime predicates and regroupings
// (Section 6.3 of the paper). The estimate is the exact group-by with a
// weight on every sampled row: ExecuteApprox groups the sampled positions,
// selects the WHERE survivors among them, and runs the exact executor's
// AccumulateGrouped / FinalizeGrouped with the sample's row map and
// weights. A sample holding every row in ascending order, each with weight
// 1.0, therefore answers bit-identically to ExecuteExact.
#ifndef CVOPT_ESTIMATE_APPROX_EXECUTOR_H_
#define CVOPT_ESTIMATE_APPROX_EXECUTOR_H_

#include "src/exec/query.h"
#include "src/exec/query_result.h"
#include "src/sample/stratified_sample.h"

namespace cvopt {

/// Answers the query from the sample. Groups with no sampled rows passing
/// the predicate are absent from the result (the estimator cannot see them);
/// error reporting charges such misses as 100% error.
Result<QueryResult> ExecuteApprox(const StratifiedSample& sample,
                                  const QuerySpec& query);

}  // namespace cvopt

#endif  // CVOPT_ESTIMATE_APPROX_EXECUTOR_H_
