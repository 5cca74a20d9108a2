// Approximate query execution over a weighted sample. Every sampled row
// carries a Horvitz–Thompson expansion weight, so SUM/COUNT/COUNT_IF are
// estimated by weighted sums and AVG by the ratio estimator — which is what
// lets one materialized sample serve runtime predicates and regroupings
// (Section 6.3 of the paper). The estimate is the exact group-by with a
// weight on every sampled row: ExecuteApprox groups the sample's own table
// (reusing the sample's cached GroupIndex when the query groups by its
// attrs), selects the WHERE survivors among its rows, and runs the exact
// executor's AccumulateGrouped / FinalizeGrouped with the sample's weights.
// It never reads the base table. A sample holding every row in ascending
// order, each with weight 1.0, therefore answers bit-identically to
// ExecuteExact.
#ifndef CVOPT_ESTIMATE_APPROX_EXECUTOR_H_
#define CVOPT_ESTIMATE_APPROX_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/exec/group_index.h"
#include "src/exec/query.h"
#include "src/exec/query_result.h"
#include "src/sample/stratified_sample.h"

namespace cvopt {

/// Answers the query from the sample. Groups with no sampled rows passing
/// the predicate are absent from the result (the estimator cannot see them);
/// error reporting charges such misses as 100% error.
Result<QueryResult> ExecuteApprox(const StratifiedSample& sample,
                                  const QuerySpec& query);

/// The GroupIndex over sample.table() for `group_by`: the sample's cached
/// index when it was built for `group_by`, else a fresh build.
Result<std::shared_ptr<const GroupIndex>> SampleGroupIndex(
    const StratifiedSample& sample, const std::vector<std::string>& group_by);

}  // namespace cvopt

#endif  // CVOPT_ESTIMATE_APPROX_EXECUTOR_H_
