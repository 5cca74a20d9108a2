#include "src/estimate/approx_executor.h"

#include "src/exec/agg_planner.h"
#include "src/exec/group_by_executor.h"
#include "src/exec/group_index.h"
#include "src/exec/query_context.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"

namespace cvopt {

Result<QueryResult> ExecuteApprox(const StratifiedSample& sample,
                                  const QuerySpec& query) {
 return GovernedSection([&]() -> Result<QueryResult> {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  CVOPT_RETURN_NOT_OK(CheckQueryAborted());
  const Table& table = sample.base();
  const std::vector<uint32_t>& rows = sample.rows();

  // Dense group ids over the sampled rows; position i maps to the group of
  // base row rows[i]. The sampler's observed stratum count (a streaming
  // router's final occupancy, or the stratification's group count) rides
  // along as the aggregation planner's cardinality prior — queries grouping
  // coarser than the stratification overestimate, which only ever steers
  // the hash-vs-sort choice, never the answer.
  ScopedAggOccupancyHint occupancy(sample.observed_strata());
  CVOPT_ASSIGN_OR_RETURN(GroupIndex gidx,
                         GroupIndex::BuildForRows(table, query.group_by, rows));

  // WHERE compiles to typed kernels (cached per table + predicate) and
  // selects surviving sample positions directly (no per-position byte mask
  // on the query path).
  const bool use_sel = query.where != nullptr;
  std::vector<uint32_t> sel;
  if (use_sel) {
    CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPredicate> where,
                           CompilePredicateCached(table, query.where));
    sel = where->SelectPositions(rows.data(), rows.size());
  }

  // The exact executor's accumulation with every sampled row carrying its
  // Horvitz–Thompson weight.
  CVOPT_ASSIGN_OR_RETURN(
      GroupedAccumulators acc,
      AccumulateGrouped(table, query, gidx, use_sel ? &sel : nullptr, &rows,
                        &sample.weights()));
  std::vector<double> finals = FinalizeGrouped(query.aggregates, &acc);

  std::vector<std::string> agg_labels;
  agg_labels.reserve(query.aggregates.size());
  for (const auto& a : query.aggregates) agg_labels.push_back(a.Label());

  // Groups emit in first-occurrence-over-sampled-rows order; under a WHERE
  // clause this may differ from the legacy first-surviving-row order.
  QueryResult result(std::move(agg_labels), query.group_by);
  CVOPT_RETURN_NOT_OK(result.IngestDense(gidx, acc.cnt, finals));
  return result;
 });
}

}  // namespace cvopt
