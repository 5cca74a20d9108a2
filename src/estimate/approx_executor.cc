#include "src/estimate/approx_executor.h"

#include "src/exec/group_by_executor.h"
#include "src/exec/query_context.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"

namespace cvopt {

Result<std::shared_ptr<const GroupIndex>> SampleGroupIndex(
    const StratifiedSample& sample, const std::vector<std::string>& group_by) {
  if (auto cached = sample.group_index(group_by)) return cached;
  CVOPT_ASSIGN_OR_RETURN(GroupIndex gidx,
                         GroupIndex::Build(sample.table(), group_by));
  return std::make_shared<const GroupIndex>(std::move(gidx));
}

Result<QueryResult> ExecuteApprox(const StratifiedSample& sample,
                                  const QuerySpec& query) {
 return GovernedSection([&]() -> Result<QueryResult> {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  CVOPT_RETURN_NOT_OK(CheckQueryAborted());
  const Table& table = sample.table();
  CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const GroupIndex> gidx,
                         SampleGroupIndex(sample, query.group_by));

  // WHERE compiles to typed kernels (cached per sample table + predicate);
  // the exact executor's accumulation selects the surviving sampled rows
  // one storage chunk at a time, each carrying its Horvitz–Thompson
  // weight.
  std::shared_ptr<const CompiledPredicate> where;
  if (query.where != nullptr) {
    CVOPT_ASSIGN_OR_RETURN(where, CompilePredicateCached(table, query.where));
  }
  CVOPT_ASSIGN_OR_RETURN(
      GroupedAccumulators acc,
      AccumulateGrouped(table, query, *gidx, where.get(), &sample.weights()));

  // Groups emit in first-occurrence-over-sampled-rows order; under a WHERE
  // clause this may differ from the legacy first-surviving-row order.
  return GroupedResult(table, query, *gidx, &acc);
 });
}

}  // namespace cvopt
