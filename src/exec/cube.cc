#include "src/exec/cube.h"

#include <algorithm>

#include "src/exec/group_by_executor.h"
#include "src/exec/group_index.h"
#include "src/exec/parallel.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"
#include "src/util/string_util.h"

namespace cvopt {

std::vector<QuerySpec> ExpandCube(const QuerySpec& base) {
  const size_t k = base.group_by.size();
  std::vector<QuerySpec> out;
  out.reserve(size_t{1} << k);
  // Enumerate subsets from full set down to empty so the finest grouping
  // comes first (matches WITH CUBE output conventions).
  for (size_t bits = (size_t{1} << k); bits-- > 0;) {
    QuerySpec q = base;
    q.group_by.clear();
    for (size_t j = 0; j < k; ++j) {
      if (bits & (size_t{1} << j)) q.group_by.push_back(base.group_by[j]);
    }
    q.name = base.name + "/" + (q.group_by.empty() ? "()" : Join(q.group_by, ","));
    out.push_back(std::move(q));
  }
  return out;
}

Result<std::vector<QueryResult>> ExecuteCube(const Table& table,
                                             const QuerySpec& base) {
  const std::vector<QuerySpec> specs = ExpandCube(base);
  std::vector<QueryResult> out;
  out.reserve(specs.size());
  // Degenerate shapes (no grouping attributes, empty table) have nothing to
  // share; per-spec execution keeps their edge semantics authoritative.
  if (base.group_by.empty() || table.num_rows() == 0) {
    for (const auto& q : specs) {
      CVOPT_ASSIGN_OR_RETURN(QueryResult r, ExecuteExact(table, q));
      out.push_back(std::move(r));
    }
    return out;
  }
  if (base.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }

  // One finest-grouping pass shared by every grouping set: dense ids over
  // the full key set, the WHERE selection evaluated once, and one raw
  // accumulation (which itself reuses the partition artifact on unmasked
  // queries — partition-owned slabs, no chunk merge).
  CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const GroupIndex> index,
                         GroupIndex::BuildShared(table, base.group_by));
  const GroupIndex& gidx = *index;
  const bool use_sel = base.where != nullptr;
  std::vector<uint32_t> sel;
  if (use_sel) {
    CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPredicate> where,
                           CompilePredicateCached(table, base.where));
    sel = ParallelSelect(*where);
  }
  CVOPT_ASSIGN_OR_RETURN(
      GroupedAccumulators acc,
      AccumulateGrouped(table, base, gidx, use_sel ? &sel : nullptr));

  const size_t G = gidx.num_groups();
  const size_t k = base.group_by.size();
  const size_t t = base.aggregates.size();

  // Flat key codes of every finest group (one gather, reused per subset).
  const std::vector<int64_t> codes = gidx.KeyCodes();

  const std::vector<std::string> agg_labels = base.AggLabels();

  // The finest grouping set (specs[0] — ExpandCube emits the full set
  // first) IS the shared accumulation: finalize it directly — no
  // projection. It runs before the fan-out below because MedianOf reorders
  // acc's value buffers in place; the multisets stay intact for the
  // coarser rollups, but the mutation must not race their reads.
  std::vector<QueryResult> results(specs.size());
  CVOPT_ASSIGN_OR_RETURN(results[0], GroupedResult(table, base, gidx, &acc));

  // Coarser grouping sets fan out across the pool: each set only reads
  // the shared finest accumulation and rolls up into its own
  // parent-keyed accumulators, so the per-set results are the serial
  // rollup bit for bit in any execution order.
  const size_t coarse = specs.size() - 1;
  std::vector<Status> statuses(specs.size(), Status::OK());
  ParallelForChunks(coarse, coarse, [&](size_t c, size_t, size_t) {
    const size_t si = c + 1;
    const QuerySpec& spec = specs[si];
    // Positions of the subset attributes within the finest key.
    std::vector<size_t> positions;
    positions.reserve(spec.group_by.size());
    for (const auto& a : spec.group_by) {
      const auto it =
          std::find(base.group_by.begin(), base.group_by.end(), a);
      positions.push_back(static_cast<size_t>(it - base.group_by.begin()));
    }
    std::vector<size_t> parent_cols;
    parent_cols.reserve(positions.size());
    for (size_t p : positions) {
      parent_cols.push_back(gidx.column_indices()[p]);
    }

    // Project every finest group onto its subset key. Finest ids are in
    // first-seen row order, so interning in id order lands the parents in
    // exactly ExecuteExact's first-seen order for the subset query.
    GroupKeyInterner interner(G);
    std::vector<uint32_t> parent_of(G);
    GroupKey sub;
    sub.codes.resize(positions.size());
    for (size_t g = 0; g < G; ++g) {
      for (size_t j = 0; j < positions.size(); ++j) {
        sub.codes[j] = codes[g * k + positions[j]];
      }
      parent_of[g] = interner.Intern(sub);
    }
    const size_t P = interner.size();

    // Roll the finest accumulators up: counts and sums are additive across
    // the strata of a parent; MEDIAN concatenates the per-stratum value
    // buffers (the parent's multiset, so the median is exact).
    GroupedAccumulators pacc;
    pacc.Grow(base.aggregates, P, /*weighted=*/false);
    for (size_t g = 0; g < G; ++g) pacc.cnt[parent_of[g]] += acc.cnt[g];
    auto roll_up = [&](const std::vector<double>& from,
                       std::vector<double>* to) {
      for (size_t g = 0; g < from.size(); ++g) (*to)[parent_of[g]] += from[g];
    };
    for (size_t j = 0; j < t; ++j) {
      roll_up(acc.sums[j], &pacc.sums[j]);
      roll_up(acc.sums2[j], &pacc.sums2[j]);
      for (size_t g = 0; g < acc.median_values[j].size(); ++g) {
        const auto& vals = acc.median_values[j][g];
        auto& bucket = pacc.median_values[j][parent_of[g]];
        bucket.insert(bucket.end(), vals.begin(), vals.end());
      }
    }
    const std::vector<double> finals =
        FinalizeGrouped(base.aggregates, &pacc);

    // Emit in parent intern order; parents with no surviving rows are
    // absent (SQL semantics).
    std::vector<int64_t> parent_codes;
    parent_codes.reserve(P * positions.size());
    for (const GroupKey& key : interner.keys()) {
      parent_codes.insert(parent_codes.end(), key.codes.begin(),
                          key.codes.end());
    }
    Result<QueryResult> result = QueryResult::Dense(
        agg_labels, spec.group_by, KeyColumnsOf(table, parent_cols),
        std::move(parent_codes), pacc.cnt, finals);
    if (!result.ok()) {
      statuses[si] = result.status();
      return;
    }
    results[si] = std::move(result).value();
  });
  for (Status& s : statuses) {
    if (!s.ok()) return std::move(s);
  }
  return results;
}

}  // namespace cvopt
