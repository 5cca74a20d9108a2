#include "src/core/workload.h"

#include <algorithm>
#include <map>
#include <memory>

#include "src/exec/group_index.h"
#include "src/exec/parallel.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"
#include "src/util/string_util.h"

namespace cvopt {

namespace {

// Canonical identifier for a set of group-by attributes (order-insensitive).
std::string CanonicalAttrs(std::vector<std::string> attrs) {
  std::sort(attrs.begin(), attrs.end());
  return Join(attrs, ",");
}

std::string KeyToken(const GroupKey& key) {
  std::string s;
  for (int64_t c : key.codes) {
    s += StrFormat("%lld,", static_cast<long long>(c));
  }
  return s;
}

}  // namespace

Status Workload::Add(QuerySpec query, double frequency) {
  if (frequency <= 0.0) {
    return Status::InvalidArgument("workload frequency must be positive");
  }
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("workload query has no aggregates");
  }
  entries_.emplace_back(std::move(query), frequency);
  return Status::OK();
}

Result<Workload::AllocationInput> Workload::Deduce(const Table& table) const {
  if (entries_.empty()) {
    return Status::InvalidArgument("workload is empty");
  }

  AllocationInput out;

  // 1. Merge entries into distinct queries per canonical group-by set,
  //    unioning their aggregate lists (deduped by label).
  std::map<std::string, size_t> query_index;  // canonical attrs -> out.queries idx
  for (const auto& [q, freq] : entries_) {
    const std::string canon = CanonicalAttrs(q.group_by);
    auto it = query_index.find(canon);
    if (it == query_index.end()) {
      QuerySpec merged;
      merged.name = "workload[" + canon + "]";
      merged.group_by = q.group_by;
      merged.weight = 1.0;  // all weighting flows through the GroupWeightFn
      query_index.emplace(canon, out.queries.size());
      out.queries.push_back(std::move(merged));
      it = query_index.find(canon);
    }
    QuerySpec& merged = out.queries[it->second];
    for (const auto& agg : q.aggregates) {
      const std::string label = agg.Label();
      const bool present = std::any_of(
          merged.aggregates.begin(), merged.aggregates.end(),
          [&label](const AggSpec& a) { return a.Label() == label; });
      if (!present) {
        AggSpec copy = agg;
        copy.weight = 1.0;
        merged.aggregates.push_back(std::move(copy));
      }
    }
  }

  // 2. Deduce aggregation-group frequencies: for each workload entry, find
  //    the groups that actually occur under its predicate and credit the
  //    entry's frequency to each (group, aggregate) pair it requests.
  //    Key: "<canonical attrs>#<agg label>#<group key codes>".
  auto freqs = std::make_shared<std::unordered_map<std::string, double>>();
  std::map<std::string, AggregationGroup> diagnostics;

  // The group index depends only on the merged query's attribute set, so
  // entries sharing a grouping (e.g. the same query under different year
  // filters) share one full-table build.
  std::vector<std::shared_ptr<const GroupIndex>> index_cache(
      out.queries.size());
  for (const auto& [q, freq] : entries_) {
    const std::string canon = CanonicalAttrs(q.group_by);
    const size_t qi = query_index.at(canon);
    // Dense group ids over all rows; honor the WHERE predicate with one
    // per-group occurrence flag instead of a per-row key-map probe.
    if (index_cache[qi] == nullptr) {
      CVOPT_ASSIGN_OR_RETURN(
          index_cache[qi],
          GroupIndex::BuildShared(table, out.queries[qi].group_by));
    }
    const GroupIndex& gidx = *index_cache[qi];
    std::vector<uint8_t> seen(gidx.num_groups(), 0);
    if (q.where != nullptr) {
      // Vectorized predicate -> selection vector; flag only the groups that
      // actually survive the entry's WHERE clause. Replayed workloads (and
      // entries repeating a clause) hit the compiled-plan cache instead of
      // recompiling.
      CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPredicate> where,
                             CompilePredicateCached(table, q.where));
      const uint32_t* rg = gidx.row_groups().data();
      for (const uint32_t r : ParallelSelect(*where)) seen[rg[r]] = 1;
    } else {
      for (size_t g = 0; g < gidx.num_groups(); ++g) {
        seen[g] = gidx.sizes()[g] > 0 ? 1 : 0;
      }
    }
    for (size_t g = 0; g < gidx.num_groups(); ++g) {
      if (!seen[g]) continue;
      const GroupKey gkey = gidx.KeyOf(g);
      for (const auto& agg : q.aggregates) {
        const std::string label = agg.Label();
        const std::string fkey = canon + "#" + label + "#" + KeyToken(gkey);
        (*freqs)[fkey] += freq;
        auto dit = diagnostics.find(fkey);
        if (dit == diagnostics.end()) {
          diagnostics.emplace(
              fkey, AggregationGroup{
                        canon, gkey.Render(table, gidx.column_indices()),
                        label, freq});
        } else {
          dit->second.frequency += freq;
        }
      }
    }
  }

  for (const auto& [unused, ag] : diagnostics) {
    (void)unused;
    out.aggregation_groups.push_back(ag);
  }

  // 3. Bind the weight function. Captures the deduced frequencies and the
  //    per-query canonical attrs + agg labels by value.
  std::vector<std::string> canon_by_query(out.queries.size());
  std::vector<std::vector<std::string>> labels_by_query(out.queries.size());
  for (const auto& [canon, qi] : query_index) {
    canon_by_query[qi] = canon;
    for (const auto& agg : out.queries[qi].aggregates) {
      labels_by_query[qi].push_back(agg.Label());
    }
  }
  out.options.norm = CvNorm::kL2;
  out.options.group_weight_fn =
      [freqs, canon_by_query, labels_by_query](
          size_t query_index_in, const GroupKey& group_key,
          size_t agg_index) -> double {
    if (query_index_in >= canon_by_query.size()) return 0.0;
    const auto& labels = labels_by_query[query_index_in];
    if (agg_index >= labels.size()) return 0.0;
    const std::string fkey = canon_by_query[query_index_in] + "#" +
                             labels[agg_index] + "#" + KeyToken(group_key);
    auto it = freqs->find(fkey);
    return it == freqs->end() ? 0.0 : it->second;
  };
  return out;
}

}  // namespace cvopt
