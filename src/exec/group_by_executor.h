// Exact group-by execution over the full table — the ground truth every
// sampling method is measured against — and the weighted accumulation core
// it shares with the approximate, cube and out-of-core executors.
#ifndef CVOPT_EXEC_GROUP_BY_EXECUTOR_H_
#define CVOPT_EXEC_GROUP_BY_EXECUTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/exec/group_index.h"
#include "src/exec/query.h"
#include "src/exec/query_result.h"
#include "src/table/table.h"

namespace cvopt {

/// Runs the query exactly over every row of the table. Groups with no rows
/// passing the WHERE predicate are omitted (SQL semantics). For AVG on an
/// empty selection within a group the group is likewise omitted.
Result<QueryResult> ExecuteExact(const Table& table, const QuerySpec& query);

/// Raw per-group accumulators of a query's aggregates over a dense
/// grouping. Counts are integers (bit-exact for every chunking); sums and
/// sums2 hold one slab per aggregate; MEDIAN keeps per-group buffers whose
/// concatenation order equals the serial ascending-position order.
struct GroupedAccumulators {
  size_t num_groups = 0;
  std::vector<uint64_t> cnt;  // per-group surviving-position counts
  std::vector<double> wcnt;   // per-group weight sums; weighted passes only
  // [agg][group]; sums is empty for COUNT and MEDIAN, sums2 for all but
  // VARIANCE.
  std::vector<std::vector<double>> sums;
  std::vector<std::vector<double>> sums2;
  std::vector<std::vector<std::vector<double>>> median_values;  // unweighted
  std::vector<std::vector<std::vector<std::pair<double, double>>>>
      median_pairs;  // weighted MEDIAN: (value, weight) per position

  /// Grows cnt (and wcnt when `weighted`) and every slab and buffer `aggs`
  /// use to `groups` entries; new entries are zero / empty.
  void Grow(const std::vector<AggSpec>& aggs, size_t groups, bool weighted);
};

/// The one accumulation core: exact execution, the approximate executor
/// and the cube rollup accumulate through AccumulateGrouped, and all of
/// them, the out-of-core scan included, finalize through FinalizeGrouped.
///
/// Accumulates the query's aggregates over the positions of `gidx`, which
/// must be built over `table` with the query's grouping. Positions are
/// table rows when `rows` is null, else position i reads base row rows[i]
/// (a sample built with GroupIndex::BuildForRows over the same `rows`).
/// `sel` lists the positions surviving the query's WHERE clause, or is
/// null for an unmasked pass. `weights` holds one Horvitz–Thompson weight
/// per position, or is null for an unweighted pass: SUM/COUNT_IF then add
/// w * v, VARIANCE adds w * v * v, COUNT and the AVG/VARIANCE denominators
/// are the per-group weight sums `wcnt`, and MEDIAN buffers (value, weight)
/// pairs. Since 1.0 * v == v, an unweighted pass is bit-identical to a
/// weighted one with every weight 1.0.
///
/// Passes over a partitioned GroupIndex accumulate into partition-owned
/// slabs (each worker owns a disjoint group range: no cross-chunk merge,
/// and per-group sums equal the serial ascending-position sums exactly);
/// otherwise the chunk-order merged morsel path runs.
Result<GroupedAccumulators> AccumulateGrouped(
    const Table& table, const QuerySpec& query, const GroupIndex& gidx,
    const std::vector<uint32_t>* sel,
    const std::vector<uint32_t>* rows = nullptr,
    const std::vector<double>* weights = nullptr);

/// Finalizes raw accumulators into the aggregate-major finals array
/// finals[j * G + g]: AVG and VARIANCE divide by the group's count (its
/// weight sum when `acc` is weighted), COUNT is that count, SUM/COUNT_IF
/// are the sums, MEDIAN is the midpoint (weighted) median. Groups with no
/// surviving positions finalize to 0. Consumes the MEDIAN buffers.
std::vector<double> FinalizeGrouped(const std::vector<AggSpec>& aggs,
                                    GroupedAccumulators* acc);

}  // namespace cvopt

#endif  // CVOPT_EXEC_GROUP_BY_EXECUTOR_H_
