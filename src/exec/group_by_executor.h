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
  // [agg][group]: c_g of a shifted pass (GroupedPass::shift_rows).
  std::vector<std::vector<double>> shifts;

  /// Grows cnt (and wcnt when `weighted`) and every slab and buffer `aggs`
  /// use to `groups` entries; new entries are zero / empty.
  void Grow(const std::vector<AggSpec>& aggs, size_t groups, bool weighted);
};

/// What one pass of the accumulation core reads besides the value streams.
struct GroupedPass {
  /// Group ids are dense in [0, num_groups).
  size_t num_groups = 0;
  /// Position -> group id: a GroupIndex's row_groups, a Stratification's
  /// row_strata, or one chunk's routed ids.
  const std::vector<uint32_t>* row_groups = nullptr;
  /// Positions per group (GroupIndex / Stratification sizes), or null for
  /// the core to count them. Partitioned and shifted passes need them.
  const std::vector<uint64_t>* sizes = nullptr;
  /// Radix-partition artifact over the same positions: partition-owned
  /// slabs instead of the chunk-order merge. Optional.
  const GroupPartitions* parts = nullptr;
  /// Surviving positions (a WHERE selection), or null for every position.
  const std::vector<uint32_t>* sel = nullptr;
  /// One Horvitz–Thompson weight per position, or null for unit weights.
  const std::vector<double>* weights = nullptr;
  /// Chunks of the chunk-order merged path; the merged sums are a pure
  /// function of this count, never of the thread count.
  size_t chunks = 1;
  /// Per-group shift rows, or null. When set, each group's SUM / VARIANCE
  /// slabs hold sums of (v - c_g) and (v - c_g)^2, where c_g is the value
  /// at the group's shift row (recorded in GroupedAccumulators::shifts).
  const std::vector<uint32_t>* shift_rows = nullptr;
};

/// One value stream as the accumulation core reads it, per position:
/// doubles, int64s or 0/1 indicator bytes, the first one set. COUNT reads
/// none.
struct ValueSpan {
  const double* doubles = nullptr;
  const int64_t* ints = nullptr;
  const uint8_t* indicator = nullptr;
};

/// The spans of validated StatSources, one per source.
std::vector<ValueSpan> SpansOf(const std::vector<StatSource>& sources);

/// The one accumulation core: exact execution, the approximate executor
/// and the cube rollup accumulate through AccumulateGrouped, the
/// out-of-core scan through AccumulateSources one storage chunk at a time,
/// and all of them finalize through FinalizeGrouped.
///
/// Accumulates the query's aggregates over the rows of `table`, grouped by
/// `gidx`, which must be built over `table` (GroupIndex::Build) with the
/// query's grouping. `sel` lists the rows surviving the query's WHERE
/// clause, or is null for an unmasked pass. `weights` holds one
/// Horvitz–Thompson weight per row (a sample's own table, row i carrying
/// weights[i]), or is null for an unweighted pass: SUM/COUNT_IF then add
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
    const std::vector<double>* weights = nullptr);

/// The loop inside AccumulateGrouped, for callers that bring their own
/// grouping and value streams (the group-statistics pass, the out-of-core
/// scan): accumulates values[j] as aggs[j].func into *acc, grown to the
/// pass's group count. Only aggs[j].func is read; COUNT makes no pass.
/// Every pass adds to what earlier passes left in *acc (counts and sums
/// add, MEDIAN buffers append), so per-chunk passes in chunk order add
/// each group's values in ascending position order. Throws
/// QueryAbortedError at morsel boundaries; run it inside a
/// GovernedSection.
void AccumulateSources(const GroupedPass& pass,
                       const std::vector<AggSpec>& aggs,
                       const std::vector<ValueSpan>& values,
                       GroupedAccumulators* acc);

/// Finalizes raw accumulators into the aggregate-major finals array
/// finals[j * G + g]: AVG and VARIANCE divide by the group's count (its
/// weight sum when `acc` is weighted), COUNT is that count, SUM/COUNT_IF
/// are the sums, MEDIAN is the midpoint (weighted) median. Groups with no
/// surviving positions finalize to 0. Consumes the MEDIAN buffers.
std::vector<double> FinalizeGrouped(const std::vector<AggSpec>& aggs,
                                    GroupedAccumulators* acc);

}  // namespace cvopt

#endif  // CVOPT_EXEC_GROUP_BY_EXECUTOR_H_
