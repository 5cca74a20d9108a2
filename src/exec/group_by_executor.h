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

class CompiledPredicate;

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
  /// A WHERE plan compiled against the table whose rows are the positions,
  /// or null: the pass visits the rows it matches, selected one storage
  /// chunk at a time (CompiledPredicate::ScanChunks) into one reused
  /// buffer per morsel. At most one of `sel` and `where` is set.
  const CompiledPredicate* where = nullptr;
  /// One Horvitz–Thompson weight per position, or null for unit weights.
  const std::vector<double>* weights = nullptr;
  /// Morsels of the chunk-order merged path, cut from the positions (rows
  /// under `where`, `sel` indices under `sel`); the merged sums are a pure
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
/// out-of-core scan through a SourceAccumulator one storage chunk at a
/// time, and all of them finalize through FinalizeGrouped.
///
/// Accumulates the query's aggregates over the rows of `table`, grouped by
/// `gidx`, which must be built over `table` (GroupIndex::Build) with the
/// query's grouping. `where` is the query's WHERE clause compiled against
/// `table`, or null for an unmasked pass; each morsel walks its storage
/// chunks, honours their zone verdicts and hands each chunk's survivors
/// straight to the row loop, so no table-sized selection exists. `weights`
/// holds one Horvitz–Thompson weight per row (a sample's own table, row i
/// carrying weights[i]), or is null for an unweighted pass: SUM/COUNT_IF
/// then add w * v, VARIANCE adds w * v * v, COUNT and the AVG/VARIANCE
/// denominators are the per-group weight sums `wcnt`, and MEDIAN buffers
/// (value, weight) pairs. Since 1.0 * v == v, an unweighted pass is
/// bit-identical to a weighted one with every weight 1.0.
///
/// Passes over a partitioned GroupIndex accumulate into partition-owned
/// slabs (each worker owns a disjoint group range: no cross-chunk merge,
/// and per-group sums equal the serial ascending-position sums exactly;
/// a WHERE clause rides them as a row mask); otherwise the chunk-order
/// merged morsel path runs over row ranges. On one resolved thread both
/// equal the serial ascending-row loop bit for bit.
Result<GroupedAccumulators> AccumulateGrouped(
    const Table& table, const QuerySpec& query, const GroupIndex& gidx,
    const CompiledPredicate* where,
    const std::vector<double>* weights = nullptr);

/// The loop inside AccumulateGrouped, prepared once per query for callers
/// that bring their own grouping and value streams (the group-statistics
/// pass, the out-of-core scan, which adds one storage chunk per Add).
///
/// One fused row loop adds, per visited position, its count (when the
/// pass counts rather than reading `sizes`), its weight (weighted passes)
/// and the S / S2 of the first SUM-like (AVG, SUM) or VARIANCE aggregate
/// over a column; every other distinct value stream, each COUNT_IF
/// indicator and each MEDIAN buffer gets a loop of its own over the same
/// positions. Each slab still receives its additions in ascending position
/// order, so fusing changes no bits. An aggregate of the same kind
/// (SUM-like or VARIANCE) over the same stream as an earlier one (AVG(v)
/// beside SUM(v); two VARIANCE sources over one column) makes no loop of
/// its own and copies that one's slabs, so across several Adds into one
/// *acc such a pair must share its stream in every Add or in none.
class SourceAccumulator {
 public:
  /// Prepares `aggs` (only aggs[j].func is read; COUNT makes no loop) over
  /// streams shaped like `values`: which pointer of each ValueSpan is set,
  /// and which aggregates share one. `weighted` fixes whether every pass
  /// carries weights (GroupedPass::weights set). `aggs` must outlive the
  /// accumulator.
  SourceAccumulator(const std::vector<AggSpec>& aggs,
                    const std::vector<ValueSpan>& values, bool weighted);

  /// Accumulates values[j] as aggs[j].func over `pass` into *acc, grown to
  /// the pass's group count. Adds to what earlier Adds left in *acc
  /// (counts and sums add, MEDIAN buffers append), so per-chunk Adds in
  /// chunk order add each group's values in ascending position order.
  /// Throws QueryAbortedError at morsel and storage-chunk boundaries; run
  /// it inside a GovernedSection.
  void Add(const GroupedPass& pass, const std::vector<ValueSpan>& values,
           GroupedAccumulators* acc) const;

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  const std::vector<AggSpec>* aggs_;
  bool weighted_;
  size_t fused_ = kNone;       // aggregate whose S / S2 the fused loop adds
  std::vector<size_t> sums_;   // other aggregates with a sum loop
  std::vector<size_t> medians_;
  std::vector<std::pair<size_t, size_t>> copies_;  // (j, k): j copies k
};

/// SourceAccumulator(aggs, values, pass.weights != nullptr).Add(pass,
/// values, acc): one pass with its own setup.
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

/// Finalizes `acc`, accumulated over the groups of `gidx` (an index over
/// `table`), into the query's result through QueryResult::Dense: the one
/// ending of the exact, approximate and cube executors.
Result<QueryResult> GroupedResult(const Table& table, const QuerySpec& query,
                                  const GroupIndex& gidx,
                                  GroupedAccumulators* acc);

}  // namespace cvopt

#endif  // CVOPT_EXEC_GROUP_BY_EXECUTOR_H_
