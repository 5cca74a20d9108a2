// GroupIndex: the shared vectorized group-id pipeline. It maps every row of
// a Table (or a caller-chosen subset of rows, e.g. a filter's survivors) to
// a dense uint32 group id — one id per distinct combination of the grouping
// attributes, assigned in first-seen row order. The exact executor, the
// approximate executor, stratification, and workload deduction all consume
// the row->group mapping and accumulate into flat arrays indexed by group id
// instead of probing a node-based unordered_map<GroupKey, ...> per row.
#ifndef CVOPT_EXEC_GROUP_INDEX_H_
#define CVOPT_EXEC_GROUP_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/parallel.h"
#include "src/stats/group_key.h"
#include "src/table/table.h"
#include "src/util/status.h"

namespace cvopt {

/// The radix-partition artifact of a partitioned GroupIndex build: the one
/// row->partition->group decomposition the grouped aggregation passes above
/// the build consume instead of re-deriving their own row bucketing.
///
/// Rows are hash-partitioned by their grouping key, so a partition owns its
/// groups outright: every row of a group lands in the same partition, and
/// the global dense ids owned by distinct partitions are disjoint. Within a
/// partition the row list is in ascending position order, which is what
/// lets consumers reproduce the serial pass bit for bit (per-group value
/// sequences are exactly the serial ascending-row sequences). Local ids
/// follow first-seen order within the partition only, so consumers must
/// map locals through local_to_global (which IS in global first-seen
/// order) before touching shared state; all of them do.
struct GroupPartitions {
  /// Mapped positions, partition-major: partition p's positions are
  /// part_rows[part_base[p] .. part_base[p+1]), ascending within p.
  std::vector<uint32_t> part_rows;
  /// Partition-local group id of each part_rows entry (aligned).
  std::vector<uint32_t> part_local;
  /// P + 1 offsets into part_rows / part_local.
  std::vector<size_t> part_base;
  /// Concatenated per-partition local->global dense-id maps: partition p's
  /// local id l maps to local_to_global[group_base[p] + l]. The global id
  /// sets of distinct partitions are disjoint (partition-owned group
  /// ranges), so writes indexed by a partition's global ids never contend.
  std::vector<uint32_t> local_to_global;
  /// P + 1 offsets into local_to_global.
  std::vector<size_t> group_base;

  size_t num_partitions() const {
    return part_base.empty() ? 0 : part_base.size() - 1;
  }
  size_t num_groups_in(size_t p) const {
    return group_base[p + 1] - group_base[p];
  }
  size_t num_rows_in(size_t p) const {
    return part_base[p + 1] - part_base[p];
  }
};

/// Partition-owned slab accumulation over a GroupPartitions artifact — the
/// one shape of every partition-owned SUM/VAR-style pass (exact executor,
/// approximate executor weight and moment sums). For each partition p
/// (claimed dynamically through the shared pool), zeroed slabs s1 (and s2
/// when `use_s2`) of the partition's own group count are handed to
/// `acc(p, s1, s2)`, which iterates the partition's ascending row list
/// adding per-LOCAL-group values; the slabs are then added into S1/S2 at
/// the partition's global ids. Partitions own disjoint global id sets, so
/// the scattered adds never contend, and into zeroed S1/S2 per-group
/// results equal the serial ascending-row accumulation bit for bit — no
/// chunk merge, no float reassociation.
template <class Acc>
void AccumulatePartitioned(const GroupPartitions& gp, bool use_s2, double* S1,
                           double* S2, Acc&& acc) {
  ParallelForChunks(
      gp.num_partitions(), gp.num_partitions(), [&](size_t p, size_t, size_t) {
        const size_t gb = gp.group_base[p];
        const size_t ng = gp.num_groups_in(p);
        std::vector<double> s1(ng, 0.0);
        std::vector<double> s2(use_s2 ? ng : 0, 0.0);
        acc(p, s1.data(), use_s2 ? s2.data() : nullptr);
        for (size_t l = 0; l < ng; ++l) {
          S1[gp.local_to_global[gb + l]] += s1[l];
          if (use_s2) S2[gp.local_to_global[gb + l]] += s2[l];
        }
      });
}

/// Dense row -> group-id mapping for a set of grouping attributes.
///
/// Build tiers, chosen per key shape:
///   kDirect — a single dictionary-encoded string column, a single
///             small-domain int column, or a multi-column key whose packed
///             code domain is small: ids come from a dense remap array
///             indexed by the (packed) code, no hashing at all.
///   kPacked — keys whose per-column code domains bit-pack into one uint64:
///             flat open-addressing table (power-of-two capacity, linear
///             probing), no per-key heap allocation.
///   kWide   — everything else (e.g. several full-range int columns): rows
///             hash via HashCombine over their codes into the same flat
///             table layout, with a full key comparison against each
///             group's representative row on probe.
/// Every tier discovers groups by probing. Parallel builds whose strided
/// probe finds huge cardinality radix-partition the rows first and probe
/// each partition on its own (see partitions()).
class GroupIndex {
 public:
  enum class Tier { kDirect, kPacked, kWide };

  /// Resolves grouping attribute names to column indices. Doubles are not
  /// groupable. This is the single source of group-by column validation
  /// (previously copy-pasted in the exact executor, the approximate
  /// executor, and stratification).
  static Result<std::vector<size_t>> Resolve(const Table& table,
                                             const std::vector<std::string>& attrs);

  /// Builds the index over every table row. Empty `attrs` yields a single
  /// group covering the whole table.
  static Result<GroupIndex> Build(const Table& table,
                                  const std::vector<std::string>& attrs);

  /// Builds over a subset of rows (e.g. the rows passing a filter):
  /// group_of(i) is the group of table row rows[i]. Ids are dense over the
  /// groups that occur in `rows`, in first-seen position order.
  static Result<GroupIndex> BuildForRows(const Table& table,
                                         const std::vector<std::string>& attrs,
                                         const std::vector<uint32_t>& rows);

  size_t num_groups() const { return rep_rows_.size(); }
  /// Number of mapped positions (table rows for Build, subset positions for
  /// BuildForRows).
  size_t num_rows() const { return row_groups_.size(); }

  const std::vector<uint32_t>& row_groups() const { return row_groups_; }
  uint32_t group_of(size_t i) const { return row_groups_[i]; }

  /// Rows mapped to each group (the stratification's n_c).
  const std::vector<uint64_t>& sizes() const { return sizes_; }

  const std::vector<size_t>& column_indices() const { return cols_; }
  Tier tier() const { return tier_; }

  /// Bytes held by the mapping, the per-group arrays and the partitions.
  uint64_t resident_bytes() const;

  /// Materializes the composite key of group g from its representative row.
  GroupKey KeyOf(size_t g) const;
  std::vector<GroupKey> Keys() const;

  /// Appends group g's key codes (one int64 per grouping column, matching
  /// KeyOf(g).codes) to *out — the flat-key-store path of
  /// QueryResult::IngestDense, no per-group GroupKey allocation.
  void AppendKeyCodes(size_t g, std::vector<int64_t>* out) const;
  size_t key_arity() const { return cols_.size(); }

  /// Human-readable label of group g, e.g. "US|pm25".
  std::string Label(size_t g) const;

  /// Appends group g's label to *out without materializing a GroupKey —
  /// the batch-rendering path of QueryResult::IngestDense.
  void AppendLabel(size_t g, std::string* out) const;

  /// Move-out accessors for callers that keep the mapping (Stratification).
  std::vector<uint32_t> TakeRowGroups() { return std::move(row_groups_); }
  std::vector<uint64_t> TakeSizes() { return std::move(sizes_); }
  /// Group id -> its first-seen row (the representative KeyOf reads).
  std::vector<uint32_t> TakeRepRows() { return std::move(rep_rows_); }

  /// The radix-partition artifact, when the partitioned build ran (huge
  /// estimated group cardinality and a parallel chunking); null when the
  /// chunk-merge path was used. Dense ids are bit-identical either way —
  /// the artifact only adds the partition-owned decomposition for
  /// downstream passes to reuse.
  const std::shared_ptr<const GroupPartitions>& partitions() const {
    return partitions_;
  }

  /// Test-only override of the radix-path decision. mode < 0 restores the
  /// automatic heuristic (cardinality estimate + thread count); 0 forces
  /// the chunk-merge path; > 0 forces the radix path even for tiny inputs
  /// and serial runs. `partitions` > 0 pins the partition count (rounded to
  /// a power of two, capped at 256); 0 derives it from the thread count.
  static void SetRadixOverrideForTesting(int mode, size_t partitions = 0);

 private:
  GroupIndex() = default;

  const Table* table_ = nullptr;
  std::vector<size_t> cols_;
  Tier tier_ = Tier::kDirect;
  std::vector<uint32_t> row_groups_;  // position -> group id
  std::vector<uint32_t> rep_rows_;    // group id -> representative table row
  std::vector<uint64_t> sizes_;       // group id -> occurrence count
  std::shared_ptr<const GroupPartitions> partitions_;  // radix builds only
};

/// Incremental dense-id router for streaming rows — the one-pass analogue
/// of GroupIndex::Build's packed/wide tiers. Rows arrive one at a time with
/// no pre-scan, and each maps to a dense group id in first-seen order, so a
/// table replayed in row order yields exactly GroupIndex::Build's
/// row_groups ids. Per-column codes bit-pack into one uint64 while they fit
/// (strings by dictionary code, ints zig-zag encoded so negative values
/// pack tightly); field widths start minimal and widen as larger codes
/// appear mid-stream (dictionary growth), re-packing the already-routed
/// groups from their stored codes. Once the packed widths exceed 64 bits
/// the router switches permanently to the wide tier (composite hash +
/// stored-code compare). The Route path performs no GroupKey
/// materialization, per-row code-vector writes, or per-key heap allocation
/// — this replaces the flat GroupKeyInterner in the streaming CVOPT
/// sampler's per-row stratum routing, and routes the out-of-core scan's
/// chunks. The router owns no storage: Bind points each grouping column at
/// raw storage, and ids carry across rebinds, so routing a mapped table
/// chunk by chunk in order yields the ids GroupIndex::Build assigns the
/// materialized table.
class StreamGroupRouter {
 public:
  /// Router over grouping columns of the given types (int64 or string; an
  /// empty list routes every row to group 0). Bind supplies each column's
  /// storage before rows are routed.
  explicit StreamGroupRouter(const std::vector<DataType>& types,
                             size_t expected_groups = 0);

  /// Grouping column j reads `ints` (an int64 column) or `codes` (a string
  /// column's dictionary codes) until the next Bind; the other pointer is
  /// not read. Route(r) reads element r, so the storage must hold every
  /// row routed and outlive those Route calls — a caller whose table grows
  /// rebinds after each append.
  void Bind(size_t j, const int64_t* ints, const int32_t* codes);

  /// Dense id of the row's group, assigning the next id on first sight
  /// (`Route(r) == num_groups()-before` detects a new group).
  uint32_t Route(uint32_t row);

  /// Batched Route: writes out[i] = Route(rows[i]) for i in [0, n), with
  /// identical id assignment and tier transitions to the per-row loop (the
  /// batch pipelines key packing + hashing + slot prefetch on the packed
  /// tier and degrades to per-row Route on widening or the wide tier).
  void RouteBatch(const uint32_t* rows, size_t n, uint32_t* out);

  size_t num_groups() const { return groups_; }
  size_t arity() const { return plans_.size(); }
  /// False once the router has fallen back to the wide (hash + compare)
  /// tier; true while keys still bit-pack into one word.
  bool packed() const { return !wide_; }

  /// Materializes the composite key of group g (codes match
  /// GroupIndex::KeyOf over the same columns).
  GroupKey KeyOf(size_t g) const;

 private:
  struct ColPlan {
    const int64_t* ints = nullptr;   // bound storage (int64 columns)
    const int32_t* codes = nullptr;  // bound storage (string columns)
    bool is_string = false;  // dictionary codes vs raw int64 values
    int bits = 1;            // current packed field width
    int shift = 0;
  };
  struct Slot {
    uint64_t key = 0;  // packed key (packed tier) or composite hash (wide)
    uint32_t id = UINT32_MAX;
  };

  // The one raw-code -> packed-field mapping (dictionary codes verbatim,
  // ints zig-zag): probing on a live row and re-packing a stored group MUST
  // agree byte for byte, so both go through this helper.
  static uint64_t PackRaw(int64_t raw, bool is_string);

  uint64_t PackedCode(const ColPlan& p, uint32_t row) const;
  int64_t RawCode(const ColPlan& p, uint32_t row) const;
  uint64_t PackGroup(size_t g) const;
  uint64_t WideHashRow(uint32_t row) const;
  uint64_t WideHashGroup(size_t g) const;
  bool GroupEqualsRow(size_t g, uint32_t row) const;
  // The one slot-placement rule (packed keys position by HashMix64, wide
  // hashes by themselves; masked linear probe to an empty slot) — shared by
  // growth and rebuild so relocated slots stay findable by Route's probes.
  void PlaceSlot(std::vector<Slot>& slots, size_t mask, Slot s) const;
  uint32_t Insert(size_t idx, uint64_t key, uint32_t row);
  void Widen(size_t col, uint64_t code);
  void Rebuild();
  void GrowSlots();
  uint32_t RouteWide(uint32_t row);

  std::vector<ColPlan> plans_;
  int total_bits_ = 0;
  bool wide_ = false;
  std::vector<Slot> slots_;  // power-of-two size
  size_t mask_ = 0;
  std::vector<int64_t> codes_;  // group g's raw codes at [g*arity, (g+1)*arity)
  size_t groups_ = 0;
};

/// Assigns dense ids to GroupKeys via a flat open-addressing table (hash +
/// full-key compare, linear probing). For per-stratum-scale key sets where
/// the keys already exist as GroupKey objects: stratification projections.
/// Ids are assigned sequentially from 0 in
/// first-Intern order, so `Intern(k) == size()-before` detects a new key.
class GroupKeyInterner {
 public:
  explicit GroupKeyInterner(size_t expected_keys = 0);

  /// Id of `key`, assigning the next dense id on first sight.
  uint32_t Intern(const GroupKey& key);

  size_t size() const { return keys_.size(); }
  const std::vector<GroupKey>& keys() const { return keys_; }
  std::vector<GroupKey> TakeKeys() { return std::move(keys_); }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = UINT32_MAX;  // UINT32_MAX marks an empty slot
  };

  void Grow();

  std::vector<Slot> slots_;  // power-of-two size
  std::vector<GroupKey> keys_;
};

}  // namespace cvopt

#endif  // CVOPT_EXEC_GROUP_INDEX_H_
