// GroupIndex: the shared vectorized group-id pipeline. It maps every row of
// a Table to a dense uint32 group id — one id per distinct combination of
// the grouping attributes, assigned in first-seen row order. The exact
// executor, the approximate executor, stratification, and workload
// deduction all consume the row->group mapping and accumulate into flat
// arrays indexed by group id instead of probing a node-based
// unordered_map<GroupKey, ...> per row.
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

class MemoryReservation;

/// The radix-partition artifact of a partitioned GroupIndex build: the one
/// row->partition->group decomposition the grouped aggregation passes above
/// the build consume instead of re-deriving their own row bucketing.
///
/// Rows are hash-partitioned by their grouping key, so a partition owns its
/// groups outright: every row of a group lands in the same partition, and
/// the global dense ids owned by distinct partitions are disjoint. Within a
/// partition the row list is in ascending row order, which is what
/// lets consumers reproduce the serial pass bit for bit (per-group value
/// sequences are exactly the serial ascending-row sequences). Local ids
/// follow first-seen order within the partition only, so consumers must
/// map locals through local_to_global (which IS in global first-seen
/// order) before touching shared state; all of them do.
struct GroupPartitions {
  /// Table rows, partition-major: partition p's rows are
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

  /// Build, shared within the ambient QueryContext: the one entry point of
  /// every full-table index (exact execution, stratification, the cube and
  /// workload deduction). An index the context's one-slot memo holds for
  /// the same table and grouping columns is returned as is; otherwise the
  /// index is built and remembered with its row->group reservation, which
  /// stays charged to the context's budget while the memo holds it.
  /// Without an ambient context it builds.
  static Result<std::shared_ptr<const GroupIndex>> BuildShared(
      const Table& table, const std::vector<std::string>& attrs);

  size_t num_groups() const { return rep_rows_.size(); }
  /// Number of mapped table rows.
  size_t num_rows() const { return row_groups_.size(); }

  const std::vector<uint32_t>& row_groups() const { return row_groups_; }
  uint32_t group_of(size_t i) const { return row_groups_[i]; }

  /// Rows mapped to each group (the stratification's n_c).
  const std::vector<uint64_t>& sizes() const { return sizes_; }
  /// Group id -> its first-seen table row (the representative KeyOf reads).
  const std::vector<uint32_t>& rep_rows() const { return rep_rows_; }

  const std::vector<size_t>& column_indices() const { return cols_; }
  Tier tier() const { return tier_; }

  /// Bytes held by the mapping, the per-group arrays and the partitions.
  uint64_t resident_bytes() const;

  /// Materializes the composite key of group g from its representative row.
  GroupKey KeyOf(size_t g) const;
  std::vector<GroupKey> Keys() const;

  /// Every group's key codes, flat: group g's KeyOf(g).codes at
  /// [g * k, (g + 1) * k) (k grouping columns), with no per-group GroupKey.
  std::vector<int64_t> KeyCodes() const;

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

  // Build, handing the row->group mapping's reservation to the caller.
  static Result<GroupIndex> BuildCharged(const Table& table,
                                         const std::vector<std::string>& attrs,
                                         MemoryReservation* mapping);

  const Table* table_ = nullptr;
  std::vector<size_t> cols_;
  Tier tier_ = Tier::kDirect;
  std::vector<uint32_t> row_groups_;  // table row -> group id
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
/// groups from their stored codes. While the packed keys span at most 2^16
/// values, a key's id is one load from a table indexed by the key; wider
/// keys probe a flat hash table. Once the packed widths exceed 64 bits the
/// router switches permanently to the wide tier (composite hash +
/// stored-code compare). Routing performs no GroupKey materialization or
/// per-key heap allocation. The router owns no storage: Bind points each
/// grouping column at raw storage, and ids carry across rebinds, so routing
/// a mapped table chunk by chunk in order yields the ids GroupIndex::Build
/// assigns the materialized table: the file's group directory, which later
/// out-of-core scans read through FindBatch.
class StreamGroupRouter {
 public:
  /// One grouping column's storage: `ints` for an int64 column, `codes`
  /// for a string column's dictionary codes (the other is not read).
  struct ColumnRef {
    const int64_t* ints = nullptr;
    const int32_t* codes = nullptr;
  };
  static constexpr uint32_t kNotFound = UINT32_MAX;

  /// Router over grouping columns of the given types (int64 or string; an
  /// empty list routes every row to group 0). Bind supplies each column's
  /// storage before rows are routed.
  explicit StreamGroupRouter(const std::vector<DataType>& types);

  /// Grouping column j reads `ints` (an int64 column) or `codes` (a string
  /// column's dictionary codes) until the next Bind. Route(r) reads element
  /// r, so the storage must hold every row routed and outlive those Route
  /// calls — a caller whose table grows rebinds after each append.
  void Bind(size_t j, const int64_t* ints, const int32_t* codes);

  /// Dense id of the row's group, assigning the next id on first sight
  /// (`Route(r) == num_groups()-before` detects a new group).
  uint32_t Route(uint32_t row);

  /// Read-only batched lookup: for i in [0, n), out[rows[i]] = the id of
  /// row rows[i]'s group, reading grouping column j from cols[j] (not from
  /// the bound storage), or kNotFound for a key the router never routed.
  /// Returns false if any key was not found. Assigns no id, so any number
  /// of threads may look up at once while nothing routes.
  bool FindBatch(const ColumnRef* cols, const uint32_t* rows, size_t n,
                 uint32_t* out) const;

  size_t num_groups() const { return groups_; }
  /// Bytes held by the slot and direct tables and the stored keys.
  size_t byte_size() const {
    return slots_.capacity() * sizeof(Slot) +
           direct_.capacity() * sizeof(uint32_t) +
           codes_.capacity() * sizeof(int64_t);
  }
  size_t arity() const { return plans_.size(); }
  /// False once the router has fallen back to the wide (hash + compare)
  /// tier; true while keys still bit-pack into one word.
  bool packed() const { return !wide_; }

  /// Every group's raw codes, flat: group g's at [g * arity(), (g + 1) *
  /// arity()), matching GroupIndex::KeyCodes over the same columns.
  const std::vector<int64_t>& key_codes() const { return codes_; }

 private:
  struct ColPlan {
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

  int64_t RawCode(const ColumnRef* cols, size_t j, uint32_t row) const {
    return plans_[j].is_string ? cols[j].codes[row] : cols[j].ints[row];
  }
  uint64_t PackGroup(size_t g) const;
  uint64_t WideHashGroup(size_t g) const;
  // The one slot-placement rule (packed keys position by HashMix64, wide
  // hashes by themselves; masked linear probe to an empty slot) — shared by
  // insertion, growth and rebuild so every slot stays findable by Find.
  void PlaceSlot(std::vector<Slot>& slots, size_t mask, Slot s) const;
  uint32_t Find(const ColumnRef* cols, uint32_t row) const;
  uint32_t Add(uint32_t row);
  void Widen(size_t col, uint64_t code);
  // Field offsets from the widths, then every known group re-placed.
  void Relayout();
  void GrowSlots();

  std::vector<ColPlan> plans_;
  std::vector<ColumnRef> bound_;  // Bind's storage, one per column
  int total_bits_ = 0;
  bool wide_ = false;
  std::vector<Slot> slots_;  // power-of-two size
  size_t mask_ = 0;
  std::vector<int64_t> codes_;  // group g's raw codes at [g*arity, (g+1)*arity)
  size_t groups_ = 0;
  // Id (or kNotFound) by packed key while total_bits_ <= kDirectRouteBits.
  static constexpr int kDirectRouteBits = 16;
  std::vector<uint32_t> direct_;
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
