#include "src/exec/group_index.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

#include "src/exec/parallel.h"
#include "src/exec/query_context.h"
#include "src/util/failpoint.h"
#include "src/util/hash.h"
#include "src/util/simd.h"

namespace cvopt {

namespace {

constexpr uint32_t kEmptyId = std::numeric_limits<uint32_t>::max();
// Largest dense remap the direct tier may allocate: 2^22 4-byte slots
// (16 MiB), far above any realistic grouping-key domain but bounded.
constexpr int kDirectBits = 22;

size_t NextPow2(size_t x) {
  size_t c = 1;
  while (c < x) c <<= 1;
  return c;
}

// Bits needed to encode codes 0 .. domain-1.
int BitsFor(uint64_t domain) {
  if (domain <= 1) return 0;
  int bits = 0;
  for (uint64_t v = domain - 1; v != 0; v >>= 1) ++bits;
  return bits;
}

// Per-column access plan: raw storage pointer, code domain, packing shift.
struct ColAccess {
  bool is_string = false;
  const int32_t* codes = nullptr;  // string columns (dictionary codes)
  const int64_t* ints = nullptr;   // int columns
  uint64_t base = 0;               // int columns: observed min (as bits)
  uint64_t domain = 1;             // distinct-code upper bound
  int shift = 0;

  // Code rebased to [0, domain), for bit-packing.
  uint64_t PackedCode(size_t row) const {
    return is_string ? static_cast<uint64_t>(static_cast<uint32_t>(codes[row]))
                     : static_cast<uint64_t>(ints[row]) - base;
  }
  // Raw grouping code, matching Column::GroupCode.
  int64_t RawCode(size_t row) const {
    return is_string ? codes[row] : ints[row];
  }
};

struct BuildOutput {
  GroupIndex::Tier tier = GroupIndex::Tier::kDirect;
  std::vector<uint32_t> row_groups;
  std::vector<uint32_t> rep_rows;
  std::vector<uint64_t> sizes;
  std::shared_ptr<const GroupPartitions> partitions;  // radix builds only
};

// ---------------------------------------------------------------- radix ---
// Configuration of the radix-partitioned build path. The radix path engages
// in the huge-G regime, where chunk-local tables re-discover most groups
// and the serial chunk-order merge costs ~n probes; hash-partitioning rows
// by key gives each worker exclusive ownership of a disjoint group set, so
// no merge exists at all.
constexpr size_t kRadixMinRows = size_t{1} << 16;  // below this, merge is cheap
constexpr uint64_t kRadixMinDomain = 4096;  // packed-domain floor for radix
constexpr size_t kRadixMaxPartitions = 256;  // partition ids fit one byte
constexpr size_t kRadixSampleMax = 4096;     // cardinality-probe size
// Direct-tier remaps below this many entries (1 MiB) are cheap to
// replicate per chunk; above it, key-range partitioning splits one remap
// across workers.
constexpr uint64_t kDirectRadixEntries = uint64_t{1} << 18;

std::atomic<int> g_radix_mode{-1};           // -1 auto, 0 force off, 1 force on
std::atomic<size_t> g_radix_partitions{0};   // 0 = derive from thread count

int Log2(size_t pow2) {
  int b = 0;
  while ((size_t{1} << b) < pow2) ++b;
  return b;
}

size_t RadixPartitionCount(size_t threads) {
  const size_t forced = g_radix_partitions.load(std::memory_order_relaxed);
  const size_t want = forced != 0 ? forced : std::max<size_t>(8, threads * 4);
  return NextPow2(std::min(want, kRadixMaxPartitions));
}

// Shared radix-partitioned build core. `part_of(row)` maps a row's grouping
// key to a partition in [0, P) — a pure function of the key, so a group's
// rows all land in one partition. `run_partition(p, pos, cnt, local_out,
// firsts, sizes)` discovers partition p's groups over its row list
// `pos[0..cnt)` (ascending), assigning partition-local ids in first-seen
// order into local_out and appending each new group's first row /
// occurrence count — with whatever tier-specific probing it likes, against
// a table nothing else touches.
//
// The core then renumbers local ids to global first-seen-row order:
// a group's first row is unique, so ranking all first rows in
// ascending order reproduces exactly the serial id assignment — for every
// thread count and partition count, the dense ids are bit-identical to the
// single-chunk serial build. The partition artifact (row lists, local ids,
// local->global map) is returned for downstream passes to consume.
template <class PartOf, class RunPartition>
std::shared_ptr<const GroupPartitions> RadixBuild(size_t n, size_t chunks,
                                                  size_t P, PartOf part_of,
                                                  RunPartition run_partition,
                                                  BuildOutput* out) {
  auto gp = std::make_shared<GroupPartitions>();
  gp->part_base.assign(P + 1, 0);
  gp->part_rows.resize(n);
  gp->part_local.resize(n);

  // Pass 1: partition id per row (hash evaluated once, cached in a
  // byte) + per-chunk histograms.
  std::vector<uint8_t> pp(n);
  std::vector<size_t> hist(chunks * P, 0);
  ParallelForChunks(n, chunks, [&](size_t c, size_t lo, size_t hi) {
    size_t* h = hist.data() + c * P;
    for (size_t i = lo; i < hi; ++i) {
      const uint8_t p = static_cast<uint8_t>(part_of(i));
      pp[i] = p;
      h[p]++;
    }
  });
  // Cursor sweep: partition-major bases; visiting chunks in order within a
  // partition makes the scatter stable, so each partition's row list
  // is ascending — the property that lets every consumer reproduce the
  // serial per-group sequences.
  size_t at = 0;
  for (size_t p = 0; p < P; ++p) {
    gp->part_base[p] = at;
    for (size_t c = 0; c < chunks; ++c) {
      const size_t cnt = hist[c * P + p];
      hist[c * P + p] = at;
      at += cnt;
    }
  }
  gp->part_base[P] = at;
  // Pass 2: stable scatter of rows into their partitions.
  ParallelForChunks(n, chunks, [&](size_t c, size_t lo, size_t hi) {
    size_t* cur = hist.data() + c * P;
    for (size_t i = lo; i < hi; ++i) {
      gp->part_rows[cur[pp[i]]++] = static_cast<uint32_t>(i);
    }
  });

  // Pass 3: partition-owned group discovery, no cross-worker merge. The
  // capped pool workers claim partitions dynamically (hash skew makes them
  // uneven; P of ~4x the thread count rebalances).
  std::vector<std::vector<uint32_t>> firsts(P);  // local id -> first row
  std::vector<std::vector<uint64_t>> lsizes(P);  // local id -> count
  ParallelForChunks(P, P, [&](size_t p, size_t, size_t) {
    run_partition(p, gp->part_rows.data() + gp->part_base[p],
                  gp->part_base[p + 1] - gp->part_base[p],
                  gp->part_local.data() + gp->part_base[p], &firsts[p],
                  &lsizes[p]);
  });

  gp->group_base.assign(P + 1, 0);
  for (size_t p = 0; p < P; ++p) {
    gp->group_base[p + 1] = gp->group_base[p] + firsts[p].size();
  }
  const size_t G = gp->group_base[P];
  gp->local_to_global.assign(G, 0);

  // Pass 4: renumber to global first-seen order. Mark every group's first
  // row with its concatenated local index + 1, then rank the marks by
  // a chunked count + prefix + assign — O(n), parallel, and independent of
  // the chunking (ranks follow ascending row regardless of where the
  // chunk boundaries fall).
  std::vector<uint32_t> mark(n, 0);
  ParallelForChunks(P, P, [&](size_t p, size_t, size_t) {
    const size_t base = gp->group_base[p];
    for (size_t l = 0; l < firsts[p].size(); ++l) {
      mark[firsts[p][l]] = static_cast<uint32_t>(base + l + 1);
    }
  });
  std::vector<size_t> rank_base(chunks, 0);
  ParallelForChunks(n, chunks, [&](size_t c, size_t lo, size_t hi) {
    size_t cnt = 0;
    for (size_t i = lo; i < hi; ++i) cnt += mark[i] != 0;
    rank_base[c] = cnt;
  });
  size_t rank = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t cnt = rank_base[c];
    rank_base[c] = rank;
    rank += cnt;
  }
  uint32_t* l2g = gp->local_to_global.data();
  ParallelForChunks(n, chunks, [&](size_t c, size_t lo, size_t hi) {
    uint32_t g = static_cast<uint32_t>(rank_base[c]);
    for (size_t i = lo; i < hi; ++i) {
      if (mark[i] != 0) l2g[mark[i] - 1] = g++;
    }
  });

  out->rep_rows.resize(G);
  out->sizes.resize(G);
  ParallelForChunks(P, P, [&](size_t p, size_t, size_t) {
    const size_t base = gp->group_base[p];
    for (size_t l = 0; l < firsts[p].size(); ++l) {
      const uint32_t g = l2g[base + l];
      out->rep_rows[g] = firsts[p][l];
      out->sizes[g] = lsizes[p][l];
    }
  });

  // Pass 5: rewrite local ids to global ids. Partitions own disjoint
  // row sets, so the scattered writes never contend.
  uint32_t* rg = out->row_groups.data();
  ParallelForChunks(P, P, [&](size_t p, size_t, size_t) {
    const size_t base = gp->group_base[p];
    for (size_t k = gp->part_base[p]; k < gp->part_base[p + 1]; ++k) {
      rg[gp->part_rows[k]] = l2g[base + gp->part_local[k]];
    }
  });
  return gp;
}

// Per-chunk group discovery output: groups in first-seen order within the
// chunk's row range. Keys are not stored — the merge phase recomputes
// the packed key / hash from each group's representative row.
struct LocalGroups {
  std::vector<uint32_t> rep_rows;  // local id -> representative table row
  std::vector<uint64_t> sizes;     // local id -> occurrence count in chunk
};

// Chunk-order merge + parallel id rewrite, shared by every tier. Walks the
// chunks in order and interns each local group's representative row into
// the global output via `intern` (tier-specific: dense-remap lookup, exact
// packed-key probe, or hash + representative-row compare; appends
// rep_rows/sizes for new groups and returns the global id), accumulating
// per-group sizes, then rewrites row_groups from local to global ids over
// the same chunk boundaries. Interning in chunk order is what makes the
// global ids land in serial first-seen-row order. With one chunk the
// local output IS the global output — the exact serial path, no remap.
template <class Intern>
void MergeChunks(size_t n, size_t chunks, std::vector<LocalGroups>* locals,
                 BuildOutput* out, uint32_t* rg, Intern&& intern) {
  if (chunks == 1) {
    out->rep_rows = std::move((*locals)[0].rep_rows);
    out->sizes = std::move((*locals)[0].sizes);
    return;
  }
  std::vector<std::vector<uint32_t>> to_global(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    const LocalGroups& lg = (*locals)[c];
    to_global[c].resize(lg.rep_rows.size());
    for (size_t li = 0; li < lg.rep_rows.size(); ++li) {
      const uint32_t gid = intern(lg.rep_rows[li]);
      to_global[c][li] = gid;
      out->sizes[gid] += lg.sizes[li];
    }
  }
  ParallelForChunks(n, chunks, [&](size_t c, size_t lo, size_t hi) {
    const uint32_t* map = to_global[c].data();
    for (size_t i = lo; i < hi; ++i) rg[i] = map[rg[i]];
  });
}

// Flat open-addressing group table shared by the packed and wide tiers:
// power-of-two capacity, linear probing, no per-key allocation.
struct FlatGroupTable {
  struct Slot {
    uint64_t key = 0;  // packed key (kPacked) or composite hash (kWide)
    uint32_t id = kEmptyId;
  };

  explicit FlatGroupTable(uint64_t expected) {
    capacity = NextPow2(static_cast<size_t>(std::max<uint64_t>(64, 2 * expected)));
    slots.assign(capacity, Slot{});
    mask = capacity - 1;
  }

  void Grow() {
    capacity <<= 1;
    mask = capacity - 1;
    std::vector<Slot> fresh(capacity);
    for (const Slot& s : slots) {
      if (s.id == kEmptyId) continue;
      size_t idx = HashMix64(s.key) & mask;
      while (fresh[idx].id != kEmptyId) idx = (idx + 1) & mask;
      fresh[idx] = s;
    }
    slots.swap(fresh);
  }

  bool NeedsGrow(size_t live) const { return live * 10 >= capacity * 7; }

  // Linear-probe find-or-insert, the one probing sequence every tier and
  // merge pass shares. A slot matches when its key equals `key` AND
  // `matches(slot_id)` holds (the exact-key tier passes a trivial matcher;
  // the wide tier compares representative rows). On a miss, `on_insert`
  // appends the new group and returns {new id, live group count} for the
  // load-factor check. Returns the slot's id either way.
  template <class Matches, class OnInsert>
  uint32_t FindOrInsert(uint64_t key, Matches&& matches, OnInsert&& on_insert) {
    return FindOrInsertHashed(HashMix64(key), key,
                              std::forward<Matches>(matches),
                              std::forward<OnInsert>(on_insert));
  }

  // FindOrInsert with a precomputed HashMix64(key) — the batched probe
  // pipeline mixes hashes eight lanes at a time and prefetches the home
  // slots before probing. The probe start is recomputed from the CURRENT
  // mask, so a Grow() triggered earlier in the same batch (which moves
  // every slot) is handled naturally; only the prefetches go stale.
  template <class Matches, class OnInsert>
  uint32_t FindOrInsertHashed(uint64_t hash, uint64_t key, Matches&& matches,
                              OnInsert&& on_insert) {
    size_t idx = static_cast<size_t>(hash) & mask;
    while (slots[idx].id != kEmptyId) {
      if (slots[idx].key == key && matches(slots[idx].id)) {
        return slots[idx].id;
      }
      idx = (idx + 1) & mask;
    }
    const std::pair<uint32_t, size_t> inserted = on_insert();
    slots[idx] = {key, inserted.first};
    if (NeedsGrow(inserted.second)) Grow();
    return inserted.first;
  }

  std::vector<Slot> slots;
  size_t capacity = 0;
  size_t mask = 0;
};

// 8-wide hash + prefetch pipeline over a packed-key probe loop: pack the
// block's keys, mix all eight (one SIMD call when a backend is active,
// scalar HashMix64 otherwise — identical bits either way, see simd.h),
// prefetch each key's home slot, then run `probe(i, key, hash)` in
// row order. The probes stay scalar and sequential, so ids and table
// state evolve exactly as in the one-row-at-a-time loop; the batch only
// overlaps the cache-miss latency of the eight home-slot reads.
template <class PackAt, class Probe>
void BatchedPackedProbe(size_t lo, size_t hi, const FlatGroupTable& t,
                        PackAt pack_at, Probe probe) {
  constexpr size_t kBatch = 8;
  const simd::Ops* ops = simd::ActiveOps();
  uint64_t keys[kBatch];
  uint64_t hashes[kBatch];
  size_t i = lo;
  for (; i + kBatch <= hi; i += kBatch) {
    for (size_t j = 0; j < kBatch; ++j) keys[j] = pack_at(i + j);
    if (ops != nullptr) {
      ops->hash_mix64_x8(keys, hashes);
    } else {
      for (size_t j = 0; j < kBatch; ++j) hashes[j] = HashMix64(keys[j]);
    }
    for (size_t j = 0; j < kBatch; ++j) {
      simd::PrefetchRead(&t.slots[static_cast<size_t>(hashes[j]) & t.mask]);
    }
    for (size_t j = 0; j < kBatch; ++j) probe(i + j, keys[j], hashes[j]);
  }
  for (; i < hi; ++i) {
    const uint64_t key = pack_at(i);
    probe(i, key, HashMix64(key));
  }
}

// The packed key of a K-column grouping, with the column plans held by
// value: the direct tier's row loop keeps them in registers instead of
// reloading them through memory its stores may alias.
template <size_t K>
struct FixedPackedKey {
  ColAccess cols[K];
  uint64_t operator()(size_t r) const {
    uint64_t key = 0;
    for (size_t j = 0; j < K; ++j) key |= cols[j].PackedCode(r) << cols[j].shift;
    return key;
  }
};

// Calls body(key_of) with key_of(row) == pack(row): a FixedPackedKey for
// keys of one to three columns, `pack` itself for wider ones.
template <class Pack, class Body>
void WithPackedKey(const std::vector<ColAccess>& acc, Pack pack, Body&& body) {
  switch (acc.size()) {
    case 1:
      body(FixedPackedKey<1>{{acc[0]}});
      break;
    case 2:
      body(FixedPackedKey<2>{{acc[0], acc[1]}});
      break;
    case 3:
      body(FixedPackedKey<3>{{acc[0], acc[1], acc[2]}});
      break;
    default:
      body(pack);
  }
}

// Strided-sample distinct-group probe: builds a small local table over
// min(n, kRadixSampleMax) evenly-strided rows and reports high cardinality
// when at least 7/8 of the probes are distinct, meaning chunk-local tables
// would mostly re-discover the same groups and the radix build pays off.
// (At 4 threads over 2M rows an exact AVG over a 10k-group key, which
// samples 0.82 distinct, runs 2.5-5x faster by chunk merge; over 160k
// groups, 0.99 distinct, radix ties or wins.) A pure function of the
// data — never of the thread count — and the ids are bit-identical
// whichever way the decision goes, so the probe only steers performance.
template <class KeyFn, class EqFn>
bool RadixSampleHighCardinality(size_t n, KeyFn key_fn, EqFn eq) {
  const size_t sample = std::min(n, kRadixSampleMax);
  const size_t stride = n / sample;
  FlatGroupTable t(sample);
  std::vector<uint32_t> reps;  // representative rows of sampled groups
  reps.reserve(sample);
  for (size_t i = 0; i < sample; ++i) {
    const size_t r = i * stride;
    t.FindOrInsert(
        key_fn(r),
        [&](uint32_t cand) { return eq(r, static_cast<size_t>(reps[cand])); },
        [&] {
          reps.push_back(static_cast<uint32_t>(r));
          return std::make_pair(static_cast<uint32_t>(reps.size() - 1),
                                reps.size());
        });
  }
  return reps.size() * 8 >= sample * 7;
}

// Core build over every row of `table`.
//
// Parallel shape (morsel-driven, static chunking through the shared pool):
//   1. each chunk discovers its groups locally, assigning chunk-local ids in
//      first-seen order and writing them into row_groups;
//   2. a serial merge walks the chunks in order and interns each local
//      group into the global table, so global ids land in exactly the
//      serial first-seen-row order (a key's earliest chunk is merged
//      first, and within a chunk local ids are first-seen ordered) — the
//      output is bit-identical to the single-chunk build for every thread
//      count;
//   3. a parallel rewrite pass over the same chunk boundaries maps local
//      ids to global ids.
// With one chunk (threads == 1 or a small input) step 1 runs inline over
// the whole range and steps 2–3 collapse to moves: the exact serial path.
BuildOutput BuildImpl(const Table& table, const std::vector<size_t>& cols) {
  const size_t n = table.num_rows();
  BuildOutput out;
  out.row_groups.assign(n, 0);

  if (cols.empty()) {
    // Single group covering every row (even zero of them), matching
    // the empty-attribute stratification.
    out.rep_rows.push_back(0);
    out.sizes.push_back(n);
    return out;
  }
  if (n == 0) return out;

  const size_t chunks = ParallelChunkCount(n, ResolveThreads());

  // Column access plans and code domains: dictionary size for strings, the
  // observed [min, max] for ints, read off the table's zone maps (each
  // chunk's exact [min, max]).
  const ZoneMapIndex& zones = *table.zone_index();
  std::vector<ColAccess> acc(cols.size());
  int total_bits = 0;
  uint64_t domain_product = 1;
  for (size_t j = 0; j < cols.size(); ++j) {
    const Column& col = table.column(cols[j]);
    ColAccess& a = acc[j];
    if (col.type() == DataType::kString) {
      a.is_string = true;
      a.codes = col.codes().data();
      a.domain = std::max<uint64_t>(1, col.dictionary().size());
    } else {
      a.ints = col.ints().data();
      int64_t lo = std::numeric_limits<int64_t>::max();
      int64_t hi = std::numeric_limits<int64_t>::min();
      for (const ZoneMap& z : zones.columns[cols[j]]) {
        lo = std::min(lo, z.imin);
        hi = std::max(hi, z.imax);
      }
      a.base = static_cast<uint64_t>(lo);
      const uint64_t spread =
          static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
      a.domain = spread == std::numeric_limits<uint64_t>::max()
                     ? std::numeric_limits<uint64_t>::max()
                     : spread + 1;
    }
    a.shift = std::min(total_bits, 63);
    total_bits += a.domain == std::numeric_limits<uint64_t>::max()
                      ? 64
                      : BitsFor(a.domain);
    total_bits = std::min(total_bits, 127);  // saturate, avoid int overflow
    domain_product = domain_product > std::numeric_limits<uint64_t>::max() / a.domain
                         ? std::numeric_limits<uint64_t>::max()
                         : domain_product * a.domain;
  }

  auto pack = [&acc](size_t r) {
    uint64_t key = 0;
    for (const ColAccess& a : acc) key |= a.PackedCode(r) << a.shift;
    return key;
  };
  auto wide_hash = [&acc](size_t r) {
    uint64_t h = kKeyHashSeed;
    for (const ColAccess& a : acc) {
      h = HashCombine(h, static_cast<uint64_t>(a.RawCode(r)));
    }
    return h;
  };
  auto rows_equal = [&acc](size_t r1, size_t r2) {
    for (const ColAccess& a : acc) {
      if (a.RawCode(r1) != a.RawCode(r2)) return false;
    }
    return true;
  };

  uint32_t* rg = out.row_groups.data();

  // The direct tier must also be worth its remap: bounded bits alone would
  // let a 1k-row sample over a ~4M-spread int column allocate and clear a
  // 16 MiB array to map 1k rows, so require the remap to stay within a
  // small multiple of the mapped row count (the flat-hash tier below is
  // already bounded by min(n, domain product)).
  const bool direct_worthwhile =
      total_bits <= kDirectBits &&
      (uint64_t{1} << total_bits) <=
          std::max<uint64_t>(1024, 8 * static_cast<uint64_t>(n));

  // Radix-path decision scaffolding, shared by the tiers below. Forced
  // modes (tests) bypass the size gates; the automatic heuristic engages
  // only when the build is parallel and big enough that the chunk-order
  // merge's ~n probes would dominate.
  const int radix_mode = g_radix_mode.load(std::memory_order_relaxed);
  const bool radix_auto_ok =
      radix_mode != 0 && chunks > 1 && n >= kRadixMinRows;

  if (direct_worthwhile) {
    const uint64_t remap_entries = uint64_t{1} << total_bits;
    if (radix_mode == 1 ||
        (radix_auto_ok && remap_entries >= kDirectRadixEntries &&
         RadixSampleHighCardinality(
             n, pack, [](size_t, size_t) { return true; }))) {
      // Direct-tier radix: partition by the HIGH bits of the packed key, so
      // each partition owns a contiguous key range and a remap slice of
      // remap_entries / P entries — the per-partition remaps tile the one
      // serial remap instead of replicating it per chunk.
      const size_t P = std::min<size_t>(RadixPartitionCount(ResolveThreads()),
                                        static_cast<size_t>(remap_entries));
      const int slice_bits = total_bits - Log2(P);
      const uint64_t slice_mask = (uint64_t{1} << slice_bits) - 1;
      out.tier = GroupIndex::Tier::kDirect;
      out.partitions = RadixBuild(
          n, chunks, P,
          [&](size_t r) { return pack(r) >> slice_bits; },
          [&](size_t, const uint32_t* pos, size_t cnt, uint32_t* local_out,
              std::vector<uint32_t>* lf, std::vector<uint64_t>* ls) {
            std::vector<uint32_t> remap(size_t{1} << slice_bits, kEmptyId);
            for (size_t k = 0; k < cnt; ++k) {
              const size_t r = pos[k];
              const uint64_t key = pack(r) & slice_mask;
              uint32_t id = remap[key];
              if (id == kEmptyId) {
                id = static_cast<uint32_t>(lf->size());
                remap[key] = id;
                lf->push_back(pos[k]);
                ls->push_back(0);
              }
              local_out[k] = id;
              (*ls)[id]++;
            }
          },
          &out);
      return out;
    }
    // Tier kDirect: dense remap indexed by the packed code — dictionary
    // codes / small int domains map straight to ids with no hashing.
    // Every chunk allocates and zero-fills its own remap, so apply the
    // worthwhile criterion per chunk too: cap the fan-out where a chunk's
    // row share would undershoot it (otherwise clear traffic and memory
    // scale with the thread count instead of the data).
    size_t dchunks = chunks;
    if (remap_entries > 1024) {
      dchunks = std::min<size_t>(
          chunks, std::max<uint64_t>(
                      1, static_cast<uint64_t>(n) / (remap_entries / 8)));
    }
    const size_t chunks = dchunks;  // shadow: all passes below use the cap
    std::vector<LocalGroups> locals(chunks);
    ParallelForChunks(n, chunks, [&](size_t c, size_t lo, size_t hi) {
      LocalGroups& lg = locals[c];
      std::vector<uint32_t> remap(size_t{1} << total_bits, kEmptyId);
      WithPackedKey(acc, pack, [&](auto key_of) {
        for (size_t i = lo; i < hi; ++i) {
          const uint64_t key = key_of(i);
          uint32_t id = remap[key];
          if (id == kEmptyId) {
            id = static_cast<uint32_t>(lg.rep_rows.size());
            remap[key] = id;
            lg.rep_rows.push_back(static_cast<uint32_t>(i));
            lg.sizes.push_back(0);
          }
          rg[i] = id;
          lg.sizes[id]++;
        }
      });
    });
    out.tier = GroupIndex::Tier::kDirect;
    std::vector<uint32_t> global_remap;
    if (chunks > 1) global_remap.assign(size_t{1} << total_bits, kEmptyId);
    MergeChunks(n, chunks, &locals, &out, rg, [&](uint32_t rep) {
      const uint64_t key = pack(rep);
      uint32_t gid = global_remap[key];
      if (gid == kEmptyId) {
        gid = static_cast<uint32_t>(out.rep_rows.size());
        global_remap[key] = gid;
        out.rep_rows.push_back(rep);
        out.sizes.push_back(0);
      }
      return gid;
    });
    return out;
  }

  const uint64_t expected = std::min<uint64_t>(
      {static_cast<uint64_t>(n), domain_product, uint64_t{1} << 20});

  if (total_bits <= 64) {
    // Tier kPacked: per-column codes bit-pack into one uint64; probe on the
    // exact packed key, so no key comparison beyond one integer. The
    // strided cardinality probe runs only above the radix size gates and a
    // packed-domain floor (below them the chunk-order merge is cheap).
    const bool probe_high_card =
        radix_mode != 1 && radix_auto_ok &&
        domain_product >= kRadixMinDomain &&
        RadixSampleHighCardinality(n, pack,
                                   [](size_t, size_t) { return true; });
    if (radix_mode == 1 || probe_high_card) {
      // Packed-tier radix: partition by the top bits of the mixed packed
      // key (the local tables probe on the low bits of the same mix).
      const size_t P = RadixPartitionCount(ResolveThreads());
      const int shift = 64 - Log2(P);
      out.tier = GroupIndex::Tier::kPacked;
      out.partitions = RadixBuild(
          n, chunks, P,
          [&](size_t r) {
            return P == 1 ? uint64_t{0} : HashMix64(pack(r)) >> shift;
          },
          [&](size_t, const uint32_t* pos, size_t cnt, uint32_t* local_out,
              std::vector<uint32_t>* lf, std::vector<uint64_t>* ls) {
            FlatGroupTable t(std::min<uint64_t>(expected, cnt));
            BatchedPackedProbe(
                0, cnt, t, [&](size_t k) { return pack(pos[k]); },
                [&](size_t k, uint64_t key, uint64_t hash) {
                  const uint32_t id = t.FindOrInsertHashed(
                      hash, key, [](uint32_t) { return true; },
                      [&] {
                        const uint32_t fresh =
                            static_cast<uint32_t>(lf->size());
                        lf->push_back(pos[k]);
                        ls->push_back(0);
                        return std::make_pair(fresh, lf->size());
                      });
                  local_out[k] = id;
                  (*ls)[id]++;
                });
          },
          &out);
      return out;
    }
    std::vector<LocalGroups> locals(chunks);
    ParallelForChunks(n, chunks, [&](size_t c, size_t lo, size_t hi) {
      LocalGroups& lg = locals[c];
      FlatGroupTable t(std::min<uint64_t>(expected, hi - lo));
      BatchedPackedProbe(
          lo, hi, t, [&](size_t i) { return pack(i); },
          [&](size_t i, uint64_t key, uint64_t hash) {
            const uint32_t id = t.FindOrInsertHashed(
                hash, key, [](uint32_t) { return true; },
                [&] {
                  const uint32_t fresh =
                      static_cast<uint32_t>(lg.rep_rows.size());
                  lg.rep_rows.push_back(static_cast<uint32_t>(i));
                  lg.sizes.push_back(0);
                  return std::make_pair(fresh, lg.rep_rows.size());
                });
            rg[i] = id;
            lg.sizes[id]++;
          });
    });
    out.tier = GroupIndex::Tier::kPacked;
    size_t local_total = 0;
    if (chunks > 1) {
      for (const auto& lg : locals) local_total += lg.rep_rows.size();
    }
    FlatGroupTable t(local_total);  // minimal when the merge is a no-op
    MergeChunks(n, chunks, &locals, &out, rg, [&](uint32_t rep) {
      return t.FindOrInsert(
          pack(rep), [](uint32_t) { return true; },
          [&] {
            const uint32_t fresh = static_cast<uint32_t>(out.rep_rows.size());
            out.rep_rows.push_back(rep);
            out.sizes.push_back(0);
            return std::make_pair(fresh, out.rep_rows.size());
          });
    });
    return out;
  }

  // Tier kWide: codes do not fit one word. Hash the composite key and
  // verify candidates against each group's representative row.
  if (radix_mode == 1 ||
      (radix_auto_ok &&
       RadixSampleHighCardinality(n, wide_hash, rows_equal))) {
    // Wide-tier radix: partition by the top bits of the mixed composite
    // hash; the local probe verifies candidates against the partition's
    // own representative rows.
    const size_t P = RadixPartitionCount(ResolveThreads());
    const int shift = 64 - Log2(P);
    out.tier = GroupIndex::Tier::kWide;
    out.partitions = RadixBuild(
        n, chunks, P,
        [&](size_t r) {
          return P == 1 ? uint64_t{0} : HashMix64(wide_hash(r)) >> shift;
        },
        [&](size_t, const uint32_t* pos, size_t cnt, uint32_t* local_out,
            std::vector<uint32_t>* lf, std::vector<uint64_t>* ls) {
          FlatGroupTable t(std::min<uint64_t>(expected, cnt));
          for (size_t k = 0; k < cnt; ++k) {
            const size_t r = pos[k];
            const uint32_t id = t.FindOrInsert(
                wide_hash(r),
                [&](uint32_t cand) {
                  return rows_equal(r, (*lf)[cand]);
                },
                [&] {
                  const uint32_t fresh = static_cast<uint32_t>(lf->size());
                  lf->push_back(pos[k]);
                  ls->push_back(0);
                  return std::make_pair(fresh, lf->size());
                });
            local_out[k] = id;
            (*ls)[id]++;
          }
        },
        &out);
    return out;
  }
  std::vector<LocalGroups> locals(chunks);
  ParallelForChunks(n, chunks, [&](size_t c, size_t lo, size_t hi) {
    LocalGroups& lg = locals[c];
    FlatGroupTable t(std::min<uint64_t>(expected, hi - lo));
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t id = t.FindOrInsert(
          wide_hash(i),
          [&](uint32_t cand) { return rows_equal(i, lg.rep_rows[cand]); },
          [&] {
            const uint32_t fresh = static_cast<uint32_t>(lg.rep_rows.size());
            lg.rep_rows.push_back(static_cast<uint32_t>(i));
            lg.sizes.push_back(0);
            return std::make_pair(fresh, lg.rep_rows.size());
          });
      rg[i] = id;
      lg.sizes[id]++;
    }
  });
  out.tier = GroupIndex::Tier::kWide;
  size_t local_total = 0;
  if (chunks > 1) {
    for (const auto& lg : locals) local_total += lg.rep_rows.size();
  }
  FlatGroupTable t(local_total);  // minimal when the merge is a no-op
  MergeChunks(n, chunks, &locals, &out, rg, [&](uint32_t rep) {
    return t.FindOrInsert(
        wide_hash(rep),
        [&](uint32_t cand) { return rows_equal(rep, out.rep_rows[cand]); },
        [&] {
          const uint32_t fresh = static_cast<uint32_t>(out.rep_rows.size());
          out.rep_rows.push_back(rep);
          out.sizes.push_back(0);
          return std::make_pair(fresh, out.rep_rows.size());
        });
  });
  return out;
}

}  // namespace

void GroupIndex::SetRadixOverrideForTesting(int mode, size_t partitions) {
  g_radix_mode.store(mode < 0 ? -1 : (mode == 0 ? 0 : 1),
                     std::memory_order_relaxed);
  g_radix_partitions.store(partitions, std::memory_order_relaxed);
}

Result<std::vector<size_t>> GroupIndex::Resolve(
    const Table& table, const std::vector<std::string>& attrs) {
  std::vector<size_t> cols;
  cols.reserve(attrs.size());
  for (const auto& a : attrs) {
    CVOPT_ASSIGN_OR_RETURN(size_t idx, table.ColumnIndex(a));
    if (table.column(idx).type() == DataType::kDouble) {
      return Status::InvalidArgument("cannot group by double column '" + a + "'");
    }
    cols.push_back(idx);
  }
  return cols;
}

Result<GroupIndex> GroupIndex::Build(const Table& table,
                                     const std::vector<std::string>& attrs) {
  MemoryReservation mapping;
  return BuildCharged(table, attrs, &mapping);
}

Result<GroupIndex> GroupIndex::BuildCharged(
    const Table& table, const std::vector<std::string>& attrs,
    MemoryReservation* mapping) {
 return GovernedSection([&]() -> Result<GroupIndex> {
  CVOPT_ASSIGN_OR_RETURN(std::vector<size_t> cols, Resolve(table, attrs));
  GroupIndex out;
  out.table_ = &table;
  out.cols_ = std::move(cols);
  // The row->group mapping is the build's dominant working memory; the
  // serial, chunk-local, and radix passes below all check governance at
  // their morsel boundaries through the shared scheduler.
  CVOPT_FAILPOINT("exec.group_index.alloc");
  *mapping = ReserveMemoryOrThrow(
      table.num_rows() * sizeof(uint32_t), "GroupIndex row->group mapping");
  BuildOutput built = BuildImpl(table, out.cols_);
  out.tier_ = built.tier;
  out.row_groups_ = std::move(built.row_groups);
  out.rep_rows_ = std::move(built.rep_rows);
  out.sizes_ = std::move(built.sizes);
  out.partitions_ = std::move(built.partitions);
  return out;
 });
}

Result<std::shared_ptr<const GroupIndex>> GroupIndex::BuildShared(
    const Table& table, const std::vector<std::string>& attrs) {
  const QueryContext* ctx = CurrentQueryContext();
  std::vector<size_t> cols;
  if (ctx != nullptr) {
    CVOPT_ASSIGN_OR_RETURN(cols, Resolve(table, attrs));
    if (auto memo = ctx->FindGroupIndex(table, cols)) return memo;
  }
  MemoryReservation mapping;
  CVOPT_ASSIGN_OR_RETURN(GroupIndex built, BuildCharged(table, attrs, &mapping));
  auto index = std::make_shared<const GroupIndex>(std::move(built));
  if (ctx != nullptr) {
    ctx->RememberGroupIndex(table, std::move(cols), index, std::move(mapping));
  }
  return index;
}

uint64_t GroupIndex::resident_bytes() const {
  uint64_t bytes = (row_groups_.size() + rep_rows_.size()) * sizeof(uint32_t) +
                   sizes_.size() * sizeof(uint64_t);
  if (partitions_ != nullptr) {
    const GroupPartitions& p = *partitions_;
    bytes += (p.part_rows.size() + p.part_local.size() +
              p.local_to_global.size()) * sizeof(uint32_t) +
             (p.part_base.size() + p.group_base.size()) * sizeof(size_t);
  }
  return bytes;
}

GroupKey GroupIndex::KeyOf(size_t g) const {
  GroupKey key;
  key.codes.reserve(cols_.size());
  for (size_t c : cols_) {
    key.codes.push_back(table_->column(c).GroupCode(rep_rows_[g]));
  }
  return key;
}

std::vector<int64_t> GroupIndex::KeyCodes() const {
  const size_t k = cols_.size();
  std::vector<int64_t> codes(num_groups() * k);
  for (size_t j = 0; j < k; ++j) {
    const Column& col = table_->column(cols_[j]);
    for (size_t g = 0; g < num_groups(); ++g) {
      codes[g * k + j] = col.GroupCode(rep_rows_[g]);
    }
  }
  return codes;
}

std::vector<GroupKey> GroupIndex::Keys() const {
  std::vector<GroupKey> keys;
  keys.reserve(num_groups());
  for (size_t g = 0; g < num_groups(); ++g) keys.push_back(KeyOf(g));
  return keys;
}

StreamGroupRouter::StreamGroupRouter(const std::vector<DataType>& types)
    : bound_(types.size()), slots_(64), mask_(63) {
  for (DataType type : types) {
    CVOPT_CHECK(type != DataType::kDouble, "cannot route by a double column");
    ColPlan p;
    p.is_string = type == DataType::kString;
    plans_.push_back(p);
  }
  // Minimal initial widths: every column starts at one bit and widens as
  // codes appear, so the packed layout always reflects only what the
  // stream has shown so far (no pre-scan). More columns than packable bits
  // (one bit each) starts in the wide tier outright.
  Relayout();
}

void StreamGroupRouter::Bind(size_t j, const int64_t* ints,
                             const int32_t* codes) {
  bound_[j] = {ints, codes};
}

uint64_t StreamGroupRouter::PackRaw(int64_t raw, bool is_string) {
  if (is_string) {
    return static_cast<uint64_t>(static_cast<uint32_t>(raw));
  }
  // Zig-zag: small-magnitude ints of either sign pack into few bits.
  return (static_cast<uint64_t>(raw) << 1) ^ static_cast<uint64_t>(raw >> 63);
}

uint64_t StreamGroupRouter::PackGroup(size_t g) const {
  const int64_t* raw = codes_.data() + g * plans_.size();
  uint64_t key = 0;
  for (size_t j = 0; j < plans_.size(); ++j) {
    const ColPlan& p = plans_[j];
    key |= PackRaw(raw[j], p.is_string) << p.shift;
  }
  return key;
}

uint64_t StreamGroupRouter::WideHashGroup(size_t g) const {
  return HashKeyCodes(codes_.data() + g * plans_.size(), plans_.size());
}

void StreamGroupRouter::PlaceSlot(std::vector<Slot>& slots, size_t mask,
                                  Slot s) const {
  // Packed slots position by the mixed packed key, wide slots by the stored
  // composite hash — the same start index Find's probes compute.
  size_t idx = (wide_ ? static_cast<size_t>(s.key)
                      : static_cast<size_t>(HashMix64(s.key))) &
               mask;
  while (slots[idx].id != kEmptyId) idx = (idx + 1) & mask;
  slots[idx] = s;
}

void StreamGroupRouter::GrowSlots() {
  std::vector<Slot> fresh(slots_.size() * 2);
  const size_t mask = fresh.size() - 1;
  for (const Slot& s : slots_) {
    if (s.id != kEmptyId) PlaceSlot(fresh, mask, s);
  }
  slots_.swap(fresh);
  mask_ = mask;
}

void StreamGroupRouter::Widen(size_t col, uint64_t code) {
  // New field width for the offending column: the bit length of the code.
  int need = 0;
  for (uint64_t v = code; v != 0; v >>= 1) ++need;
  plans_[col].bits = std::max(plans_[col].bits, need);
  Relayout();
}

void StreamGroupRouter::Relayout() {
  int shift = 0;
  for (ColPlan& p : plans_) {
    p.shift = std::min(shift, 63);
    shift += p.bits;
  }
  total_bits_ = shift;
  if (total_bits_ > 64) wide_ = true;  // permanent: widths only grow
  // Re-place every known group under the new layout (wider packed fields,
  // or wide-tier hashes after the switch). Distinct groups stay distinct,
  // so collisions only probe forward into empty slots.
  std::fill(slots_.begin(), slots_.end(), Slot{});
  for (size_t g = 0; g < groups_; ++g) {
    const uint64_t key = wide_ ? WideHashGroup(g) : PackGroup(g);
    PlaceSlot(slots_, mask_, {key, static_cast<uint32_t>(g)});
  }
  // While packed keys span at most 2^16 values, ids are also kept in a
  // table indexed by the packed key: one load per row, no probe.
  direct_ = {};
  if (plans_.empty() || wide_ || total_bits_ > kDirectRouteBits) return;
  direct_.assign(size_t{1} << total_bits_, kNotFound);
  for (size_t g = 0; g < groups_; ++g) {
    direct_[PackGroup(g)] = static_cast<uint32_t>(g);
  }
}

uint32_t StreamGroupRouter::Find(const ColumnRef* cols, uint32_t row) const {
  if (plans_.empty()) return groups_ > 0 ? 0 : kNotFound;
  const size_t arity = plans_.size();
  if (wide_) {
    uint64_t h = kKeyHashSeed;
    for (size_t j = 0; j < arity; ++j) {
      h = HashCombine(h, static_cast<uint64_t>(RawCode(cols, j, row)));
    }
    for (size_t idx = static_cast<size_t>(h) & mask_;
         slots_[idx].id != kEmptyId; idx = (idx + 1) & mask_) {
      if (slots_[idx].key != h) continue;
      const int64_t* raw = codes_.data() + slots_[idx].id * arity;
      size_t j = 0;
      while (j < arity && raw[j] == RawCode(cols, j, row)) ++j;
      if (j == arity) return slots_[idx].id;
    }
    return kNotFound;
  }
  uint64_t key = 0;
  for (size_t j = 0; j < arity; ++j) {
    const ColPlan& p = plans_[j];
    const uint64_t code = PackRaw(RawCode(cols, j, row), p.is_string);
    // A code wider than its field belongs to no routed key.
    if (p.bits < 64 && (code >> p.bits) != 0) return kNotFound;
    key |= code << p.shift;
  }
  if (!direct_.empty()) return direct_[key];
  for (size_t idx = static_cast<size_t>(HashMix64(key)) & mask_;
       slots_[idx].id != kEmptyId; idx = (idx + 1) & mask_) {
    if (slots_[idx].key == key) return slots_[idx].id;
  }
  return kNotFound;
}

uint32_t StreamGroupRouter::Add(uint32_t row) {
  // A key Find did not find: widen the fields its codes outgrow (re-packing
  // the known groups, possibly into the wide tier), then store and place it
  // under the final layout.
  if (plans_.empty()) {
    groups_ = 1;
    return 0;
  }
  const uint32_t id = static_cast<uint32_t>(groups_);
  for (size_t j = 0; j < plans_.size(); ++j) {
    const int64_t raw = RawCode(bound_.data(), j, row);
    const uint64_t code = PackRaw(raw, plans_[j].is_string);
    if (!wide_ && plans_[j].bits < 64 && (code >> plans_[j].bits) != 0) {
      Widen(j, code);
    }
    codes_.push_back(raw);
  }
  ++groups_;
  const uint64_t key = wide_ ? WideHashGroup(id) : PackGroup(id);
  PlaceSlot(slots_, mask_, {key, id});
  if (!direct_.empty()) direct_[key] = id;
  if (groups_ * 10 >= slots_.size() * 7) GrowSlots();
  return id;
}

uint32_t StreamGroupRouter::Route(uint32_t row) {
  const uint32_t id = Find(bound_.data(), row);
  return id != kNotFound ? id : Add(row);
}

bool StreamGroupRouter::FindBatch(const ColumnRef* cols, const uint32_t* rows,
                                  size_t n, uint32_t* out) const {
  bool found = true;
  if (direct_.empty()) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t id = Find(cols, rows[i]);
      found &= id != kNotFound;
      out[rows[i]] = id;
    }
    return found;
  }
  // The direct tier, a block of rows at a time: pack the keys one grouping
  // column at a time, then one direct_ load per row. A code wider than its
  // field (every field is under 16 bits here) sets the key's top bit, which
  // no direct_ index reaches; the rows are re-read for it only in a block
  // where some code is that wide.
  constexpr size_t kBlock = 512;
  constexpr uint64_t kBadKey = uint64_t{1} << 63;
  uint64_t keys[kBlock];
  const uint32_t* ids = direct_.data();
  const uint64_t span = direct_.size();
  for (size_t lo = 0; lo < n; lo += kBlock) {
    const uint32_t* r = rows + lo;
    const size_t m = std::min(kBlock, n - lo);
    std::fill_n(keys, m, uint64_t{0});
    for (size_t j = 0; j < plans_.size(); ++j) {
      const int shift = plans_[j].shift;
      const int bits = plans_[j].bits;
      const auto pack = [&](const auto* src) {
        constexpr bool kString = sizeof(*src) == sizeof(int32_t);
        uint64_t over = 0;
        for (size_t i = 0; i < m; ++i) {
          const uint64_t code = PackRaw(src[r[i]], kString);
          keys[i] |= code << shift;
          over |= code >> bits;
        }
        if (over == 0) return;
        for (size_t i = 0; i < m; ++i) {
          if ((PackRaw(src[r[i]], kString) >> bits) != 0) keys[i] |= kBadKey;
        }
      };
      if (plans_[j].is_string) {
        pack(cols[j].codes);
      } else {
        pack(cols[j].ints);
      }
    }
    for (size_t i = 0; i < m; ++i) {
      const uint32_t id = keys[i] < span ? ids[keys[i]] : kNotFound;
      found &= id != kNotFound;
      out[r[i]] = id;
    }
  }
  return found;
}

GroupKeyInterner::GroupKeyInterner(size_t expected_keys) {
  slots_.resize(NextPow2(std::max<size_t>(16, 2 * expected_keys)));
}

uint32_t GroupKeyInterner::Intern(const GroupKey& key) {
  const uint64_t h = GroupKeyHash{}(key);
  const size_t mask = slots_.size() - 1;
  size_t idx = static_cast<size_t>(h) & mask;
  while (slots_[idx].id != kEmptyId) {
    if (slots_[idx].hash == h && keys_[slots_[idx].id] == key) {
      return slots_[idx].id;
    }
    idx = (idx + 1) & mask;
  }
  const uint32_t id = static_cast<uint32_t>(keys_.size());
  slots_[idx] = {h, id};
  keys_.push_back(key);
  if (keys_.size() * 10 >= slots_.size() * 7) Grow();
  return id;
}

void GroupKeyInterner::Grow() {
  std::vector<Slot> fresh(slots_.size() * 2);
  const size_t mask = fresh.size() - 1;
  for (const Slot& s : slots_) {
    if (s.id == kEmptyId) continue;
    size_t idx = static_cast<size_t>(s.hash) & mask;
    while (fresh[idx].id != kEmptyId) idx = (idx + 1) & mask;
    fresh[idx] = s;
  }
  slots_.swap(fresh);
}

}  // namespace cvopt
