#include "src/exec/group_index.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
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
// Seed of the wide-key composite hash. The offline kWide build, the
// streaming router, and GroupKeyHash must agree so their buckets coincide.
constexpr uint64_t kWideHashSeed = 0x2545F4914F6CDD1DULL;
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
// Direct-tier remaps below this many entries are cheap to replicate per
// chunk; above it, key-range partitioning splits one remap across workers.
constexpr uint64_t kDirectRadixEntries = uint64_t{1} << 14;

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
// firsts, sizes)` discovers partition p's groups over its position list
// `pos[0..cnt)` (ascending), assigning partition-local ids in first-seen
// order into local_out and appending each new group's first position /
// occurrence count — with whatever tier-specific probing it likes, against
// a table nothing else touches.
//
// The core then renumbers local ids to global first-seen-position order:
// a group's first position is unique, so ranking all first positions in
// ascending order reproduces exactly the serial id assignment — for every
// thread count and partition count, the dense ids are bit-identical to the
// single-chunk serial build. The partition artifact (row lists, local ids,
// local->global map) is returned for downstream passes to consume.
template <class RowAt, class PartOf, class RunPartition>
std::shared_ptr<const GroupPartitions> RadixBuild(size_t n, size_t chunks,
                                                  size_t P, RowAt row_at,
                                                  PartOf part_of,
                                                  RunPartition run_partition,
                                                  BuildOutput* out) {
  auto gp = std::make_shared<GroupPartitions>();
  gp->part_base.assign(P + 1, 0);
  gp->part_rows.resize(n);
  gp->part_local.resize(n);

  // Pass 1: partition id per position (hash evaluated once, cached in a
  // byte) + per-chunk histograms.
  std::vector<uint8_t> pp(n);
  std::vector<size_t> hist(chunks * P, 0);
  ParallelForChunks(n, chunks, [&](size_t c, size_t lo, size_t hi) {
    size_t* h = hist.data() + c * P;
    for (size_t i = lo; i < hi; ++i) {
      const uint8_t p = static_cast<uint8_t>(part_of(row_at(i)));
      pp[i] = p;
      h[p]++;
    }
  });
  // Cursor sweep: partition-major bases; visiting chunks in order within a
  // partition makes the scatter stable, so each partition's position list
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
  // Pass 2: stable scatter of positions into their partitions.
  ParallelForChunks(n, chunks, [&](size_t c, size_t lo, size_t hi) {
    size_t* cur = hist.data() + c * P;
    for (size_t i = lo; i < hi; ++i) {
      gp->part_rows[cur[pp[i]]++] = static_cast<uint32_t>(i);
    }
  });

  // Pass 3: partition-owned group discovery, no cross-worker merge. The
  // capped pool workers claim partitions dynamically (hash skew makes them
  // uneven; P of ~4x the thread count rebalances).
  std::vector<std::vector<uint32_t>> firsts(P);  // local id -> first position
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
  // position with its concatenated local index + 1, then rank the marks by
  // a chunked count + prefix + assign — O(n), parallel, and independent of
  // the chunking (ranks follow ascending position regardless of where the
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
      out->rep_rows[g] = static_cast<uint32_t>(row_at(firsts[p][l]));
      out->sizes[g] = lsizes[p][l];
    }
  });

  // Pass 5: rewrite local ids to global ids. Partitions own disjoint
  // position sets, so the scattered writes never contend.
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
// chunk's position range. Keys are not stored — the merge phase recomputes
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
// global ids land in serial first-seen-position order. With one chunk the
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
// position order. The probes stay scalar and sequential, so ids and table
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

// Strided-sample distinct-group probe: builds a small local table over
// min(n, kRadixSampleMax) evenly-strided positions and reports high
// cardinality when at least half the probes are distinct, meaning
// chunk-local tables would mostly re-discover the same groups and the
// radix build pays off. A pure function of the data — never of the thread
// count — and the ids are bit-identical whichever way the decision goes,
// so the probe only steers performance.
template <class RowAt, class KeyFn, class EqFn>
bool RadixSampleHighCardinality(size_t n, RowAt row_at, KeyFn key_fn, EqFn eq) {
  const size_t sample = std::min(n, kRadixSampleMax);
  const size_t stride = n / sample;
  FlatGroupTable t(sample);
  std::vector<uint32_t> reps;  // representative rows of sampled groups
  reps.reserve(sample);
  for (size_t i = 0; i < sample; ++i) {
    const size_t r = row_at(i * stride);
    t.FindOrInsert(
        key_fn(r),
        [&](uint32_t cand) { return eq(r, static_cast<size_t>(reps[cand])); },
        [&] {
          reps.push_back(static_cast<uint32_t>(r));
          return std::make_pair(static_cast<uint32_t>(reps.size() - 1),
                                reps.size());
        });
  }
  return reps.size() * 2 >= sample;
}

// Core build, shared by Build (row_at = identity) and BuildForRows (row_at =
// sample row lookup). `n` is the number of mapped positions.
//
// Parallel shape (morsel-driven, static chunking through the shared pool):
//   1. each chunk discovers its groups locally, assigning chunk-local ids in
//      first-seen order and writing them into row_groups;
//   2. a serial merge walks the chunks in order and interns each local
//      group into the global table, so global ids land in exactly the
//      serial first-seen-position order (a key's earliest chunk is merged
//      first, and within a chunk local ids are first-seen ordered) — the
//      output is bit-identical to the single-chunk build for every thread
//      count;
//   3. a parallel rewrite pass over the same chunk boundaries maps local
//      ids to global ids.
// With one chunk (threads == 1 or a small input) step 1 runs inline over
// the whole range and steps 2–3 collapse to moves: the exact serial path.
template <class RowAt>
BuildOutput BuildImpl(const Table& table, const std::vector<size_t>& cols,
                      size_t n, RowAt row_at) {
  BuildOutput out;
  out.row_groups.assign(n, 0);

  if (cols.empty()) {
    // Single group covering every position (even zero of them), matching
    // the empty-attribute stratification.
    out.rep_rows.push_back(0);
    out.sizes.push_back(n);
    return out;
  }
  if (n == 0) return out;

  const size_t chunks = ParallelChunkCount(n, ResolveThreads());

  // Column access plans and code domains: dictionary size for strings, the
  // observed [min, max] for ints (one cheap scan over contiguous storage,
  // chunked through the pool; min/max merge associatively, so the result is
  // identical to the serial scan).
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
      std::vector<int64_t> chunk_lo(chunks), chunk_hi(chunks);
      ParallelForChunks(n, chunks, [&](size_t c, size_t lo, size_t hi) {
        int64_t vlo = a.ints[row_at(lo)];
        int64_t vhi = vlo;
        for (size_t i = lo + 1; i < hi; ++i) {
          const int64_t v = a.ints[row_at(i)];
          vlo = std::min(vlo, v);
          vhi = std::max(vhi, v);
        }
        chunk_lo[c] = vlo;
        chunk_hi[c] = vhi;
      });
      const int64_t lo = *std::min_element(chunk_lo.begin(), chunk_lo.end());
      const int64_t hi = *std::max_element(chunk_hi.begin(), chunk_hi.end());
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
    uint64_t h = kWideHashSeed;
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
  // 16 MiB array to map 1k positions, so require the remap to stay within a
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
             n, row_at, pack, [](size_t, size_t) { return true; }))) {
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
          n, chunks, P, row_at,
          [&](size_t r) { return pack(r) >> slice_bits; },
          [&](size_t, const uint32_t* pos, size_t cnt, uint32_t* local_out,
              std::vector<uint32_t>* lf, std::vector<uint64_t>* ls) {
            std::vector<uint32_t> remap(size_t{1} << slice_bits, kEmptyId);
            for (size_t k = 0; k < cnt; ++k) {
              const size_t r = row_at(pos[k]);
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
      for (size_t i = lo; i < hi; ++i) {
        const size_t r = row_at(i);
        const uint64_t key = pack(r);
        uint32_t id = remap[key];
        if (id == kEmptyId) {
          id = static_cast<uint32_t>(lg.rep_rows.size());
          remap[key] = id;
          lg.rep_rows.push_back(static_cast<uint32_t>(r));
          lg.sizes.push_back(0);
        }
        rg[i] = id;
        lg.sizes[id]++;
      }
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
        RadixSampleHighCardinality(n, row_at, pack,
                                   [](size_t, size_t) { return true; });
    if (radix_mode == 1 || probe_high_card) {
      // Packed-tier radix: partition by the top bits of the mixed packed
      // key (the local tables probe on the low bits of the same mix).
      const size_t P = RadixPartitionCount(ResolveThreads());
      const int shift = 64 - Log2(P);
      out.tier = GroupIndex::Tier::kPacked;
      out.partitions = RadixBuild(
          n, chunks, P, row_at,
          [&](size_t r) {
            return P == 1 ? uint64_t{0} : HashMix64(pack(r)) >> shift;
          },
          [&](size_t, const uint32_t* pos, size_t cnt, uint32_t* local_out,
              std::vector<uint32_t>* lf, std::vector<uint64_t>* ls) {
            FlatGroupTable t(std::min<uint64_t>(expected, cnt));
            BatchedPackedProbe(
                0, cnt, t, [&](size_t k) { return pack(row_at(pos[k])); },
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
          lo, hi, t, [&](size_t i) { return pack(row_at(i)); },
          [&](size_t i, uint64_t key, uint64_t hash) {
            const uint32_t id = t.FindOrInsertHashed(
                hash, key, [](uint32_t) { return true; },
                [&] {
                  const uint32_t fresh =
                      static_cast<uint32_t>(lg.rep_rows.size());
                  lg.rep_rows.push_back(static_cast<uint32_t>(row_at(i)));
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
       RadixSampleHighCardinality(n, row_at, wide_hash, rows_equal))) {
    // Wide-tier radix: partition by the top bits of the mixed composite
    // hash; the local probe verifies candidates against the partition's
    // own representative rows.
    const size_t P = RadixPartitionCount(ResolveThreads());
    const int shift = 64 - Log2(P);
    out.tier = GroupIndex::Tier::kWide;
    out.partitions = RadixBuild(
        n, chunks, P, row_at,
        [&](size_t r) {
          return P == 1 ? uint64_t{0} : HashMix64(wide_hash(r)) >> shift;
        },
        [&](size_t, const uint32_t* pos, size_t cnt, uint32_t* local_out,
            std::vector<uint32_t>* lf, std::vector<uint64_t>* ls) {
          FlatGroupTable t(std::min<uint64_t>(expected, cnt));
          for (size_t k = 0; k < cnt; ++k) {
            const size_t r = row_at(pos[k]);
            const uint32_t id = t.FindOrInsert(
                wide_hash(r),
                [&](uint32_t cand) {
                  return rows_equal(r, row_at((*lf)[cand]));
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
      const size_t r = row_at(i);
      const uint32_t id = t.FindOrInsert(
          wide_hash(r),
          [&](uint32_t cand) { return rows_equal(r, lg.rep_rows[cand]); },
          [&] {
            const uint32_t fresh = static_cast<uint32_t>(lg.rep_rows.size());
            lg.rep_rows.push_back(static_cast<uint32_t>(r));
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
 return GovernedSection([&]() -> Result<GroupIndex> {
  CVOPT_ASSIGN_OR_RETURN(std::vector<size_t> cols, Resolve(table, attrs));
  GroupIndex out;
  out.table_ = &table;
  out.cols_ = std::move(cols);
  // The row->group mapping is the build's dominant working memory; the
  // serial, chunk-local, and radix passes below all check governance at
  // their morsel boundaries through the shared scheduler.
  CVOPT_FAILPOINT("exec.group_index.alloc");
  MemoryReservation res = ReserveMemoryOrThrow(
      table.num_rows() * sizeof(uint32_t), "GroupIndex row->group mapping");
  BuildOutput built = BuildImpl(table, out.cols_, table.num_rows(),
                                [](size_t i) { return i; });
  out.tier_ = built.tier;
  out.row_groups_ = std::move(built.row_groups);
  out.rep_rows_ = std::move(built.rep_rows);
  out.sizes_ = std::move(built.sizes);
  out.partitions_ = std::move(built.partitions);
  return out;
 });
}

Result<GroupIndex> GroupIndex::BuildForRows(const Table& table,
                                            const std::vector<std::string>& attrs,
                                            const std::vector<uint32_t>& rows) {
 return GovernedSection([&]() -> Result<GroupIndex> {
  CVOPT_ASSIGN_OR_RETURN(std::vector<size_t> cols, Resolve(table, attrs));
  GroupIndex out;
  out.table_ = &table;
  out.cols_ = std::move(cols);
  CVOPT_FAILPOINT("exec.group_index.alloc");
  MemoryReservation res = ReserveMemoryOrThrow(
      rows.size() * sizeof(uint32_t), "GroupIndex row->group mapping");
  const uint32_t* r = rows.data();
  BuildOutput built =
      BuildImpl(table, out.cols_, rows.size(),
                [r](size_t i) { return static_cast<size_t>(r[i]); });
  out.tier_ = built.tier;
  out.row_groups_ = std::move(built.row_groups);
  out.rep_rows_ = std::move(built.rep_rows);
  out.sizes_ = std::move(built.sizes);
  out.partitions_ = std::move(built.partitions);
  return out;
 });
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

void GroupIndex::AppendKeyCodes(size_t g, std::vector<int64_t>* out) const {
  const uint32_t row = rep_rows_[g];
  for (size_t c : cols_) {
    out->push_back(table_->column(c).GroupCode(row));
  }
}

std::vector<GroupKey> GroupIndex::Keys() const {
  std::vector<GroupKey> keys;
  keys.reserve(num_groups());
  for (size_t g = 0; g < num_groups(); ++g) keys.push_back(KeyOf(g));
  return keys;
}

std::string GroupIndex::Label(size_t g) const {
  std::string out;
  AppendLabel(g, &out);
  return out;
}

void GroupIndex::AppendLabel(size_t g, std::string* out) const {
  // Renders identically to GroupKey::Render ("v1|v2|...") but straight from
  // the representative row, with no GroupKey or parts-vector allocation.
  const uint32_t row = rep_rows_[g];
  bool first = true;
  for (size_t c : cols_) {
    if (!first) out->push_back('|');
    first = false;
    const Column& col = table_->column(c);
    if (col.type() == DataType::kString) {
      out->append(col.GetString(row));
    } else {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(col.GetInt(row)));
      out->append(buf);
    }
  }
}

StreamGroupRouter::StreamGroupRouter(const std::vector<DataType>& types,
                                     size_t expected_groups) {
  plans_.reserve(types.size());
  for (DataType type : types) {
    CVOPT_CHECK(type != DataType::kDouble, "cannot route by a double column");
    ColPlan p;
    p.is_string = type == DataType::kString;
    plans_.push_back(p);
  }
  // Minimal initial widths: every column starts at one bit and widens as
  // codes appear, so the packed layout always reflects only what the
  // stream has shown so far (no pre-scan). More columns than packable bits
  // (one bit each) starts in the wide tier outright, mirroring Widen().
  int shift = 0;
  for (ColPlan& p : plans_) {
    p.shift = std::min(shift, 63);
    shift += p.bits;
  }
  total_bits_ = shift;
  if (total_bits_ > 64) wide_ = true;
  slots_.assign(NextPow2(std::max<size_t>(64, 2 * expected_groups)), Slot{});
  mask_ = slots_.size() - 1;
  codes_.reserve(plans_.size() * expected_groups);
}

void StreamGroupRouter::Bind(size_t j, const int64_t* ints,
                             const int32_t* codes) {
  plans_[j].ints = ints;
  plans_[j].codes = codes;
}

uint64_t StreamGroupRouter::PackRaw(int64_t raw, bool is_string) {
  if (is_string) {
    return static_cast<uint64_t>(static_cast<uint32_t>(raw));
  }
  // Zig-zag: small-magnitude ints of either sign pack into few bits.
  return (static_cast<uint64_t>(raw) << 1) ^ static_cast<uint64_t>(raw >> 63);
}

uint64_t StreamGroupRouter::PackedCode(const ColPlan& p, uint32_t row) const {
  return PackRaw(RawCode(p, row), p.is_string);
}

int64_t StreamGroupRouter::RawCode(const ColPlan& p, uint32_t row) const {
  return p.is_string ? p.codes[row] : p.ints[row];
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

uint64_t StreamGroupRouter::WideHashRow(uint32_t row) const {
  uint64_t h = kWideHashSeed;
  for (const ColPlan& p : plans_) {
    h = HashCombine(h, static_cast<uint64_t>(RawCode(p, row)));
  }
  return h;
}

uint64_t StreamGroupRouter::WideHashGroup(size_t g) const {
  const int64_t* raw = codes_.data() + g * plans_.size();
  uint64_t h = kWideHashSeed;
  for (size_t j = 0; j < plans_.size(); ++j) {
    h = HashCombine(h, static_cast<uint64_t>(raw[j]));
  }
  return h;
}

bool StreamGroupRouter::GroupEqualsRow(size_t g, uint32_t row) const {
  const int64_t* raw = codes_.data() + g * plans_.size();
  for (size_t j = 0; j < plans_.size(); ++j) {
    if (raw[j] != RawCode(plans_[j], row)) return false;
  }
  return true;
}

void StreamGroupRouter::PlaceSlot(std::vector<Slot>& slots, size_t mask,
                                  Slot s) const {
  // Packed slots position by the mixed packed key, wide slots by the stored
  // composite hash — the same start index Route's probes compute.
  size_t idx = (wide_ ? static_cast<size_t>(s.key)
                      : static_cast<size_t>(HashMix64(s.key))) &
               mask;
  while (slots[idx].id != kEmptyId) idx = (idx + 1) & mask;
  slots[idx] = s;
}

uint32_t StreamGroupRouter::Insert(size_t idx, uint64_t key, uint32_t row) {
  const uint32_t id = static_cast<uint32_t>(groups_++);
  slots_[idx] = {key, id};
  for (const ColPlan& p : plans_) codes_.push_back(RawCode(p, row));
  if (groups_ * 10 >= slots_.size() * 7) GrowSlots();
  return id;
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
  int shift = 0;
  for (ColPlan& p : plans_) {
    p.shift = std::min(shift, 63);
    shift += p.bits;
  }
  total_bits_ = shift;
  if (total_bits_ > 64) wide_ = true;  // permanent: widths only grow
  Rebuild();
}

void StreamGroupRouter::Rebuild() {
  // Re-place every known group under the new layout (wider packed fields,
  // or wide-tier hashes after the switch). Distinct groups stay distinct,
  // so collisions only probe forward into empty slots.
  std::fill(slots_.begin(), slots_.end(), Slot{});
  for (size_t g = 0; g < groups_; ++g) {
    const uint64_t key = wide_ ? WideHashGroup(g) : PackGroup(g);
    PlaceSlot(slots_, mask_, {key, static_cast<uint32_t>(g)});
  }
}

uint32_t StreamGroupRouter::Route(uint32_t row) {
  if (plans_.empty()) {
    // No grouping columns: a single group covering the whole stream.
    if (groups_ == 0) groups_ = 1;
    return 0;
  }
  while (!wide_) {
    uint64_t key = 0;
    size_t widened = plans_.size();
    for (size_t j = 0; j < plans_.size(); ++j) {
      const ColPlan& p = plans_[j];
      const uint64_t code = PackedCode(p, row);
      if (p.bits < 64 && (code >> p.bits) != 0) {
        widened = j;
        break;
      }
      key |= code << p.shift;
    }
    if (widened != plans_.size()) {
      // A code outgrew its field: widen, re-pack the known groups, and
      // retry (possibly in the wide tier now).
      Widen(widened, PackedCode(plans_[widened], row));
      continue;
    }
    size_t idx = static_cast<size_t>(HashMix64(key)) & mask_;
    while (slots_[idx].id != kEmptyId) {
      if (slots_[idx].key == key) return slots_[idx].id;
      idx = (idx + 1) & mask_;
    }
    return Insert(idx, key, row);
  }
  return RouteWide(row);
}

void StreamGroupRouter::RouteBatch(const uint32_t* rows, size_t n,
                                   uint32_t* out) {
  if (plans_.empty()) {
    if (groups_ == 0 && n > 0) groups_ = 1;
    std::fill(out, out + n, 0u);
    return;
  }
  constexpr size_t kBatch = 8;
  const simd::Ops* ops = simd::ActiveOps();
  uint64_t keys[kBatch];
  uint64_t hashes[kBatch];
  size_t i = 0;
  while (i + kBatch <= n && !wide_) {
    // Pack the whole block under the current field layout. A code that
    // outgrows its field sends the entire block through per-row Route —
    // no probes have run yet, so the widen/retry sequence (and any group
    // ids it assigns) is exactly what the serial loop would produce.
    bool overflow = false;
    for (size_t j = 0; j < kBatch && !overflow; ++j) {
      uint64_t key = 0;
      for (const ColPlan& p : plans_) {
        const uint64_t code = PackedCode(p, rows[i + j]);
        if (p.bits < 64 && (code >> p.bits) != 0) {
          overflow = true;
          break;
        }
        key |= code << p.shift;
      }
      keys[j] = key;
    }
    if (overflow) {
      for (size_t j = 0; j < kBatch; ++j) out[i + j] = Route(rows[i + j]);
      i += kBatch;
      continue;
    }
    if (ops != nullptr) {
      ops->hash_mix64_x8(keys, hashes);
    } else {
      for (size_t j = 0; j < kBatch; ++j) hashes[j] = HashMix64(keys[j]);
    }
    for (size_t j = 0; j < kBatch; ++j) {
      simd::PrefetchRead(&slots_[static_cast<size_t>(hashes[j]) & mask_]);
    }
    // Probe in position order; Insert may GrowSlots mid-block, so each
    // probe recomputes its start index from the current mask (the stale
    // prefetches above are harmless).
    for (size_t j = 0; j < kBatch; ++j) {
      size_t idx = static_cast<size_t>(hashes[j]) & mask_;
      while (slots_[idx].id != kEmptyId) {
        if (slots_[idx].key == keys[j]) break;
        idx = (idx + 1) & mask_;
      }
      out[i + j] = slots_[idx].id != kEmptyId
                       ? slots_[idx].id
                       : Insert(idx, keys[j], rows[i + j]);
    }
    i += kBatch;
  }
  for (; i < n; ++i) out[i] = Route(rows[i]);
}

uint32_t StreamGroupRouter::RouteWide(uint32_t row) {
  const uint64_t h = WideHashRow(row);
  size_t idx = static_cast<size_t>(h) & mask_;
  while (slots_[idx].id != kEmptyId) {
    if (slots_[idx].key == h && GroupEqualsRow(slots_[idx].id, row)) {
      return slots_[idx].id;
    }
    idx = (idx + 1) & mask_;
  }
  return Insert(idx, h, row);
}

GroupKey StreamGroupRouter::KeyOf(size_t g) const {
  GroupKey key;
  key.codes.assign(codes_.begin() + g * plans_.size(),
                   codes_.begin() + (g + 1) * plans_.size());
  return key;
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
