// SampleCatalog: the serving fast path — one stratified sample shared
// across every query it can serve (the paper's sample-reuse result,
// Table 5 / Section 6.3: rows carry Horvitz–Thompson weights, so one
// precomputed sample answers queries with arbitrary runtime predicates).
//
// Keying. A query belongs to the workload class
//   (table id, GROUP BY columns, workload fingerprint)
// where the fingerprint hashes the aggregate shapes, the sampler method,
// and the sample rate. WHERE predicates, aggregate weights, and query names
// are deliberately EXCLUDED: they vary per request and the shared sample
// answers all of them — that is the reuse. Distinct rates or aggregate sets
// are distinct samples (they tune to different allocations).
//
// Determinism. The build seed is a pure function of (catalog seed, key), and
// sample builds are thread-count-invariant (the PR 4 determinism contract),
// so a catalog rebuilt after a restart — or a test replicating a build with
// BuildSeed/CanonicalSpec — draws bit-identical samples.
//
// Concurrency. Lookups are mutex-guarded and single-flight: concurrent
// misses on one key build once; waiters block until the builder publishes
// (counted as hits — they were served by the shared build) or fails (the
// entry is forgotten, the next requester retries under its own budget).
// Builds run OUTSIDE the lock under the requesting query's ambient
// QueryContext, so a slow build never blocks hits on other keys and a
// deadline-bound request cannot wedge the catalog.
//
// Eviction. Published samples are held on an LRU recency list (hits touch,
// publishes enter at the front). When a publish pushes total resident
// sampled rows past the budget (CVOPT_CATALOG_ROW_BUDGET rows, 0/unset =
// unlimited), least-recently-used published samples are dropped until the
// catalog fits — except the newest publish, which always survives its own
// admission so every build serves at least its triggering query. Building
// entries are never evicted (they are not on the list yet). An evicted
// key simply rebuilds on next use, bit-identically (see Determinism).
#ifndef CVOPT_SERVER_SAMPLE_CATALOG_H_
#define CVOPT_SERVER_SAMPLE_CATALOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/exec/query.h"
#include "src/sample/stratified_sample.h"
#include "src/table/table.h"

namespace cvopt {

/// Identity of one shared sample: the workload class it serves.
struct CatalogKey {
  uint64_t table_id = 0;
  std::vector<std::string> group_by;
  uint64_t workload_fingerprint = 0;

  bool operator==(const CatalogKey& o) const {
    return table_id == o.table_id &&
           workload_fingerprint == o.workload_fingerprint &&
           group_by == o.group_by;
  }
};

struct CatalogKeyHash {
  size_t operator()(const CatalogKey& k) const;
};

class SampleCatalog {
 public:
  explicit SampleCatalog(uint64_t seed = 42) : seed_(seed) {}

  /// The workload class of `query` at `rate` (the sampler method is part of
  /// the fingerprint; this catalog builds with CVOPT).
  static CatalogKey MakeKey(const Table& table, const QuerySpec& query,
                            double rate);

  /// The canonical workload a key's sample is tuned on: `query` with its
  /// name, WHERE predicate, and weights stripped. Every query in one
  /// workload class canonicalizes to the same spec.
  static QuerySpec CanonicalSpec(const QuerySpec& query);

  /// Deterministic build seed for `key` under `catalog_seed`.
  static uint64_t BuildSeed(uint64_t catalog_seed, const CatalogKey& key);

  /// Returns the shared sample serving `query`, building it on first use
  /// with a CVOPT sampler tuned on CanonicalSpec(query) at `rate` of the
  /// table (budget = llround(rate * rows)). The published sample owns its
  /// rows and caches the GroupIndex for the key's GROUP BY, so every hit
  /// answers without touching `table`. The build runs under the
  /// caller's ambient QueryContext: its deadline / memory budget govern it,
  /// and a typed abort (kDeadlineExceeded, kResourceExhausted, ...) is
  /// returned without publishing. `was_hit` (optional) reports whether an
  /// already-published sample answered.
  Result<std::shared_ptr<const StratifiedSample>> GetOrBuild(
      const Table& table, const QuerySpec& query, double rate,
      bool* was_hit = nullptr);

  uint64_t seed() const { return seed_; }
  /// Published samples currently held.
  size_t size() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t builds() const { return builds_.load(std::memory_order_relaxed); }
  uint64_t build_failures() const {
    return build_failures_.load(std::memory_order_relaxed);
  }
  /// Total sampled rows held across published samples.
  uint64_t resident_rows() const;
  /// Total bytes held across published samples: their compact tables,
  /// positions, weights and cached GroupIndexes
  /// (StratifiedSample::resident_bytes).
  uint64_t resident_bytes() const;

  /// Published samples dropped by the LRU row-budget eviction.
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Resident-row budget currently in force: the testing override if set,
  /// else CVOPT_CATALOG_ROW_BUDGET, else 0 (unlimited).
  uint64_t row_budget() const;
  /// Testing/operator override (0 restores the env/default).
  void SetRowBudgetForTesting(uint64_t rows);

  /// Registers a hook called once per evicted sample, under the catalog
  /// lock (so it must be cheap and reentrancy-free — an atomic counter
  /// bump). The server points this at its metrics registry.
  void SetEvictionListener(std::function<void()> fn);

  /// Drops every published sample (in-flight builds publish normally).
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const StratifiedSample> sample;
    bool building = false;
    // Position on the recency list; valid only while in_lru (published).
    std::list<const CatalogKey*>::iterator lru_it;
    bool in_lru = false;
  };

  // Drops LRU published samples until resident rows fit the budget,
  // always keeping the most recent publish. Caller holds mu_.
  void EvictOverBudgetLocked();

  const uint64_t seed_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<CatalogKey, Entry, CatalogKeyHash> entries_;
  // Recency order over published entries; front = most recent. Pointees
  // are the map's own keys (stable: unordered_map nodes never move).
  std::list<const CatalogKey*> lru_;
  std::function<void()> eviction_listener_;
  std::atomic<uint64_t> row_budget_override_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> builds_{0};
  std::atomic<uint64_t> build_failures_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace cvopt

#endif  // CVOPT_SERVER_SAMPLE_CATALOG_H_
