#include "src/server/sample_catalog.h"

#include <cmath>
#include <cstring>

#include "src/estimate/approx_executor.h"
#include "src/sample/cvopt_sampler.h"
#include "src/util/env.h"
#include "src/util/hash.h"
#include "src/util/rng.h"

namespace cvopt {

namespace {

uint64_t HashBytes(uint64_t seed, const std::string& s) {
  uint64_t h = seed;
  for (unsigned char c : s) h = HashCombine(h, c);
  return HashCombine(h, s.size());
}

}  // namespace

size_t CatalogKeyHash::operator()(const CatalogKey& k) const {
  uint64_t h = HashMix64(k.table_id);
  for (const std::string& col : k.group_by) h = HashBytes(h, col);
  h = HashCombine(h, k.workload_fingerprint);
  return static_cast<size_t>(h);
}

CatalogKey SampleCatalog::MakeKey(const Table& table, const QuerySpec& query,
                                  double rate) {
  CatalogKey key;
  key.table_id = table.id();
  key.group_by = query.group_by;
  // Fingerprint the workload class: aggregate shapes (function + column +
  // COUNT_IF filter, via the rendered label, weights excluded), the sampler
  // method, and the rate. Everything request-specific (WHERE, weights,
  // names) stays out so those queries share the sample.
  uint64_t fp = HashBytes(0x5eed5a3b1e5u, "CVOPT");
  uint64_t rate_bits;
  static_assert(sizeof(rate_bits) == sizeof(rate), "double width");
  std::memcpy(&rate_bits, &rate, sizeof(rate_bits));
  fp = HashCombine(fp, rate_bits);
  for (const AggSpec& agg : query.aggregates) {
    fp = HashBytes(fp, agg.Label());
  }
  key.workload_fingerprint = fp;
  return key;
}

QuerySpec SampleCatalog::CanonicalSpec(const QuerySpec& query) {
  QuerySpec canon;
  canon.group_by = query.group_by;
  canon.aggregates = query.aggregates;
  for (AggSpec& agg : canon.aggregates) agg.weight = 1.0;
  canon.where = nullptr;
  canon.weight = 1.0;
  return canon;
}

uint64_t SampleCatalog::BuildSeed(uint64_t catalog_seed,
                                  const CatalogKey& key) {
  uint64_t h = HashCombine(HashMix64(catalog_seed), key.table_id);
  for (const std::string& col : key.group_by) h = HashBytes(h, col);
  return HashCombine(h, key.workload_fingerprint);
}

Result<std::shared_ptr<const StratifiedSample>> SampleCatalog::GetOrBuild(
    const Table& table, const QuerySpec& query, double rate, bool* was_hit) {
  if (was_hit != nullptr) *was_hit = false;
  if (!(rate > 0.0) || rate > 1.0) {
    return Status::InvalidArgument("sample rate must be in (0, 1]");
  }
  const CatalogKey key = MakeKey(table, query, rate);
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      Entry& entry = entries_[key];
      if (entry.sample != nullptr) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        lru_.splice(lru_.begin(), lru_, entry.lru_it);  // touch
        if (was_hit != nullptr) *was_hit = true;
        return entry.sample;
      }
      if (!entry.building) {
        entry.building = true;  // this thread builds
        break;
      }
      cv_.wait(lock);  // single-flight: wait for the builder's publish
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  // Build outside the lock, under the caller's ambient QueryContext: the
  // request's deadline and memory budget govern the stats collection,
  // allocation solve, and draw.
  const uint64_t budget = static_cast<uint64_t>(
      std::llround(rate * static_cast<double>(table.num_rows())));
  // The class's GROUP BY is part of the key, so the GroupIndex over the
  // sample's rows is built once here and reused by every hit. The
  // stratification the draw ran under maps every base-table row, so the
  // published sample drops it: it would pin 4 bytes per base row for as
  // long as the sample stays resident.
  auto build = [&]() -> Result<std::shared_ptr<const StratifiedSample>> {
    Rng rng(BuildSeed(seed_, key));
    CvoptSampler sampler;
    CVOPT_ASSIGN_OR_RETURN(
        StratifiedSample sample,
        sampler.Build(table, {CanonicalSpec(query)}, budget, &rng));
    sample.set_stratification(nullptr);
    CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const GroupIndex> gidx,
                           SampleGroupIndex(sample, key.group_by));
    sample.set_group_index(key.group_by, std::move(gidx));
    return std::make_shared<const StratifiedSample>(std::move(sample));
  };
  Result<std::shared_ptr<const StratifiedSample>> built = build();

  std::lock_guard<std::mutex> lock(mu_);
  if (!built.ok()) {
    build_failures_.fetch_add(1, std::memory_order_relaxed);
    // Forget the entry so the next requester retries under its own budget;
    // waiters re-loop, find it unowned, and become the builder.
    entries_.erase(key);
    cv_.notify_all();
    return built.status();
  }
  auto map_it = entries_.find(key);  // placed by the claim above
  Entry& entry = map_it->second;
  entry.building = false;
  entry.sample = std::move(built).value();
  lru_.push_front(&map_it->first);
  entry.lru_it = lru_.begin();
  entry.in_lru = true;
  builds_.fetch_add(1, std::memory_order_relaxed);
  EvictOverBudgetLocked();
  cv_.notify_all();
  return entry.sample;
}

uint64_t SampleCatalog::row_budget() const {
  const uint64_t o = row_budget_override_.load(std::memory_order_relaxed);
  if (o != 0) return o;
  static const uint64_t env = [] {
    if (const auto v = ParseEnvInt("CVOPT_CATALOG_ROW_BUDGET"); v && *v > 0) {
      return static_cast<uint64_t>(*v);
    }
    return uint64_t{0};  // unlimited
  }();
  return env;
}

void SampleCatalog::SetRowBudgetForTesting(uint64_t rows) {
  row_budget_override_.store(rows, std::memory_order_relaxed);
}

void SampleCatalog::SetEvictionListener(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  eviction_listener_ = std::move(fn);
}

void SampleCatalog::EvictOverBudgetLocked() {
  const uint64_t budget = row_budget();
  if (budget == 0) return;
  uint64_t rows = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.sample != nullptr) rows += entry.sample->size();
  }
  // Evict from the recency tail; lru_.size() > 1 pins the newest publish.
  while (rows > budget && lru_.size() > 1) {
    auto victim = entries_.find(*lru_.back());
    rows -= victim->second.sample->size();
    lru_.pop_back();
    entries_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (eviction_listener_) eviction_listener_();
  }
}

size_t SampleCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [key, entry] : entries_) n += entry.sample != nullptr;
  return n;
}

uint64_t SampleCatalog::resident_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t rows = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.sample != nullptr) rows += entry.sample->size();
  }
  return rows;
}

uint64_t SampleCatalog::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.sample != nullptr) bytes += entry.sample->resident_bytes();
  }
  return bytes;
}

void SampleCatalog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.building) {
      ++it;  // let the in-flight build publish; only drop published ones
    } else {
      if (it->second.in_lru) lru_.erase(it->second.lru_it);
      it = entries_.erase(it);
    }
  }
}

}  // namespace cvopt
