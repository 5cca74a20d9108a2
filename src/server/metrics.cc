#include "src/server/metrics.h"

#include <cmath>

#include "src/util/string_util.h"

namespace cvopt {

const double LatencyHistogram::kUpperBounds[LatencyHistogram::kNumBuckets] = {
    1e-5,   2.5e-5, 5e-5,   1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
    2.5e-2, 5e-2,   1e-1,   0.25, 0.5,    1.0,  2.5,  5.0,    10.0,
};

void LatencyHistogram::Observe(double seconds) {
  if (!(seconds >= 0.0)) seconds = 0.0;  // NaN / negative clock glitches
  size_t b = 0;
  while (b < kNumBuckets && seconds > kUpperBounds[b]) ++b;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                    std::memory_order_relaxed);
}

double LatencyHistogram::Quantile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const uint64_t rank = static_cast<uint64_t>(std::ceil(q * total));
  uint64_t cumulative = 0;
  for (size_t b = 0; b <= kNumBuckets; ++b) {
    cumulative += buckets_[b].load(std::memory_order_relaxed);
    if (cumulative >= rank) {
      return b < kNumBuckets ? kUpperBounds[b]
                             : kUpperBounds[kNumBuckets - 1];
    }
  }
  return kUpperBounds[kNumBuckets - 1];
}

void LatencyHistogram::RenderPrometheus(const std::string& name,
                                        std::string* out) const {
  *out += StrFormat("# TYPE %s histogram\n", name.c_str());
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    cumulative += buckets_[b].load(std::memory_order_relaxed);
    *out += StrFormat("%s_bucket{le=\"%g\"} %llu\n", name.c_str(),
                      kUpperBounds[b],
                      static_cast<unsigned long long>(cumulative));
  }
  cumulative += buckets_[kNumBuckets].load(std::memory_order_relaxed);
  *out += StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", name.c_str(),
                    static_cast<unsigned long long>(cumulative));
  *out += StrFormat("%s_sum %.9f\n", name.c_str(), sum_seconds());
  *out += StrFormat("%s_count %llu\n", name.c_str(),
                    static_cast<unsigned long long>(count()));
}

std::string ServerMetrics::RenderPrometheus() const {
  std::string out;
  const auto counter = [&out](const char* name, const char* help,
                              const Counter& c) {
    out += StrFormat("# HELP %s %s\n# TYPE %s counter\n%s %llu\n", name, help,
                     name, name, static_cast<unsigned long long>(c.value()));
  };
  counter("aqp_requests_received_total", "Query-batch frames decoded",
          requests_received);
  counter("aqp_requests_rejected_total",
          "Batches refused by admission control", requests_rejected);
  counter("aqp_queries_served_total", "Queries answered OK", queries_served);
  counter("aqp_queries_aborted_total",
          "Queries aborted by governance (deadline/cancel/memory)",
          queries_aborted);
  counter("aqp_queries_deadline_exceeded_total",
          "Governance aborts: deadline exceeded", queries_deadline_exceeded);
  counter("aqp_queries_cancelled_total", "Governance aborts: cancelled",
          queries_cancelled);
  counter("aqp_queries_resource_exhausted_total",
          "Governance aborts: memory budget exhausted",
          queries_resource_exhausted);
  counter("aqp_queries_failed_total",
          "Queries failed for non-governance reasons", queries_failed);
  counter("aqp_catalog_hits_total", "Queries served from a shared sample",
          catalog_hits);
  counter("aqp_catalog_misses_total", "Queries that found no shared sample",
          catalog_misses);
  counter("aqp_catalog_evictions_total",
          "Published samples dropped by the LRU row budget",
          catalog_evictions);
  counter("aqp_sample_builds_total", "Samples built and published",
          sample_builds);
  counter("aqp_sample_build_failures_total", "Sample builds that failed",
          sample_build_failures);
  counter("aqp_connections_accepted_total", "Client connections accepted",
          connections_accepted);
  counter("aqp_connections_rejected_total",
          "Connections refused over max_connections", connections_rejected);
  counter("aqp_batches_waited_total",
          "Admitted batches that waited for an execution slot",
          batches_waited);
  request_latency.RenderPrometheus("aqp_request_latency_seconds", &out);
  query_latency.RenderPrometheus("aqp_query_latency_seconds", &out);
  return out;
}

}  // namespace cvopt
