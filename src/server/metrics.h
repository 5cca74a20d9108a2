// Serving observability: lock-free counters and latency histograms with a
// Prometheus text-format renderer. Production scale is unverifiable without
// numbers, so the server ships them in the same subsystem: every request
// updates relaxed atomics (no lock on the serving path) and any connection
// can scrape the registry through the kMetrics protocol message.
#ifndef CVOPT_SERVER_METRICS_H_
#define CVOPT_SERVER_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace cvopt {

/// Monotonic counter; relaxed atomics, safe from any thread.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Fixed-bucket latency histogram (Prometheus `histogram` semantics:
/// cumulative `le` buckets plus sum and count). Buckets are log-spaced from
/// 10us to 10s — the serving range from a catalog-hit microsecond path to a
/// deadline-bounded analytical scan.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 19;
  /// Upper bounds in seconds of the finite buckets; the implicit last
  /// bucket is +Inf.
  static const double kUpperBounds[kNumBuckets];

  void Observe(double seconds);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Total observed seconds (accumulated in nanoseconds, so the atomic adds
  /// stay integral).
  double sum_seconds() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

  /// Quantile estimate in seconds (q in [0,1]): the upper bound of the
  /// bucket holding the q-th observation — the conservative Prometheus
  /// convention. 0 when empty.
  double Quantile(double q) const;

  /// Appends `<name>_bucket{le="..."} ...`, `_sum`, `_count` lines.
  void RenderPrometheus(const std::string& name, std::string* out) const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets + 1] = {};  // last = +Inf
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
};

/// The AqpServer's metric registry. Counter semantics:
///   queries_*    per query in a batch;
///   requests_*   per batch frame (the admission unit).
struct ServerMetrics {
  Counter requests_received;     // query-batch frames decoded
  Counter requests_rejected;     // admission refusals (whole batch)
  Counter queries_served;        // OK responses
  Counter queries_aborted;       // typed governance aborts (deadline/
                                 // cancel/resource) during execution
  Counter queries_deadline_exceeded;   // ...of which kDeadlineExceeded
  Counter queries_cancelled;           // ...of which kCancelled
  Counter queries_resource_exhausted;  // ...of which kResourceExhausted
  Counter queries_failed;        // everything else (parse, unknown table)
  Counter catalog_hits;          // served from an already-published sample
  Counter catalog_misses;        // had to build (or wait out a failure)
  Counter catalog_evictions;     // published samples dropped by the LRU
                                 // row-budget (CVOPT_CATALOG_ROW_BUDGET)
  Counter sample_builds;         // samples built and published
  Counter sample_build_failures;
  Counter connections_accepted;
  Counter connections_rejected;  // over max_connections
  Counter batches_waited;        // admitted batches that waited for a slot
  LatencyHistogram request_latency;  // batch: admission to response written
  LatencyHistogram query_latency;    // single query inside a batch

  /// Renders every counter and histogram in Prometheus text format with
  /// `aqp_` name prefixes. Gauges owned by the server (queue depth,
  /// in-flight memory, catalog size) are appended by AqpServer.
  std::string RenderPrometheus() const;
};

}  // namespace cvopt

#endif  // CVOPT_SERVER_METRICS_H_
