// In-memory span recorder for the benchmark's traced run. Spans are taken
// around the harness's own calls into each layer's public functions (the
// program itself is not instrumented); they stay in memory and are written
// out once, when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       // index into the recorder's span list, -1 = root
  uint64_t request = 0;  // spans of one request share this id
};

class Tracer {
 public:
  /// Opens a span under the innermost open span; returns its index.
  int Begin(const std::string& name, uint64_t request);
  void End(int index);
  /// Renames a span once its outcome is known (a catalog hit or a build).
  void SetName(int index, const std::string& name) { spans_[index].name = name; }

  size_t size() const { return spans_.size(); }

  /// Self time (duration minus the part covered by direct children) of
  /// every span with index >= `from`, grouped by span name, in ms.
  std::map<std::string, std::vector<double>> SelfTimesMs(size_t from = 0) const;
  /// Inclusive durations in ms, grouped by span name.
  std::map<std::string, std::vector<double>> DurationsMs(size_t from = 0) const;

  /// Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Rename(const char* name) {
    if (tracer_ != nullptr) tracer_->SetName(index_, name);
  }

 private:
  Tracer* tracer_;
  int index_;
};

int64_t MonotonicNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
