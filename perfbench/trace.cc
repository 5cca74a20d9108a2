#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const std::string& name, uint64_t request) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  spans_[index].start_ns = MonotonicNs();
  return index;
}

void Tracer::End(int index) {
  spans_[index].end_ns = MonotonicNs();
  // Spans close in LIFO order (ScopedSpan); pop through `index`.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesMs(
    size_t from) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (size_t i = from; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= 0) child_ns[p] += spans_[i].end_ns - spans_[i].start_ns;
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name].push_back((s.end_ns - s.start_ns - child_ns[i]) * 1e-6);
  }
  return out;
}

std::map<std::string, std::vector<double>> Tracer::DurationsMs(
    size_t from) const {
  std::map<std::string, std::vector<double>> out;
  for (size_t i = from; i < spans_.size(); ++i) {
    out[spans_[i].name].push_back((spans_[i].end_ns - spans_[i].start_ns) *
                                  1e-6);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%llu}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
