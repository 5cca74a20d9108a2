#include "src/util/env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>

namespace cvopt {

namespace {

// Warns at most once per variable name for the process lifetime, so a knob
// consulted from several sites (or re-read after a test reset) does not spam
// stderr with the same complaint.
void WarnOnce(const char* name, const char* value, const char* why) {
  static std::mutex mu;
  static std::set<std::string>* warned = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  if (!warned->insert(name).second) return;
  std::fprintf(stderr, "cvopt: ignoring %s='%s' (%s); using the default\n",
               name, value, why);
}

}  // namespace

std::optional<int64_t> ParseEnvInt(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value, &end, 10);
  if (errno == ERANGE) {
    WarnOnce(name, value, "out of range");
    return std::nullopt;
  }
  if (end == value) {
    WarnOnce(name, value, "not a number");
    return std::nullopt;
  }
  if (*end != '\0') {
    WarnOnce(name, value, "trailing garbage after the number");
    return std::nullopt;
  }
  return static_cast<int64_t>(v);
}

std::optional<bool> ParseEnvSwitch(const char* name) {
  const std::optional<int64_t> v = ParseEnvInt(name);
  if (!v.has_value()) return std::nullopt;
  if (*v != 0 && *v != 1) {
    WarnOnce(name, std::getenv(name), "expected 0 or 1");
    return std::nullopt;
  }
  return *v == 1;
}

}  // namespace cvopt
