// Shared parsing for CVOPT_* integer and on/off environment knobs. The
// knobs are operator-facing configuration, so a malformed value ("4x",
// "abc", an out-of-range number) must not silently become a different
// number or a silent fallback: ParseEnvInt validates the whole string and
// warns once per variable on stderr, and the caller keeps its default.
#ifndef CVOPT_UTIL_ENV_H_
#define CVOPT_UTIL_ENV_H_

#include <cstdint>
#include <optional>

namespace cvopt {

/// Reads environment variable `name` as a base-10 integer. Returns nullopt
/// when the variable is unset, empty, malformed (trailing garbage like
/// "4x", no digits at all), or out of long long range — warning once per
/// variable on stderr for every case except "unset"/"empty", so the knob's
/// default silently applies only when the operator set nothing.
std::optional<int64_t> ParseEnvInt(const char* name);

/// Reads environment variable `name` as an on/off switch through
/// ParseEnvInt: "0" is false, "1" is true. Any other value ("off", "2")
/// warns once on stderr and returns nullopt, so the caller keeps its
/// default.
std::optional<bool> ParseEnvSwitch(const char* name);

}  // namespace cvopt

#endif  // CVOPT_UTIL_ENV_H_
