// Runtime dispatch for the portable SIMD kernel layer. The ISA-specific
// tables live in their own translation units (simd_avx2.cc is the only TU
// compiled with -mavx2); this file only decides which table, if any, to
// publish — so a generic binary never executes an instruction the host
// CPU lacks.
#include "src/util/simd.h"

#include <atomic>

#include "src/util/env.h"

namespace cvopt {
namespace simd {

#if defined(CVOPT_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
#define CVOPT_SIMD_HAVE_AVX2_TU 1
const Ops* Avx2Ops();  // simd_avx2.cc
#endif
#if defined(CVOPT_SIMD_ENABLED) && defined(__aarch64__)
#define CVOPT_SIMD_HAVE_NEON_TU 1
const Ops* NeonOps();  // simd_neon.cc
#endif

namespace {

// 0 = force scalar, anything else = automatic dispatch.
std::atomic<int> g_mode{1};

struct Backend {
  const Ops* ops;
  const char* name;
};

Backend Detect() {
  // CVOPT_SIMD=0 in the environment pins the scalar fallback for the whole
  // process (e.g. to A/B a bench run without rebuilding).
  if (!ParseEnvSwitch("CVOPT_SIMD").value_or(true)) return {nullptr, "scalar"};
#if defined(CVOPT_SIMD_HAVE_AVX2_TU)
  if (__builtin_cpu_supports("avx2")) return {Avx2Ops(), "avx2"};
#elif defined(CVOPT_SIMD_HAVE_NEON_TU)
  // NEON is architectural on aarch64; no runtime feature check needed.
  return {NeonOps(), "neon"};
#endif
  return {nullptr, "scalar"};
}

const Backend& CompiledBackend() {
  static const Backend backend = Detect();
  return backend;
}

}  // namespace

const Ops* ActiveOps() {
  if (g_mode.load(std::memory_order_relaxed) == 0) return nullptr;
  return CompiledBackend().ops;
}

const char* BackendName() {
  return ActiveOps() != nullptr ? CompiledBackend().name : "scalar";
}

void SetEnabledForTesting(int mode) {
  g_mode.store(mode == 0 ? 0 : 1, std::memory_order_relaxed);
}

}  // namespace simd
}  // namespace cvopt
