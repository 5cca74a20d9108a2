// Portable SIMD kernel layer.
//
// The engine's hottest inner loops — predicate compare/between/IN kernels
// producing selection vectors over a row range, the in-place
// AND-refinement of a selection vector of row ids, dense byte-mask
// evaluation over a row range, and the packed-u64 group key hash mix — are
// exposed here as a table of function pointers (`simd::Ops`). Backends:
//
//   * AVX2 (x86-64): vector compare -> movemask -> compressed store, built
//     in its own translation unit compiled with -mavx2 and selected at
//     runtime only when the CPU reports AVX2 (safe to ship in a generic
//     binary).
//   * scalar: `ActiveOps()` returns nullptr and callers fall through to
//     their existing scalar loops. This is the only path when the
//     CVOPT_SIMD CMake option is OFF, when the CPU lacks the compiled
//     backend's ISA, or when CVOPT_SIMD=0 is set in the environment
//     (values other than 0 and 1 warn once and keep dispatch automatic).
//
// Determinism contract: every vector kernel is an exact drop-in for the
// scalar loop it replaces — same rows selected, same order, same byte
// masks, same hash bits. NaN never matches any comparison (ordered
// predicates), -0.0 == +0.0, and denormals compare by value, exactly as in
// scalar C++. Results must therefore be bit-identical with SIMD on or off;
// the differential fuzz suites in tests/predicate_kernels_test.cc and
// tests/group_index_test.cc pin this.
#ifndef CVOPT_UTIL_SIMD_H_
#define CVOPT_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace cvopt {
namespace simd {

/// Comparison-operator indices into the per-op kernel arrays below. The
/// order matches the predicate AST's six comparison operators.
enum CmpOp : int { kEq = 0, kNe, kLt, kLe, kGt, kGe, kNumCmpOps };

/// Selection-vector kernels: scan rows [lo, hi) of a contiguous column
/// span, append matching row ids to `out` (caller guarantees capacity for
/// hi - lo entries), return the match count. Rows appear in ascending
/// order, exactly as the scalar loop emits them.
using SelectCmpI64Fn = size_t (*)(const int64_t* v, int64_t lit, size_t lo,
                                  size_t hi, uint32_t* out);
using SelectCmpF64Fn = size_t (*)(const double* v, double lit, size_t lo,
                                  size_t hi, uint32_t* out);
using SelectBetweenI64Fn = size_t (*)(const int64_t* v, int64_t vlo,
                                      uint64_t span, size_t lo, size_t hi,
                                      uint32_t* out);
using SelectBetweenF64Fn = size_t (*)(const double* v, double vlo, double vhi,
                                      size_t lo, size_t hi, uint32_t* out);
using SelectInBitsetI64Fn = size_t (*)(const int64_t* v, int64_t base,
                                       uint64_t span, const uint64_t* bits,
                                       size_t lo, size_t hi, uint32_t* out);

/// In-place refinement kernels: compact the selection vector `sel[0, n)`
/// of row ids down to the rows that pass the kernel; returns the new size.
/// Order-preserving, writes only to already-consumed slots.
using RefineCmpI64Fn = size_t (*)(const int64_t* v, int64_t lit,
                                  uint32_t* sel, size_t n);
using RefineCmpF64Fn = size_t (*)(const double* v, double lit, uint32_t* sel,
                                  size_t n);
using RefineBetweenI64Fn = size_t (*)(const int64_t* v, int64_t vlo,
                                      uint64_t span, uint32_t* sel, size_t n);
using RefineBetweenF64Fn = size_t (*)(const double* v, double vlo, double vhi,
                                      uint32_t* sel, size_t n);
using RefineInBitsetI64Fn = size_t (*)(const int64_t* v, int64_t base,
                                       uint64_t span, const uint64_t* bits,
                                       uint32_t* sel, size_t n);

/// Dense byte-mask kernels: out[i - lo] = 1 if row i matches else 0, for
/// rows [lo, hi).
using MaskCmpI64Fn = void (*)(const int64_t* v, int64_t lit, size_t lo,
                              size_t hi, uint8_t* out);
using MaskCmpF64Fn = void (*)(const double* v, double lit, size_t lo,
                              size_t hi, uint8_t* out);
using MaskBetweenI64Fn = void (*)(const int64_t* v, int64_t vlo, uint64_t span,
                                  size_t lo, size_t hi, uint8_t* out);
using MaskBetweenF64Fn = void (*)(const double* v, double vlo, double vhi,
                                  size_t lo, size_t hi, uint8_t* out);
using MaskInBitsetI64Fn = void (*)(const int64_t* v, int64_t base,
                                   uint64_t span, const uint64_t* bits,
                                   size_t lo, size_t hi, uint8_t* out);

/// Eight HashMix64 finalizers at once; out[j] == HashMix64(in[j]) exactly.
using HashMix64X8Fn = void (*)(const uint64_t* in, uint64_t* out);

/// One backend's kernel table. Every pointer is non-null in a published
/// table.
struct Ops {
  SelectCmpI64Fn select_cmp_i64[kNumCmpOps];
  SelectCmpF64Fn select_cmp_f64[kNumCmpOps];
  SelectBetweenI64Fn select_between_i64;
  SelectBetweenF64Fn select_between_f64;
  SelectInBitsetI64Fn select_in_bitset_i64;

  RefineCmpI64Fn refine_cmp_i64[kNumCmpOps];
  RefineCmpF64Fn refine_cmp_f64[kNumCmpOps];
  RefineBetweenI64Fn refine_between_i64;
  RefineBetweenF64Fn refine_between_f64;
  RefineInBitsetI64Fn refine_in_bitset_i64;

  MaskCmpI64Fn mask_cmp_i64[kNumCmpOps];
  MaskCmpF64Fn mask_cmp_f64[kNumCmpOps];
  MaskBetweenI64Fn mask_between_i64;
  MaskBetweenF64Fn mask_between_f64;
  MaskInBitsetI64Fn mask_in_bitset_i64;

  HashMix64X8Fn hash_mix64_x8;
};

/// The active backend's kernel table, or nullptr when the scalar fallback
/// should run (SIMD compiled out, unsupported CPU, disabled by env or by
/// SetEnabledForTesting). Callers branch once per loop, not per element.
const Ops* ActiveOps();

/// "avx2" or "scalar" — reflects the table ActiveOps() returns
/// right now (so it reads "scalar" while disabled for testing).
const char* BackendName();

/// Runtime toggle for in-process SIMD-vs-scalar differential tests:
/// mode 0 forces the scalar fallback, any other mode restores automatic
/// dispatch. Cannot enable a backend the build or CPU does not provide.
/// Not synchronized with concurrent queries; flip it only from test code.
void SetEnabledForTesting(int mode);

/// Best-effort read prefetch (no-op where unsupported).
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace simd
}  // namespace cvopt

#endif  // CVOPT_UTIL_SIMD_H_
