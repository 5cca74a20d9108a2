// AVX2 backend of the portable SIMD kernel layer. This entire translation
// unit is compiled with -mavx2 (CMakeLists sets it per-file on x86-64);
// nothing here runs unless simd.cc's runtime check saw AVX2 on the host,
// so the rest of the binary stays generic.
//
// Shape of every kernel: 4-lane vector compare -> movemask -> either a
// compressed store through a 16-entry shuffle LUT (selection vectors), a
// 4-byte mask expansion (dense masks), or a per-lane probe (IN-bitset).
// Scalar tails use the same ordered comparison semantics as the vector
// lanes, so results are position-for-position identical to the scalar
// engine loops (the bit-identity contract in simd.h).
#include "src/util/simd.h"

#if defined(CVOPT_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))

#include <immintrin.h>

#include <cstring>

namespace cvopt {
namespace simd {
namespace {

// movemask (0..15) -> shuffle control packing the matching 4-byte lanes of
// a __m128i to the front, plus the popcount. Built once at load.
struct CompressLut {
  alignas(16) uint8_t ctrl[16][16];
  uint8_t count[16];
};

CompressLut MakeCompressLut() {
  CompressLut lut{};
  for (int m = 0; m < 16; ++m) {
    int w = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((m >> lane) & 1) {
        for (int b = 0; b < 4; ++b) {
          lut.ctrl[m][w * 4 + b] = static_cast<uint8_t>(lane * 4 + b);
        }
        ++w;
      }
    }
    for (int j = w * 4; j < 16; ++j) lut.ctrl[m][j] = 0x80;  // zero fill
    lut.count[m] = static_cast<uint8_t>(w);
  }
  return lut;
}

const CompressLut kLut = MakeCompressLut();

inline __m128i Ctrl(int m) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(kLut.ctrl[m]));
}

// Gathers v[idx[0..3]]: the masked gather with a zero source and every
// lane enabled loads the same lanes as _mm256_i32gather_pd, whose
// undefined source GCC reports under -Wmaybe-uninitialized.
inline __m256d GatherF64(const double* v, __m128i idx) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), v, idx,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

// ------------------------------------------------------------- kernels
// Each kernel exposes: MaskAt(r) — 4-bit match mask for contiguous rows
// [r, r+4); MaskG(idx) — same for 4 gathered row ids; Test(r) — scalar
// tail with semantics identical to the vector lanes.

template <int OP>
struct CmpI64 {
  const int64_t* v;
  __m256i vlit;
  int64_t lit;
  CmpI64(const int64_t* v_in, int64_t lit_in)
      : v(v_in), vlit(_mm256_set1_epi64x(lit_in)), lit(lit_in) {}
  int Mask4(__m256i x) const {
    constexpr bool kInv = (OP == kNe || OP == kLe || OP == kGe);
    __m256i m;
    if constexpr (OP == kEq || OP == kNe) {
      m = _mm256_cmpeq_epi64(x, vlit);
    } else if constexpr (OP == kGt || OP == kLe) {
      m = _mm256_cmpgt_epi64(x, vlit);
    } else {  // kLt, kGe
      m = _mm256_cmpgt_epi64(vlit, x);
    }
    const int bits = _mm256_movemask_pd(_mm256_castsi256_pd(m));
    return kInv ? bits ^ 0xF : bits;
  }
  int MaskAt(size_t r) const {
    return Mask4(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + r)));
  }
  int MaskG(__m128i idx) const {
    return Mask4(
        _mm256_i32gather_epi64(reinterpret_cast<const long long*>(v), idx, 8));
  }
  bool Test(size_t r) const {
    const int64_t x = v[r];
    if constexpr (OP == kEq) return x == lit;
    if constexpr (OP == kNe) return x != lit;
    if constexpr (OP == kLt) return x < lit;
    if constexpr (OP == kLe) return x <= lit;
    if constexpr (OP == kGt) return x > lit;
    return x >= lit;
  }
};

template <int OP>
struct CmpF64 {
  const double* v;
  __m256d vlit;
  double lit;
  CmpF64(const double* v_in, double lit_in)
      : v(v_in), vlit(_mm256_set1_pd(lit_in)), lit(lit_in) {}
  int Mask4(__m256d x) const {
    // Ordered, non-signaling predicates: a NaN lane never matches, -0.0
    // equals +0.0, denormals compare by value — IEEE semantics, same as
    // the scalar operators below.
    constexpr int kPred = OP == kEq   ? _CMP_EQ_OQ
                          : OP == kNe ? _CMP_NEQ_OQ
                          : OP == kLt ? _CMP_LT_OQ
                          : OP == kLe ? _CMP_LE_OQ
                          : OP == kGt ? _CMP_GT_OQ
                                      : _CMP_GE_OQ;
    return _mm256_movemask_pd(_mm256_cmp_pd(x, vlit, kPred));
  }
  int MaskAt(size_t r) const { return Mask4(_mm256_loadu_pd(v + r)); }
  int MaskG(__m128i idx) const { return Mask4(GatherF64(v, idx)); }
  bool Test(size_t r) const {
    const double x = v[r];
    if constexpr (OP == kEq) return x == lit;
    if constexpr (OP == kNe) return x == x && lit == lit && x != lit;
    if constexpr (OP == kLt) return x < lit;
    if constexpr (OP == kLe) return x <= lit;
    if constexpr (OP == kGt) return x > lit;
    return x >= lit;
  }
};

// x in [vlo, vlo + span], computed as the unsigned range check
// (uint64)(x - vlo) <= span. The vector lacks unsigned 64-bit compare, so
// both sides get the sign bit flipped and compare signed.
struct BetweenI64 {
  const int64_t* v;
  __m256i vlo, vspan_flipped, sign;
  int64_t lo;
  uint64_t span;
  BetweenI64(const int64_t* v_in, int64_t lo_in, uint64_t span_in)
      : v(v_in),
        vlo(_mm256_set1_epi64x(lo_in)),
        vspan_flipped(_mm256_set1_epi64x(
            static_cast<int64_t>(span_in ^ 0x8000000000000000ULL))),
        sign(_mm256_set1_epi64x(static_cast<int64_t>(0x8000000000000000ULL))),
        lo(lo_in),
        span(span_in) {}
  int Mask4(__m256i x) const {
    const __m256i d =
        _mm256_xor_si256(_mm256_sub_epi64(x, vlo), sign);
    const __m256i gt = _mm256_cmpgt_epi64(d, vspan_flipped);
    return _mm256_movemask_pd(_mm256_castsi256_pd(gt)) ^ 0xF;
  }
  int MaskAt(size_t r) const {
    return Mask4(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + r)));
  }
  int MaskG(__m128i idx) const {
    return Mask4(
        _mm256_i32gather_epi64(reinterpret_cast<const long long*>(v), idx, 8));
  }
  bool Test(size_t r) const {
    return static_cast<uint64_t>(v[r]) - static_cast<uint64_t>(lo) <= span;
  }
};

struct BetweenF64 {
  const double* v;
  __m256d vlo, vhi;
  double lo, hi;
  BetweenF64(const double* v_in, double lo_in, double hi_in)
      : v(v_in),
        vlo(_mm256_set1_pd(lo_in)),
        vhi(_mm256_set1_pd(hi_in)),
        lo(lo_in),
        hi(hi_in) {}
  int Mask4(__m256d x) const {
    return _mm256_movemask_pd(_mm256_and_pd(_mm256_cmp_pd(x, vlo, _CMP_GE_OQ),
                                            _mm256_cmp_pd(x, vhi, _CMP_LE_OQ)));
  }
  int MaskAt(size_t r) const { return Mask4(_mm256_loadu_pd(v + r)); }
  int MaskG(__m128i idx) const { return Mask4(GatherF64(v, idx)); }
  bool Test(size_t r) const {
    const double x = v[r];
    return x >= lo && x <= hi;  // NaN fails both — matches the OQ lanes
  }
};

// IN-list over a value bitset: vector range check rejects out-of-domain
// lanes, surviving lanes probe the bitset scalar.
struct BitsetI64 {
  const int64_t* v;
  const uint64_t* bits;
  __m256i vbase, vspan_flipped, sign;
  int64_t base;
  uint64_t span;
  BitsetI64(const int64_t* v_in, int64_t base_in, uint64_t span_in,
            const uint64_t* bits_in)
      : v(v_in),
        bits(bits_in),
        vbase(_mm256_set1_epi64x(base_in)),
        vspan_flipped(_mm256_set1_epi64x(
            static_cast<int64_t>(span_in ^ 0x8000000000000000ULL))),
        sign(_mm256_set1_epi64x(static_cast<int64_t>(0x8000000000000000ULL))),
        base(base_in),
        span(span_in) {}
  int Mask4(__m256i x) const {
    const __m256i d = _mm256_sub_epi64(x, vbase);
    const __m256i gt =
        _mm256_cmpgt_epi64(_mm256_xor_si256(d, sign), vspan_flipped);
    int m = _mm256_movemask_pd(_mm256_castsi256_pd(gt)) ^ 0xF;
    if (m == 0) return 0;
    alignas(32) uint64_t off[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(off), d);
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((m >> lane) & 1) {
        out |= static_cast<int>((bits[off[lane] >> 6] >> (off[lane] & 63)) & 1)
               << lane;
      }
    }
    return out;
  }
  int MaskAt(size_t r) const {
    return Mask4(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + r)));
  }
  int MaskG(__m128i idx) const {
    return Mask4(
        _mm256_i32gather_epi64(reinterpret_cast<const long long*>(v), idx, 8));
  }
  bool Test(size_t r) const {
    const uint64_t off =
        static_cast<uint64_t>(v[r]) - static_cast<uint64_t>(base);
    return off <= span && ((bits[off >> 6] >> (off & 63)) & 1) != 0;
  }
};

// ------------------------------------------------------------- drivers

// Scan rows [lo, hi), append matching ids to out (ascending). The 16-byte
// compressed store at out + w is in-bounds: w <= r - lo matches so far,
// and r + 4 <= hi, so w + 4 <= hi - lo = caller-guaranteed capacity.
template <class K>
size_t SelectDense(const K& k, size_t lo, size_t hi, uint32_t* out) {
  const __m128i lane = _mm_setr_epi32(0, 1, 2, 3);
  size_t w = 0;
  size_t r = lo;
  for (; r + 4 <= hi; r += 4) {
    const int m = k.MaskAt(r);
    if (m != 0) {
      const __m128i ids =
          _mm_add_epi32(_mm_set1_epi32(static_cast<int>(r)), lane);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + w),
                       _mm_shuffle_epi8(ids, Ctrl(m)));
      w += kLut.count[m];
    }
  }
  for (; r < hi; ++r) {
    out[w] = static_cast<uint32_t>(r);
    w += k.Test(r) ? 1 : 0;
  }
  return w;
}

// In-place order-preserving compaction of sel[0, n). w <= i at all times,
// so the 16-byte store at sel + w only touches already-consumed slots
// (slots w..w+3 are within [0, i+4), all loaded by this or earlier
// iterations) and stays within the n-entry buffer (w + 4 <= i + 4 <= n).
template <class K>
size_t RefineSel(const K& k, uint32_t* sel, size_t n) {
  size_t w = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i r =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    const int m = k.MaskG(r);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sel + w),
                     _mm_shuffle_epi8(r, Ctrl(m)));
    w += kLut.count[m];
  }
  for (; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[w] = r;
    w += k.Test(r) ? 1 : 0;
  }
  return w;
}

// out[i - lo] = 1/0 per row; the 4-bit mask expands to 4 bytes via shifts
// (little-endian store — x86 only, which this TU is).
template <class K>
void MaskDense(const K& k, size_t lo, size_t hi, uint8_t* out) {
  size_t r = lo;
  uint8_t* o = out;
  for (; r + 4 <= hi; r += 4, o += 4) {
    const uint32_t m = static_cast<uint32_t>(k.MaskAt(r));
    const uint32_t bytes =
        (m & 1u) | ((m & 2u) << 7) | ((m & 4u) << 14) | ((m & 8u) << 21);
    std::memcpy(o, &bytes, sizeof(bytes));
  }
  for (; r < hi; ++r, ++o) *o = k.Test(r) ? 1 : 0;
}

// ----------------------------------------------------- exported wrappers

template <int OP>
size_t SelCmpI64(const int64_t* v, int64_t lit, size_t lo, size_t hi,
                 uint32_t* out) {
  return SelectDense(CmpI64<OP>(v, lit), lo, hi, out);
}
template <int OP>
size_t SelCmpF64(const double* v, double lit, size_t lo, size_t hi,
                 uint32_t* out) {
  return SelectDense(CmpF64<OP>(v, lit), lo, hi, out);
}
size_t SelBetweenI64(const int64_t* v, int64_t vlo, uint64_t span, size_t lo,
                     size_t hi, uint32_t* out) {
  return SelectDense(BetweenI64(v, vlo, span), lo, hi, out);
}
size_t SelBetweenF64(const double* v, double vlo, double vhi, size_t lo,
                     size_t hi, uint32_t* out) {
  return SelectDense(BetweenF64(v, vlo, vhi), lo, hi, out);
}
size_t SelBitsetI64(const int64_t* v, int64_t base, uint64_t span,
                    const uint64_t* bits, size_t lo, size_t hi,
                    uint32_t* out) {
  return SelectDense(BitsetI64(v, base, span, bits), lo, hi, out);
}

template <int OP>
size_t RefCmpI64(const int64_t* v, int64_t lit, uint32_t* sel, size_t n) {
  return RefineSel(CmpI64<OP>(v, lit), sel, n);
}
template <int OP>
size_t RefCmpF64(const double* v, double lit, uint32_t* sel, size_t n) {
  return RefineSel(CmpF64<OP>(v, lit), sel, n);
}
size_t RefBetweenI64(const int64_t* v, int64_t vlo, uint64_t span,
                     uint32_t* sel, size_t n) {
  return RefineSel(BetweenI64(v, vlo, span), sel, n);
}
size_t RefBetweenF64(const double* v, double vlo, double vhi, uint32_t* sel,
                     size_t n) {
  return RefineSel(BetweenF64(v, vlo, vhi), sel, n);
}
size_t RefBitsetI64(const int64_t* v, int64_t base, uint64_t span,
                    const uint64_t* bits, uint32_t* sel, size_t n) {
  return RefineSel(BitsetI64(v, base, span, bits), sel, n);
}

template <int OP>
void MskCmpI64(const int64_t* v, int64_t lit, size_t lo, size_t hi,
               uint8_t* out) {
  MaskDense(CmpI64<OP>(v, lit), lo, hi, out);
}
template <int OP>
void MskCmpF64(const double* v, double lit, size_t lo, size_t hi,
               uint8_t* out) {
  MaskDense(CmpF64<OP>(v, lit), lo, hi, out);
}
void MskBetweenI64(const int64_t* v, int64_t vlo, uint64_t span, size_t lo,
                   size_t hi, uint8_t* out) {
  MaskDense(BetweenI64(v, vlo, span), lo, hi, out);
}
void MskBetweenF64(const double* v, double vlo, double vhi, size_t lo,
                   size_t hi, uint8_t* out) {
  MaskDense(BetweenF64(v, vlo, vhi), lo, hi, out);
}
void MskBitsetI64(const int64_t* v, int64_t base, uint64_t span,
                  const uint64_t* bits, size_t lo, size_t hi, uint8_t* out) {
  MaskDense(BitsetI64(v, base, span, bits), lo, hi, out);
}

// 64x64 -> low-64 multiply from 32-bit pieces:
// lo*lo + ((lo*hi + hi*lo) << 32), all mod 2^64.
inline __m256i Mul64(__m256i x, __m256i y) {
  const __m256i xh = _mm256_srli_epi64(x, 32);
  const __m256i yh = _mm256_srli_epi64(y, 32);
  const __m256i ll = _mm256_mul_epu32(x, y);
  const __m256i lh = _mm256_mul_epu32(x, yh);
  const __m256i hl = _mm256_mul_epu32(xh, y);
  return _mm256_add_epi64(ll,
                          _mm256_slli_epi64(_mm256_add_epi64(lh, hl), 32));
}

void HashMix64X8(const uint64_t* in, uint64_t* out) {
  const __m256i c1 = _mm256_set1_epi64x(
      static_cast<int64_t>(0xFF51AFD7ED558CCDULL));
  const __m256i c2 = _mm256_set1_epi64x(
      static_cast<int64_t>(0xC4CEB9FE1A85EC53ULL));
  for (int b = 0; b < 8; b += 4) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + b));
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
    x = Mul64(x, c1);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
    x = Mul64(x, c2);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + b), x);
  }
}

Ops MakeOps() {
  Ops o{};
  o.select_cmp_i64[kEq] = &SelCmpI64<kEq>;
  o.select_cmp_i64[kNe] = &SelCmpI64<kNe>;
  o.select_cmp_i64[kLt] = &SelCmpI64<kLt>;
  o.select_cmp_i64[kLe] = &SelCmpI64<kLe>;
  o.select_cmp_i64[kGt] = &SelCmpI64<kGt>;
  o.select_cmp_i64[kGe] = &SelCmpI64<kGe>;
  o.select_cmp_f64[kEq] = &SelCmpF64<kEq>;
  o.select_cmp_f64[kNe] = &SelCmpF64<kNe>;
  o.select_cmp_f64[kLt] = &SelCmpF64<kLt>;
  o.select_cmp_f64[kLe] = &SelCmpF64<kLe>;
  o.select_cmp_f64[kGt] = &SelCmpF64<kGt>;
  o.select_cmp_f64[kGe] = &SelCmpF64<kGe>;
  o.select_between_i64 = &SelBetweenI64;
  o.select_between_f64 = &SelBetweenF64;
  o.select_in_bitset_i64 = &SelBitsetI64;

  o.refine_cmp_i64[kEq] = &RefCmpI64<kEq>;
  o.refine_cmp_i64[kNe] = &RefCmpI64<kNe>;
  o.refine_cmp_i64[kLt] = &RefCmpI64<kLt>;
  o.refine_cmp_i64[kLe] = &RefCmpI64<kLe>;
  o.refine_cmp_i64[kGt] = &RefCmpI64<kGt>;
  o.refine_cmp_i64[kGe] = &RefCmpI64<kGe>;
  o.refine_cmp_f64[kEq] = &RefCmpF64<kEq>;
  o.refine_cmp_f64[kNe] = &RefCmpF64<kNe>;
  o.refine_cmp_f64[kLt] = &RefCmpF64<kLt>;
  o.refine_cmp_f64[kLe] = &RefCmpF64<kLe>;
  o.refine_cmp_f64[kGt] = &RefCmpF64<kGt>;
  o.refine_cmp_f64[kGe] = &RefCmpF64<kGe>;
  o.refine_between_i64 = &RefBetweenI64;
  o.refine_between_f64 = &RefBetweenF64;
  o.refine_in_bitset_i64 = &RefBitsetI64;

  o.mask_cmp_i64[kEq] = &MskCmpI64<kEq>;
  o.mask_cmp_i64[kNe] = &MskCmpI64<kNe>;
  o.mask_cmp_i64[kLt] = &MskCmpI64<kLt>;
  o.mask_cmp_i64[kLe] = &MskCmpI64<kLe>;
  o.mask_cmp_i64[kGt] = &MskCmpI64<kGt>;
  o.mask_cmp_i64[kGe] = &MskCmpI64<kGe>;
  o.mask_cmp_f64[kEq] = &MskCmpF64<kEq>;
  o.mask_cmp_f64[kNe] = &MskCmpF64<kNe>;
  o.mask_cmp_f64[kLt] = &MskCmpF64<kLt>;
  o.mask_cmp_f64[kLe] = &MskCmpF64<kLe>;
  o.mask_cmp_f64[kGt] = &MskCmpF64<kGt>;
  o.mask_cmp_f64[kGe] = &MskCmpF64<kGe>;
  o.mask_between_i64 = &MskBetweenI64;
  o.mask_between_f64 = &MskBetweenF64;
  o.mask_in_bitset_i64 = &MskBitsetI64;

  o.hash_mix64_x8 = &HashMix64X8;
  return o;
}

const Ops kAvx2Ops = MakeOps();

}  // namespace

const Ops* Avx2Ops() { return &kAvx2Ops; }

}  // namespace simd
}  // namespace cvopt

#endif  // CVOPT_SIMD_ENABLED && x86-64
