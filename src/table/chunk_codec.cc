#include "src/table/chunk_codec.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "src/util/env.h"

namespace cvopt {

// ----------------------------------------------------------- chunk geometry

namespace {

size_t ClampChunkRows(long long v) {
  if (v < 64) return 64;
  if (v > (1ll << 22)) return size_t{1} << 22;
  return static_cast<size_t>(v);
}

size_t EnvChunkRows() {
  if (const auto v = ParseEnvInt("CVOPT_CHUNK_ROWS"); v && *v > 0) {
    return ClampChunkRows(*v);
  }
  return 4096;
}

std::atomic<size_t> g_chunk_rows_override{0};
std::atomic<int> g_zone_pruning{-1};  // -1 = unresolved (consult env)

}  // namespace

size_t DefaultChunkRows() {
  const size_t ov = g_chunk_rows_override.load(std::memory_order_relaxed);
  if (ov != 0) return ov;
  static const size_t from_env = EnvChunkRows();
  return from_env;
}

void SetDefaultChunkRowsForTesting(size_t rows) {
  g_chunk_rows_override.store(rows == 0 ? 0 : ClampChunkRows(rows),
                              std::memory_order_relaxed);
}

bool ZoneMapPruningEnabled() {
  int v = g_zone_pruning.load(std::memory_order_relaxed);
  if (v < 0) {
    v = ParseEnvSwitch("CVOPT_ZONEMAPS").value_or(true) ? 1 : 0;
    g_zone_pruning.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void SetZoneMapPruningEnabled(bool enabled) {
  g_zone_pruning.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- zone maps

ZoneMap ComputeIntZone(const int64_t* v, size_t n) {
  ZoneMap z;
  z.rows = static_cast<uint32_t>(n);
  if (n == 0) return z;
  int64_t mn = v[0], mx = v[0];
  for (size_t i = 1; i < n; ++i) {
    mn = v[i] < mn ? v[i] : mn;
    mx = v[i] > mx ? v[i] : mx;
  }
  z.imin = mn;
  z.imax = mx;
  return z;
}

ZoneMap ComputeDoubleZone(const double* v, size_t n) {
  ZoneMap z;
  z.rows = static_cast<uint32_t>(n);
  uint32_t nans = 0;
  bool seeded = false;
  double mn = 0.0, mx = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double x = v[i];
    if (x != x) {
      ++nans;
      continue;
    }
    if (!seeded) {
      mn = mx = x;
      seeded = true;
    } else {
      mn = x < mn ? x : mn;
      mx = x > mx ? x : mx;
    }
  }
  z.dmin = mn;
  z.dmax = mx;
  z.nan_count = nans;
  return z;
}

ZoneMap ComputeCodeZone(const int32_t* v, size_t n) {
  ZoneMap z;
  z.rows = static_cast<uint32_t>(n);
  if (n == 0) return z;
  int32_t mn = v[0], mx = v[0];
  for (size_t i = 1; i < n; ++i) {
    mn = v[i] < mn ? v[i] : mn;
    mx = v[i] > mx ? v[i] : mx;
  }
  z.cmin = mn;
  z.cmax = mx;
  return z;
}

// --------------------------------------------------------------- varints

void PutVarint64(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint64(const uint8_t** p, const uint8_t* end, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  const uint8_t* q = *p;
  while (q < end && shift < 64) {
    const uint8_t b = *q++;
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      // Reject non-canonical high bits spilled past 64.
      if (shift == 63 && (b & 0x7e) != 0) return false;
      *p = q;
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated or over-long
}

// ------------------------------------------------------------- chunk codecs

namespace {

void PutTag(ChunkEncoding e, std::string* out) {
  out->push_back(static_cast<char>(e));
}

template <typename T>
void PutPod(T v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool GetPod(const uint8_t** p, const uint8_t* end, T* out) {
  if (static_cast<size_t>(end - *p) < sizeof(T)) return false;
  std::memcpy(out, *p, sizeof(T));
  *p += sizeof(T);
  return true;
}

size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// The frame-of-reference body of a kForVarI64 / kForVarCode payload at
// [p, end): the base, then n varint deltas, out[i] = base + delta_i
// (modular in T's width). While 8 values and 8 bytes remain, one word is
// loaded: the bytes before its first continuation bit (all 8 when none is
// set) are one-byte varints, emitted with no per-byte branch, and the
// varint that bit starts decodes through GetVarint64. The word read never
// passes `end`. A code delta must fit 32 bits.
template <typename T>
Status DecodeForVarints(const uint8_t* p, const uint8_t* end, size_t n,
                        const char* what, T* out) {
  using U = std::make_unsigned_t<T>;
  T base;
  if (!GetPod(&p, end, &base)) {
    return Status::InvalidArgument(std::string("truncated ") + what +
                                   " chunk base");
  }
  const U b = static_cast<U>(base);
  size_t i = 0;
  while (i < n) {
    if (n - i >= 8 && end - p >= 8) {
      uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      const uint64_t cont = word & 0x8080808080808080ull;
      // Little-endian, like the file: the lowest set bit is the first byte's.
      const size_t ones =
          cont == 0 ? 8 : static_cast<size_t>(__builtin_ctzll(cont)) / 8;
      for (size_t k = 0; k < ones; ++k) out[i + k] = static_cast<T>(b + p[k]);
      p += ones;
      i += ones;
      if (cont == 0) continue;
    }
    uint64_t d;
    if (!GetVarint64(&p, end, &d)) {
      return Status::InvalidArgument(std::string("truncated ") + what +
                                     " chunk varint");
    }
    if (sizeof(T) < sizeof(uint64_t) && d > 0xffffffffull) {
      return Status::InvalidArgument(std::string(what) +
                                     " chunk delta out of range");
    }
    out[i++] = static_cast<T>(b + static_cast<U>(d));
  }
  if (p != end) {
    return Status::InvalidArgument(std::string("trailing bytes in ") + what +
                                   " chunk");
  }
  return Status::OK();
}

}  // namespace

void EncodeI64Chunk(const int64_t* v, size_t n, std::string* out) {
  if (n == 0) {
    PutTag(ChunkEncoding::kRawI64, out);
    return;
  }
  int64_t mn = v[0];
  bool all_equal = true;
  for (size_t i = 1; i < n; ++i) {
    if (v[i] != v[0]) all_equal = false;
    mn = v[i] < mn ? v[i] : mn;
  }
  if (all_equal) {
    PutTag(ChunkEncoding::kConstI64, out);
    PutPod<int64_t>(v[0], out);
    return;
  }
  // Frame-of-reference deltas are non-negative by construction; size the
  // varint stream and fall back to raw when it would not win.
  size_t var_bytes = sizeof(int64_t);
  for (size_t i = 0; i < n && var_bytes < n * sizeof(int64_t); ++i) {
    var_bytes += VarintLen(static_cast<uint64_t>(v[i]) -
                           static_cast<uint64_t>(mn));
  }
  if (var_bytes < n * sizeof(int64_t)) {
    PutTag(ChunkEncoding::kForVarI64, out);
    PutPod<int64_t>(mn, out);
    for (size_t i = 0; i < n; ++i) {
      PutVarint64(static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(mn),
                  out);
    }
    return;
  }
  PutTag(ChunkEncoding::kRawI64, out);
  out->append(reinterpret_cast<const char*>(v), n * sizeof(int64_t));
}

void EncodeF64Chunk(const double* v, size_t n, std::string* out) {
  if (n == 0) {
    PutTag(ChunkEncoding::kRawF64, out);
    return;
  }
  // Constant means bit-identical (distinguishes -0.0 from 0.0 and keeps
  // NaN payloads), so the round trip is exact for every input.
  uint64_t first;
  std::memcpy(&first, &v[0], sizeof(first));
  bool all_equal = true;
  for (size_t i = 1; i < n && all_equal; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &v[i], sizeof(bits));
    all_equal = bits == first;
  }
  if (all_equal) {
    PutTag(ChunkEncoding::kConstF64, out);
    PutPod<double>(v[0], out);
    return;
  }
  PutTag(ChunkEncoding::kRawF64, out);
  out->append(reinterpret_cast<const char*>(v), n * sizeof(double));
}

void EncodeCodeChunk(const int32_t* v, size_t n, std::string* out) {
  if (n == 0) {
    PutTag(ChunkEncoding::kRawCode, out);
    return;
  }
  int32_t mn = v[0];
  bool all_equal = true;
  for (size_t i = 1; i < n; ++i) {
    if (v[i] != v[0]) all_equal = false;
    mn = v[i] < mn ? v[i] : mn;
  }
  if (all_equal) {
    PutTag(ChunkEncoding::kConstCode, out);
    PutPod<int32_t>(v[0], out);
    return;
  }
  size_t var_bytes = sizeof(int32_t);
  for (size_t i = 0; i < n && var_bytes < n * sizeof(int32_t); ++i) {
    var_bytes += VarintLen(static_cast<uint32_t>(v[i]) -
                           static_cast<uint32_t>(mn));
  }
  if (var_bytes < n * sizeof(int32_t)) {
    PutTag(ChunkEncoding::kForVarCode, out);
    PutPod<int32_t>(mn, out);
    for (size_t i = 0; i < n; ++i) {
      PutVarint64(static_cast<uint32_t>(v[i]) - static_cast<uint32_t>(mn),
                  out);
    }
    return;
  }
  PutTag(ChunkEncoding::kRawCode, out);
  out->append(reinterpret_cast<const char*>(v), n * sizeof(int32_t));
}

Status DecodeI64Chunk(const uint8_t* p, size_t len, size_t n, int64_t* out) {
  if (len < 1) return Status::InvalidArgument("empty chunk payload");
  const uint8_t* end = p + len;
  const auto tag = static_cast<ChunkEncoding>(*p++);
  switch (tag) {
    case ChunkEncoding::kRawI64: {
      if (static_cast<size_t>(end - p) != n * sizeof(int64_t)) {
        return Status::InvalidArgument("raw int64 chunk length mismatch");
      }
      if (n > 0) std::memcpy(out, p, n * sizeof(int64_t));
      return Status::OK();
    }
    case ChunkEncoding::kConstI64: {
      int64_t c;
      if (!GetPod(&p, end, &c) || p != end) {
        return Status::InvalidArgument("const int64 chunk length mismatch");
      }
      for (size_t i = 0; i < n; ++i) out[i] = c;
      return Status::OK();
    }
    case ChunkEncoding::kForVarI64:
      return DecodeForVarints(p, end, n, "int64", out);
    default:
      return Status::InvalidArgument("bad int64 chunk encoding tag");
  }
}

Status DecodeF64Chunk(const uint8_t* p, size_t len, size_t n, double* out) {
  if (len < 1) return Status::InvalidArgument("empty chunk payload");
  const uint8_t* end = p + len;
  const auto tag = static_cast<ChunkEncoding>(*p++);
  switch (tag) {
    case ChunkEncoding::kRawF64: {
      if (static_cast<size_t>(end - p) != n * sizeof(double)) {
        return Status::InvalidArgument("raw double chunk length mismatch");
      }
      if (n > 0) std::memcpy(out, p, n * sizeof(double));
      return Status::OK();
    }
    case ChunkEncoding::kConstF64: {
      double c;
      if (!GetPod(&p, end, &c) || p != end) {
        return Status::InvalidArgument("const double chunk length mismatch");
      }
      for (size_t i = 0; i < n; ++i) out[i] = c;
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("bad double chunk encoding tag");
  }
}

Status DecodeCodeChunk(const uint8_t* p, size_t len, size_t n, int32_t* out) {
  if (len < 1) return Status::InvalidArgument("empty chunk payload");
  const uint8_t* end = p + len;
  const auto tag = static_cast<ChunkEncoding>(*p++);
  switch (tag) {
    case ChunkEncoding::kRawCode: {
      if (static_cast<size_t>(end - p) != n * sizeof(int32_t)) {
        return Status::InvalidArgument("raw code chunk length mismatch");
      }
      if (n > 0) std::memcpy(out, p, n * sizeof(int32_t));
      return Status::OK();
    }
    case ChunkEncoding::kConstCode: {
      int32_t c;
      if (!GetPod(&p, end, &c) || p != end) {
        return Status::InvalidArgument("const code chunk length mismatch");
      }
      for (size_t i = 0; i < n; ++i) out[i] = c;
      return Status::OK();
    }
    case ChunkEncoding::kForVarCode:
      return DecodeForVarints(p, end, n, "code", out);
    default:
      return Status::InvalidArgument("bad code chunk encoding tag");
  }
}

}  // namespace cvopt
