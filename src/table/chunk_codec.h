// Chunked columnar storage primitives: fixed-row-count chunk geometry,
// per-chunk lightweight encodings, and per-chunk min/max zone maps.
//
// Every Column is logically a sequence of chunks of DefaultChunkRows()
// rows (the last chunk may be short). Chunks are encoded independently:
//
//   int64  — constant (all values equal), frame-of-reference + varint
//            (base = chunk min, non-negative deltas as LEB128 varints —
//            the generalization of the StreamGroupRouter's zig-zag ints),
//            or raw little-endian, whichever is smallest;
//   double — constant (bit-identical values) or raw; bit patterns are
//            preserved exactly, so NaN payloads and -0.0 round-trip;
//   string — the column dictionary is stored once, rows are dictionary
//            codes encoded like int32 (constant / FOR+varint / raw).
//
// Zone maps record the per-chunk value range (and, for doubles, the NaN
// count) at build time; the predicate layer consults them to skip chunks
// that provably contain no match or to take whole chunks that provably
// match, without touching row data.
//
// All decoders are hardened against corrupt input: every read is bounds-
// checked and every failure is a clean Status — they are fuzzed by
// tests/table_io_fuzz_test.cc under ASan/UBSan.
#ifndef CVOPT_TABLE_CHUNK_CODEC_H_
#define CVOPT_TABLE_CHUNK_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace cvopt {

// ----------------------------------------------------------- chunk geometry

/// Rows per storage chunk. Reads the CVOPT_CHUNK_ROWS environment variable
/// once (clamped to [64, 1 << 22]); defaults to 4096. Tables capture this
/// at construction, so the override below must be set before building.
size_t DefaultChunkRows();

/// Testing/bench override of DefaultChunkRows (0 restores the env/default).
void SetDefaultChunkRowsForTesting(size_t rows);

/// Whether the predicate layer consults zone maps to skip chunks. Defaults
/// to on; env CVOPT_ZONEMAPS=0 or the setter disable it (the flat-scan
/// baseline for benches and the differential suite). Values other than 0
/// and 1 warn once and keep the default (ParseEnvSwitch).
bool ZoneMapPruningEnabled();
void SetZoneMapPruningEnabled(bool enabled);

/// Number of chunk_rows-sized chunks covering n rows.
inline size_t NumChunks(size_t n, size_t chunk_rows) {
  return chunk_rows == 0 ? 0 : (n + chunk_rows - 1) / chunk_rows;
}

// ---------------------------------------------------------------- zone maps

/// Per-chunk value summary. Exactly one of the typed ranges is meaningful,
/// determined by the owning column's type: int64 columns use [imin, imax],
/// double columns [dmin, dmax] over non-NaN values plus nan_count, string
/// columns the dictionary-code range [cmin, cmax]. `rows` is the chunk's
/// row count; a chunk of only NaNs has nan_count == rows and an empty
/// (unusable) double range.
struct ZoneMap {
  int64_t imin = 0;
  int64_t imax = 0;
  double dmin = 0.0;
  double dmax = 0.0;
  int32_t cmin = 0;
  int32_t cmax = 0;
  uint32_t rows = 0;
  uint32_t nan_count = 0;
};

ZoneMap ComputeIntZone(const int64_t* v, size_t n);
ZoneMap ComputeDoubleZone(const double* v, size_t n);
ZoneMap ComputeCodeZone(const int32_t* v, size_t n);

/// Zone maps for every (column, chunk) of a table, built once at table
/// construction. Heap-owned by the Table (shared_ptr) so compiled plans
/// can hold a stable pointer across Table moves.
struct ZoneMapIndex {
  size_t chunk_rows = 0;
  size_t num_chunks = 0;
  /// columns[c][k] is column c's zone map for chunk k.
  std::vector<std::vector<ZoneMap>> columns;

  const ZoneMap& zone(size_t col, size_t chunk) const {
    return columns[col][chunk];
  }
};

// ----------------------------------------------------------- chunk codecs

/// Encoding tag, the first byte of every encoded chunk payload.
enum class ChunkEncoding : uint8_t {
  kRawI64 = 0,
  kConstI64 = 1,
  kForVarI64 = 2,
  kRawF64 = 3,
  kConstF64 = 4,
  kRawCode = 5,
  kConstCode = 6,
  kForVarCode = 7,
};

/// Appends the encoded chunk (tag byte + payload) to *out, choosing the
/// smallest applicable encoding. n == 0 produces a bare tag.
void EncodeI64Chunk(const int64_t* v, size_t n, std::string* out);
void EncodeF64Chunk(const double* v, size_t n, std::string* out);
void EncodeCodeChunk(const int32_t* v, size_t n, std::string* out);

/// Decodes an encoded chunk of exactly n values into out[0..n). Returns a
/// clean error on any malformed input: unknown tag, wrong payload length,
/// truncated varint, or out-of-range delta. Never reads past p + len.
Status DecodeI64Chunk(const uint8_t* p, size_t len, size_t n, int64_t* out);
Status DecodeF64Chunk(const uint8_t* p, size_t len, size_t n, double* out);
Status DecodeCodeChunk(const uint8_t* p, size_t len, size_t n, int32_t* out);

// --------------------------------------------- varint primitives (tests)

void PutVarint64(uint64_t v, std::string* out);
/// Advances *p past the varint; false on truncation or > 10 bytes.
bool GetVarint64(const uint8_t** p, const uint8_t* end, uint64_t* out);

}  // namespace cvopt

#endif  // CVOPT_TABLE_CHUNK_CODEC_H_
