// Per-encoding round-trip property tests for the chunk codecs: every
// encoder output must decode to the exact input (bit patterns for doubles),
// and every decoder must reject malformed payloads with a clean Status.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <type_traits>

#include "src/table/chunk_codec.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

// ------------------------------------------------------------- round trips

void RoundTripI64(const std::vector<int64_t>& in) {
  std::string enc;
  EncodeI64Chunk(in.data(), in.size(), &enc);
  ASSERT_GE(enc.size(), 1u);
  std::vector<int64_t> out(in.size(), ~int64_t{0});
  ASSERT_OK(DecodeI64Chunk(reinterpret_cast<const uint8_t*>(enc.data()),
                           enc.size(), in.size(), out.data()));
  EXPECT_EQ(in, out);
}

void RoundTripF64(const std::vector<double>& in) {
  std::string enc;
  EncodeF64Chunk(in.data(), in.size(), &enc);
  std::vector<double> out(in.size(), 12345.0);
  ASSERT_OK(DecodeF64Chunk(reinterpret_cast<const uint8_t*>(enc.data()),
                           enc.size(), in.size(), out.data()));
  // Bit-pattern equality: NaN payloads and -0.0 must survive.
  ASSERT_EQ(in.size(), out.size());
  for (size_t i = 0; i < in.size(); ++i) {
    uint64_t a, b;
    std::memcpy(&a, &in[i], 8);
    std::memcpy(&b, &out[i], 8);
    EXPECT_EQ(a, b) << "index " << i;
  }
}

void RoundTripCode(const std::vector<int32_t>& in) {
  std::string enc;
  EncodeCodeChunk(in.data(), in.size(), &enc);
  std::vector<int32_t> out(in.size(), -7);
  ASSERT_OK(DecodeCodeChunk(reinterpret_cast<const uint8_t*>(enc.data()),
                            enc.size(), in.size(), out.data()));
  EXPECT_EQ(in, out);
}

TEST(ChunkCodecTest, I64EmptyChunk) { RoundTripI64({}); }

TEST(ChunkCodecTest, I64SingleValue) {
  RoundTripI64({0});
  RoundTripI64({-1});
  RoundTripI64({std::numeric_limits<int64_t>::min()});
  RoundTripI64({std::numeric_limits<int64_t>::max()});
}

TEST(ChunkCodecTest, I64ConstantChunk) {
  RoundTripI64(std::vector<int64_t>(1000, 42));
  RoundTripI64(std::vector<int64_t>(1000, std::numeric_limits<int64_t>::min()));
}

TEST(ChunkCodecTest, I64SmallRangeUsesForVarint) {
  // Narrow range around a large base: FOR + varint territory.
  std::vector<int64_t> v;
  for (int i = 0; i < 4096; ++i) v.push_back(1'000'000'000'000 + i % 100);
  std::string enc;
  EncodeI64Chunk(v.data(), v.size(), &enc);
  EXPECT_LT(enc.size(), v.size() * sizeof(int64_t));  // actually compressed
  RoundTripI64(v);
}

TEST(ChunkCodecTest, I64ExtremeSpanFallsBackToRaw) {
  // min..max span overflows any delta scheme; raw must carry it.
  std::vector<int64_t> v = {std::numeric_limits<int64_t>::min(), 0,
                            std::numeric_limits<int64_t>::max(), -1, 1};
  RoundTripI64(v);
}

TEST(ChunkCodecTest, I64RandomChunks) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.Uniform(3000);
    std::vector<int64_t> v(n);
    for (auto& x : v) {
      x = static_cast<int64_t>(rng.Next64());
      if (trial % 2 == 0) x %= 1000;  // half the trials: narrow range
    }
    RoundTripI64(v);
  }
}

TEST(ChunkCodecTest, F64EmptyAndSingle) {
  RoundTripF64({});
  RoundTripF64({0.0});
  RoundTripF64({-0.0});
  RoundTripF64({std::numeric_limits<double>::quiet_NaN()});
}

TEST(ChunkCodecTest, F64SpecialValues) {
  RoundTripF64({0.0, -0.0, std::numeric_limits<double>::infinity(),
                -std::numeric_limits<double>::infinity(),
                std::numeric_limits<double>::quiet_NaN(),
                std::numeric_limits<double>::denorm_min(),
                std::numeric_limits<double>::max(), 1.0, -1.0});
}

TEST(ChunkCodecTest, F64ConstantChunkPreservesBits) {
  RoundTripF64(std::vector<double>(500, -0.0));
  RoundTripF64(std::vector<double>(500, std::numeric_limits<double>::quiet_NaN()));
}

TEST(ChunkCodecTest, F64RandomChunks) {
  Rng rng(321);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 1 + rng.Uniform(2000);
    std::vector<double> v(n);
    for (auto& x : v) x = rng.NextGaussian() * 1e6;
    RoundTripF64(v);
  }
}

TEST(ChunkCodecTest, CodeEmptySingleConstant) {
  RoundTripCode({});
  RoundTripCode({0});
  RoundTripCode({std::numeric_limits<int32_t>::max()});
  RoundTripCode(std::vector<int32_t>(777, 5));
}

TEST(ChunkCodecTest, CodeRandomChunks) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 1 + rng.Uniform(3000);
    std::vector<int32_t> v(n);
    for (auto& x : v) x = static_cast<int32_t>(rng.Uniform(1u << 20));
    RoundTripCode(v);
  }
}

// -------------------------------------------------------- malformed inputs

TEST(ChunkCodecTest, DecodeRejectsUnknownTag) {
  const uint8_t bad[] = {0xEE, 0, 0, 0};
  int64_t out[1];
  EXPECT_FALSE(DecodeI64Chunk(bad, sizeof(bad), 1, out).ok());
  double dout[1];
  EXPECT_FALSE(DecodeF64Chunk(bad, sizeof(bad), 1, dout).ok());
  int32_t cout[1];
  EXPECT_FALSE(DecodeCodeChunk(bad, sizeof(bad), 1, cout).ok());
}

TEST(ChunkCodecTest, DecodeRejectsEmptyPayloadForNonzeroCount) {
  int64_t out[1];
  EXPECT_FALSE(DecodeI64Chunk(nullptr, 0, 1, out).ok());
}

TEST(ChunkCodecTest, DecodeRejectsWrongPayloadLength) {
  std::vector<int64_t> v = {1, 2, 3, 4};
  std::string enc;
  EncodeI64Chunk(v.data(), v.size(), &enc);
  std::vector<int64_t> out(v.size());
  const auto* p = reinterpret_cast<const uint8_t*>(enc.data());
  // Truncate payload at every length: decode must fail cleanly, never read
  // past the buffer (sanitizer-checked).
  for (size_t len = 0; len < enc.size(); ++len) {
    EXPECT_FALSE(DecodeI64Chunk(p, len, v.size(), out.data()).ok())
        << "len " << len;
  }
  // Wrong expected count also fails (payload/count mismatch).
  EXPECT_FALSE(DecodeI64Chunk(p, enc.size(), v.size() + 1, out.data()).ok());
}

TEST(ChunkCodecTest, DecodeRejectsTruncatedDoublePayload) {
  std::vector<double> v = {1.5, 2.5, 3.5};
  std::string enc;
  EncodeF64Chunk(v.data(), v.size(), &enc);
  std::vector<double> out(v.size());
  const auto* p = reinterpret_cast<const uint8_t*>(enc.data());
  for (size_t len = 0; len < enc.size(); ++len) {
    EXPECT_FALSE(DecodeF64Chunk(p, len, v.size(), out.data()).ok());
  }
}

// ------------------------------------- FOR-varint decode vs a byte reference

// The byte-at-a-time reference for a FOR-varint payload (tag, base, n
// varint deltas): one byte and one branch per step, written apart from the
// codec. Returns the status code the decoder must return; *out holds the
// values when that code is OK.
template <typename T>
StatusCode ReferenceForVarDecode(const std::string& payload, size_t n,
                                 std::vector<T>* out) {
  using U = std::make_unsigned_t<T>;
  const auto* p = reinterpret_cast<const uint8_t*>(payload.data());
  const uint8_t* end = p + payload.size();
  if (static_cast<size_t>(end - p) < 1 + sizeof(T)) {
    return StatusCode::kInvalidArgument;
  }
  T base;
  std::memcpy(&base, p + 1, sizeof(T));
  p += 1 + sizeof(T);
  out->assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    uint64_t d = 0;
    for (int shift = 0;; shift += 7) {
      if (p == end || shift > 63) return StatusCode::kInvalidArgument;
      const uint8_t byte = *p++;
      // The tenth byte holds bit 63 only, and ends the varint.
      if (shift == 63 && byte > 1) return StatusCode::kInvalidArgument;
      d |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
    }
    if (sizeof(T) < sizeof(uint64_t) && d > 0xffffffffull) {
      return StatusCode::kInvalidArgument;
    }
    (*out)[i] = static_cast<T>(static_cast<U>(base) + static_cast<U>(d));
  }
  return p == end ? StatusCode::kOk : StatusCode::kInvalidArgument;
}

Status DecodeForTest(const uint8_t* p, size_t len, size_t n, int64_t* out) {
  return DecodeI64Chunk(p, len, n, out);
}
Status DecodeForTest(const uint8_t* p, size_t len, size_t n, int32_t* out) {
  return DecodeCodeChunk(p, len, n, out);
}

// Decodes `payload` from an allocation of exactly its size (so the
// sanitizers see any read past the end) and checks the values and the
// status code against the reference.
template <typename T>
void ExpectDecodeMatchesReference(const std::string& payload, size_t n,
                                  const std::string& what) {
  std::vector<T> want;
  const StatusCode want_code = ReferenceForVarDecode(payload, n, &want);
  const auto buf = std::make_unique<uint8_t[]>(payload.size());
  std::memcpy(buf.get(), payload.data(), payload.size());
  std::vector<T> got(n, T{-3});
  const Status st = DecodeForTest(buf.get(), payload.size(), n, got.data());
  ASSERT_EQ(st.code(), want_code) << what << ": " << st.ToString();
  if (st.ok()) EXPECT_EQ(got, want) << what;
}

// Tag, base, then each delta as a canonical varint.
template <typename T>
std::string ForVarPayload(T base, const std::vector<uint64_t>& deltas) {
  std::string out(1, static_cast<char>(sizeof(T) == sizeof(int64_t)
                                           ? ChunkEncoding::kForVarI64
                                           : ChunkEncoding::kForVarCode));
  out.append(reinterpret_cast<const char*>(&base), sizeof(T));
  for (uint64_t d : deltas) PutVarint64(d, &out);
  return out;
}

// A delta whose canonical varint is exactly `width` bytes (1 to 5).
uint64_t DeltaOfWidth(Rng* rng, int width) {
  const uint64_t lo = width == 1 ? 0 : uint64_t{1} << (7 * (width - 1));
  const uint64_t hi = std::min<uint64_t>((uint64_t{1} << (7 * width)) - 1,
                                         0xffffffffull);
  return lo + rng->Uniform(hi - lo + 1);
}

// Runs of one-byte varints broken by 1- to 5-byte ones, after `lead`
// one-byte values, so every wider varint lands at every offset mod 8.
std::vector<uint64_t> MixedDeltas(Rng* rng, size_t lead, size_t n) {
  std::vector<uint64_t> d;
  for (size_t i = 0; i < lead && d.size() < n; ++i) {
    d.push_back(DeltaOfWidth(rng, 1));
  }
  while (d.size() < n) {
    if (rng->Uniform(2) == 0) {
      for (size_t run = rng->Uniform(20); run > 0 && d.size() < n; --run) {
        d.push_back(DeltaOfWidth(rng, 1));
      }
    } else {
      d.push_back(DeltaOfWidth(rng, 1 + static_cast<int>(rng->Uniform(5))));
    }
  }
  return d;
}

template <typename T>
void ExpectMixedStreamsMatchReference(T base) {
  Rng rng(4242);
  for (size_t lead = 0; lead < 8; ++lead) {
    for (int trial = 0; trial < 40; ++trial) {
      const size_t n = 1 + rng.Uniform(300);
      const std::string payload = ForVarPayload(base, MixedDeltas(&rng, lead, n));
      ExpectDecodeMatchesReference<T>(
          payload, n,
          "lead " + std::to_string(lead) + " n " + std::to_string(n));
    }
  }
}

TEST(ChunkCodecTest, ForVarDecodeMatchesReferenceOnMixedWidths) {
  ExpectMixedStreamsMatchReference<int64_t>(-123456789012345);
  ExpectMixedStreamsMatchReference<int64_t>(std::numeric_limits<int64_t>::max());
  ExpectMixedStreamsMatchReference<int32_t>(7);
  ExpectMixedStreamsMatchReference<int32_t>(std::numeric_limits<int32_t>::min());
}

TEST(ChunkCodecTest, ForVarDecodeMatchesReferenceOffWordLengths) {
  Rng rng(99);
  for (size_t n = 1; n <= 41; ++n) {
    std::vector<uint64_t> ones(n);
    for (auto& d : ones) d = DeltaOfWidth(&rng, 1);
    const std::string tag = "n " + std::to_string(n);
    ExpectDecodeMatchesReference<int64_t>(ForVarPayload<int64_t>(-5, ones), n,
                                          tag);
    ExpectDecodeMatchesReference<int32_t>(ForVarPayload<int32_t>(5, ones), n,
                                          tag);
    const std::vector<uint64_t> mixed = MixedDeltas(&rng, n % 8, n);
    ExpectDecodeMatchesReference<int64_t>(ForVarPayload<int64_t>(0, mixed), n,
                                          tag + " mixed");
    ExpectDecodeMatchesReference<int32_t>(ForVarPayload<int32_t>(0, mixed), n,
                                          tag + " mixed");
  }
}

TEST(ChunkCodecTest, ForVarDecodeMatchesReferenceOnTruncation) {
  // Two all-one-byte words, a 3-byte varint, then one more word.
  std::vector<uint64_t> d(16, 9);
  d.push_back(20000);
  d.insert(d.end(), 8, 3);
  for (const std::string& full :
       {ForVarPayload<int64_t>(1, d), ForVarPayload<int32_t>(1, d)}) {
    for (size_t len = 0; len <= full.size(); ++len) {
      const std::string cut = full.substr(0, len);
      const std::string tag = "len " + std::to_string(len);
      if (full[0] == static_cast<char>(ChunkEncoding::kForVarI64)) {
        ExpectDecodeMatchesReference<int64_t>(cut, d.size(), tag);
      } else {
        ExpectDecodeMatchesReference<int32_t>(cut, d.size(), tag);
      }
    }
  }
  // The payload ends right after an all-one-byte word, one value short.
  const std::vector<uint64_t> word(8, 1);
  ExpectDecodeMatchesReference<int64_t>(ForVarPayload<int64_t>(0, word), 9,
                                        "one short");
  ExpectDecodeMatchesReference<int32_t>(ForVarPayload<int32_t>(0, word), 9,
                                        "one short");
}

TEST(ChunkCodecTest, ForVarDecodeMatchesReferenceOnTrailingBytes) {
  const std::vector<uint64_t> d(13, 4);
  for (size_t extra = 1; extra <= 16; ++extra) {
    const std::string pad(extra, '\x01');
    const std::string tag = "extra " + std::to_string(extra);
    ExpectDecodeMatchesReference<int64_t>(ForVarPayload<int64_t>(0, d) + pad,
                                          d.size(), tag);
    ExpectDecodeMatchesReference<int32_t>(ForVarPayload<int32_t>(0, d) + pad,
                                          d.size(), tag);
  }
}

TEST(ChunkCodecTest, ForVarDecodeMatchesReferenceOnBadVarints) {
  const std::vector<uint64_t> word(8, 2);
  const std::string overlong(11, '\x80');
  // Ten bytes whose last carries more than bit 63.
  const std::string spill = std::string(9, '\xff') + '\x02';
  // Ten bytes ending in bit 63 alone: a valid int64 delta, too wide a code.
  const std::string top = std::string(9, '\x80') + '\x01';
  // 2^32: five bytes, one past the widest code delta.
  std::string wide;
  PutVarint64(uint64_t{1} << 32, &wide);
  for (const std::string& bad : {overlong, spill, top, wide}) {
    const std::string tail = bad + std::string(8, '\x00');
    ExpectDecodeMatchesReference<int64_t>(
        ForVarPayload<int64_t>(0, word) + tail, 17, "int64 bad varint");
    ExpectDecodeMatchesReference<int32_t>(
        ForVarPayload<int32_t>(0, word) + tail, 17, "code bad varint");
  }
}

// ------------------------------------------------------- varint primitives

TEST(ChunkCodecTest, VarintRoundTrip) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (1ull << 32) - 1,
                            1ull << 32,
                            ~0ull};
  for (uint64_t v : cases) {
    std::string s;
    PutVarint64(v, &s);
    const auto* p = reinterpret_cast<const uint8_t*>(s.data());
    const uint8_t* end = p + s.size();
    uint64_t back = 0;
    ASSERT_TRUE(GetVarint64(&p, end, &back)) << v;
    EXPECT_EQ(back, v);
    EXPECT_EQ(p, end) << "no trailing bytes for " << v;
  }
}

TEST(ChunkCodecTest, VarintRejectsTruncation) {
  std::string s;
  PutVarint64(~0ull, &s);
  for (size_t len = 0; len < s.size(); ++len) {
    const auto* p = reinterpret_cast<const uint8_t*>(s.data());
    uint64_t out;
    EXPECT_FALSE(GetVarint64(&p, p + len, &out)) << "len " << len;
  }
}

TEST(ChunkCodecTest, VarintRejectsOverlongEncoding) {
  // 11 continuation bytes can never be a valid varint64.
  const uint8_t overlong[11] = {0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                                0x80, 0x80, 0x80, 0x80, 0x80};
  const uint8_t* p = overlong;
  uint64_t out;
  EXPECT_FALSE(GetVarint64(&p, p + sizeof(overlong), &out));
}

// ---------------------------------------------------------------- zone maps

TEST(ChunkCodecTest, IntZoneRange) {
  const int64_t v[] = {5, -3, 8, 0};
  const ZoneMap z = ComputeIntZone(v, 4);
  EXPECT_EQ(z.imin, -3);
  EXPECT_EQ(z.imax, 8);
  EXPECT_EQ(z.rows, 4u);
}

TEST(ChunkCodecTest, DoubleZoneCountsNans) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double v[] = {1.5, nan, -2.5, nan};
  const ZoneMap z = ComputeDoubleZone(v, 4);
  EXPECT_EQ(z.dmin, -2.5);
  EXPECT_EQ(z.dmax, 1.5);
  EXPECT_EQ(z.rows, 4u);
  EXPECT_EQ(z.nan_count, 2u);
  const double all_nan[] = {nan, nan};
  const ZoneMap zn = ComputeDoubleZone(all_nan, 2);
  EXPECT_EQ(zn.nan_count, zn.rows);
}

TEST(ChunkCodecTest, CodeZoneRange) {
  const int32_t v[] = {7, 2, 9};
  const ZoneMap z = ComputeCodeZone(v, 3);
  EXPECT_EQ(z.cmin, 2);
  EXPECT_EQ(z.cmax, 9);
}

}  // namespace
}  // namespace cvopt
