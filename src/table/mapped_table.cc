#include "src/table/mapped_table.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <unordered_map>

#include "src/expr/compiled_predicate.h"
#include "src/expr/predicate.h"
#include "src/util/env.h"
#include "src/util/failpoint.h"
#include "src/util/string_util.h"

namespace cvopt {

namespace {

// ------------------------------------------------------ decoded-chunk cache

struct CacheKey {
  uint64_t uid;
  uint32_t col;
  uint32_t chunk;
  bool operator==(const CacheKey& o) const {
    return uid == o.uid && col == o.col && chunk == o.chunk;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const {
    uint64_t h = k.uid * 0x9e3779b97f4a7c15ull;
    h ^= (static_cast<uint64_t>(k.col) << 32) | k.chunk;
    h *= 0xff51afd7ed558ccdull;
    return static_cast<size_t>(h ^ (h >> 33));
  }
};

// Process-wide LRU over decoded chunks, bounded by a byte budget. Entries
// are shared_ptrs, so an evicted chunk stays alive for any reader still
// holding it.
class ChunkCache {
 public:
  static ChunkCache& Global() {
    static ChunkCache* cache = new ChunkCache();  // leaked: process lifetime
    return *cache;
  }

  std::shared_ptr<const DecodedChunk> Get(const CacheKey& key) {
    std::lock_guard<std::mutex> l(mutex_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);  // move to front
    return it->second->data;
  }

  void Put(const CacheKey& key, std::shared_ptr<const DecodedChunk> data,
           size_t budget) {
    const size_t bytes = data->byte_size();
    std::lock_guard<std::mutex> l(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) return;  // racing decode; first insert wins
    lru_.push_front(Entry{key, std::move(data), bytes});
    map_[key] = lru_.begin();
    resident_bytes_ += bytes;
    while (resident_bytes_ > budget && lru_.size() > 1) {
      EvictBackLocked();
    }
  }

  void InvalidateTable(uint64_t uid) {
    std::lock_guard<std::mutex> l(mutex_);
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->key.uid == uid) {
        resident_bytes_ -= it->bytes;
        map_.erase(it->key);
        it = lru_.erase(it);
      } else {
        ++it;
      }
    }
  }

  ChunkCacheStats Stats() {
    std::lock_guard<std::mutex> l(mutex_);
    ChunkCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.resident_bytes = resident_bytes_;
    return s;
  }

  void ResetStats() {
    std::lock_guard<std::mutex> l(mutex_);
    hits_ = misses_ = evictions_ = 0;
  }

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const DecodedChunk> data;
    size_t bytes;
  };

  void EvictBackLocked() {
    const Entry& victim = lru_.back();
    resident_bytes_ -= victim.bytes;
    map_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }

  std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash> map_;
  uint64_t resident_bytes_ = 0;
  uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

std::atomic<size_t> g_cache_budget_override{0};

uint64_t NextMappedUid() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// ------------------------------------------------------------ file parsing

// File-format sanity bounds: generous for real data, tight enough that a
// corrupted count is rejected before it can drive a pathological
// allocation.
constexpr uint64_t kMaxFileRows = 1ull << 31;
constexpr uint32_t kMaxFileCols = 1u << 16;
constexpr uint32_t kMaxDictEntries = 1u << 28;
constexpr uint32_t kMaxStringLen = 1u << 28;
constexpr uint64_t kMaxFileChunkRows = 1ull << 22;

// Serialized ZoneMap record: the 8 fields in declaration order, 48 bytes.
constexpr size_t kZoneRecordBytes = 48;

// Bounds-checked little-endian cursor over the mapping.
class MapReader {
 public:
  MapReader(const uint8_t* p, size_t n) : p_(p), end_(p + n) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  size_t offset_from(const uint8_t* base) const {
    return static_cast<size_t>(p_ - base);
  }

  Status ReadBytes(void* out, size_t n) {
    if (remaining() < n) return Status::InvalidArgument("truncated table file");
    std::memcpy(out, p_, n);
    p_ += n;
    return Status::OK();
  }

  template <typename T>
  Result<T> ReadPod() {
    T v;
    CVOPT_RETURN_NOT_OK(ReadBytes(&v, sizeof(T)));
    return v;
  }

  Result<std::string> ReadString() {
    CVOPT_ASSIGN_OR_RETURN(uint32_t len, ReadPod<uint32_t>());
    if (len > kMaxStringLen || len > remaining()) {
      return Status::InvalidArgument("corrupt string length");
    }
    std::string s(len, '\0');
    CVOPT_RETURN_NOT_OK(ReadBytes(s.data(), len));
    return s;
  }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

Status DecodeZoneRecord(MapReader* r, ZoneMap* z) {
  CVOPT_ASSIGN_OR_RETURN(z->imin, r->ReadPod<int64_t>());
  CVOPT_ASSIGN_OR_RETURN(z->imax, r->ReadPod<int64_t>());
  CVOPT_ASSIGN_OR_RETURN(z->dmin, r->ReadPod<double>());
  CVOPT_ASSIGN_OR_RETURN(z->dmax, r->ReadPod<double>());
  CVOPT_ASSIGN_OR_RETURN(z->cmin, r->ReadPod<int32_t>());
  CVOPT_ASSIGN_OR_RETURN(z->cmax, r->ReadPod<int32_t>());
  CVOPT_ASSIGN_OR_RETURN(z->rows, r->ReadPod<uint32_t>());
  CVOPT_ASSIGN_OR_RETURN(z->nan_count, r->ReadPod<uint32_t>());
  return Status::OK();
}

}  // namespace

ChunkCacheStats GetChunkCacheStats() { return ChunkCache::Global().Stats(); }

void ResetChunkCacheStats() { ChunkCache::Global().ResetStats(); }

size_t ChunkCacheBudgetBytes() {
  const size_t override = g_cache_budget_override.load();
  if (override != 0) return override;
  static const size_t resolved = [] {
    if (const auto v = ParseEnvInt("CVOPT_CHUNK_CACHE_BYTES"); v && *v > 0) {
      return static_cast<size_t>(*v);
    }
    return size_t{64} << 20;  // 64 MiB
  }();
  return resolved;
}

void SetChunkCacheBudgetForTesting(size_t bytes) {
  g_cache_budget_override.store(bytes);
}

Result<MappedTable> MappedTable::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open for read: " + path);

  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::Internal("cannot stat: " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::InvalidArgument("not a cvopt table file (empty): " + path);
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map == MAP_FAILED) {
    ::close(fd);
    return Status::Internal("mmap failed: " + path);
  }

  MappedTable t;
  t.base_ = static_cast<const uint8_t*>(map);
  t.map_size_ = size;
  t.fd_ = fd;
  t.uid_ = NextMappedUid();
  // From here on, any validation failure destroys `t`, which unmaps.

  CVOPT_FAILPOINT("mapped.open");
  MapReader r(t.base_, size);
  char magic[4];
  CVOPT_RETURN_NOT_OK(r.ReadBytes(magic, sizeof(magic)));
  if (std::memcmp(magic, "CVTB", 4) != 0) {
    return Status::InvalidArgument("not a cvopt table file: " + path);
  }
  CVOPT_ASSIGN_OR_RETURN(uint32_t version, r.ReadPod<uint32_t>());
  if (version != 2) {
    return Status::InvalidArgument(
        StrFormat("mmap reader requires a version-2 table file, got %u",
                  version));
  }
  CVOPT_ASSIGN_OR_RETURN(uint64_t num_rows, r.ReadPod<uint64_t>());
  CVOPT_ASSIGN_OR_RETURN(uint32_t num_cols, r.ReadPod<uint32_t>());
  CVOPT_ASSIGN_OR_RETURN(uint64_t chunk_rows, r.ReadPod<uint64_t>());
  if (num_rows > kMaxFileRows) {
    return Status::InvalidArgument("corrupt row count");
  }
  if (num_cols > kMaxFileCols) {
    return Status::InvalidArgument("corrupt column count");
  }
  if (chunk_rows == 0 || chunk_rows > kMaxFileChunkRows) {
    return Status::InvalidArgument("corrupt chunk size");
  }
  const size_t num_chunks =
      NumChunks(static_cast<size_t>(num_rows), static_cast<size_t>(chunk_rows));

  t.num_rows_ = static_cast<size_t>(num_rows);
  t.zones_.chunk_rows = static_cast<size_t>(chunk_rows);
  t.zones_.num_chunks = num_chunks;

  // Column metadata (names, types, dictionaries).
  std::vector<Field> fields;
  fields.reserve(num_cols);
  t.dicts_.resize(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) {
    CVOPT_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    CVOPT_ASSIGN_OR_RETURN(uint8_t type_raw, r.ReadPod<uint8_t>());
    if (type_raw > static_cast<uint8_t>(DataType::kString)) {
      return Status::InvalidArgument("corrupt column type");
    }
    const DataType type = static_cast<DataType>(type_raw);
    fields.push_back({std::move(name), type});
    if (type == DataType::kString) {
      CVOPT_ASSIGN_OR_RETURN(uint32_t dict_size, r.ReadPod<uint32_t>());
      if (dict_size > kMaxDictEntries || dict_size > r.remaining()) {
        return Status::InvalidArgument("corrupt dictionary size");
      }
      auto& dict = t.dicts_[c];
      dict.reserve(dict_size);
      for (uint32_t d = 0; d < dict_size; ++d) {
        CVOPT_ASSIGN_OR_RETURN(std::string entry, r.ReadString());
        dict.push_back(std::move(entry));
      }
    }
  }
  t.schema_ = Schema(std::move(fields));

  // Zone maps, cross-checked against the header geometry: every chunk's
  // stored row count must match what (num_rows, chunk_rows) implies — a
  // cheap structural invariant that catches most header corruption.
  t.zones_.columns.resize(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) {
    auto& zones = t.zones_.columns[c];
    zones.resize(num_chunks);
    for (size_t k = 0; k < num_chunks; ++k) {
      CVOPT_RETURN_NOT_OK(DecodeZoneRecord(&r, &zones[k]));
      const size_t expect = std::min<size_t>(
          t.zones_.chunk_rows, t.num_rows_ - k * t.zones_.chunk_rows);
      if (zones[k].rows != expect || zones[k].nan_count > zones[k].rows) {
        return Status::InvalidArgument("corrupt zone map");
      }
    }
  }

  // Chunk directory: absolute (offset, length) per (col, chunk), each
  // required to land fully inside the payload region.
  const size_t payload_base =
      r.offset_from(t.base_) +
      static_cast<size_t>(num_cols) * num_chunks * 16;
  t.dir_.resize(static_cast<size_t>(num_cols) * num_chunks);
  for (auto& entry : t.dir_) {
    CVOPT_ASSIGN_OR_RETURN(uint64_t off, r.ReadPod<uint64_t>());
    CVOPT_ASSIGN_OR_RETURN(uint64_t len, r.ReadPod<uint64_t>());
    if (off < payload_base || off > size || len == 0 || len > size - off) {
      return Status::InvalidArgument("corrupt chunk directory");
    }
    entry = {off, len};
  }

  return t;
}

MappedTable::MappedTable(MappedTable&& other) noexcept
    : schema_(std::move(other.schema_)),
      num_rows_(other.num_rows_),
      zones_(std::move(other.zones_)),
      dicts_(std::move(other.dicts_)),
      dir_(std::move(other.dir_)),
      base_(other.base_),
      map_size_(other.map_size_),
      fd_(other.fd_),
      uid_(other.uid_) {
  other.base_ = nullptr;
  other.map_size_ = 0;
  other.fd_ = -1;
  other.uid_ = 0;
}

MappedTable& MappedTable::operator=(MappedTable&& other) noexcept {
  if (this != &other) {
    Reset();
    schema_ = std::move(other.schema_);
    num_rows_ = other.num_rows_;
    zones_ = std::move(other.zones_);
    dicts_ = std::move(other.dicts_);
    dir_ = std::move(other.dir_);
    base_ = other.base_;
    map_size_ = other.map_size_;
    fd_ = other.fd_;
    uid_ = other.uid_;
    other.base_ = nullptr;
    other.map_size_ = 0;
    other.fd_ = -1;
    other.uid_ = 0;
  }
  return *this;
}

MappedTable::~MappedTable() { Reset(); }

void MappedTable::Reset() noexcept {
  if (base_ != nullptr) {
    ChunkCache::Global().InvalidateTable(uid_);
    ::munmap(const_cast<uint8_t*>(base_), map_size_);
    base_ = nullptr;
    map_size_ = 0;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

size_t MappedTable::ChunkRowCount(size_t chunk) const {
  const size_t lo = chunk * zones_.chunk_rows;
  return std::min(zones_.chunk_rows, num_rows_ - lo);
}

Result<std::shared_ptr<const DecodedChunk>> MappedTable::GetChunk(
    size_t col, size_t chunk) const {
  if (col >= num_columns() || chunk >= num_chunks()) {
    return Status::InvalidArgument("chunk index out of range");
  }
  const CacheKey key{uid_, static_cast<uint32_t>(col),
                     static_cast<uint32_t>(chunk)};
  if (auto hit = ChunkCache::Global().Get(key)) return hit;
  CVOPT_FAILPOINT("mapped.chunk_decode");

  const auto [off, len] = dir_[col * num_chunks() + chunk];
  const uint8_t* p = base_ + off;
  const size_t n = ChunkRowCount(chunk);
  auto out = std::make_shared<DecodedChunk>();
  out->type = schema_.field(col).type;
  switch (out->type) {
    case DataType::kInt64:
      out->ints.resize(n);
      CVOPT_RETURN_NOT_OK(DecodeI64Chunk(p, len, n, out->ints.data()));
      break;
    case DataType::kDouble:
      out->doubles.resize(n);
      CVOPT_RETURN_NOT_OK(DecodeF64Chunk(p, len, n, out->doubles.data()));
      break;
    case DataType::kString: {
      out->codes.resize(n);
      CVOPT_RETURN_NOT_OK(DecodeCodeChunk(p, len, n, out->codes.data()));
      const int32_t dict_size = static_cast<int32_t>(dicts_[col].size());
      for (int32_t code : out->codes) {
        if (code < 0 || code >= dict_size) {
          return Status::InvalidArgument("corrupt dictionary code");
        }
      }
      break;
    }
  }
  ChunkCache::Global().Put(key, out, ChunkCacheBudgetBytes());
  return std::shared_ptr<const DecodedChunk>(std::move(out));
}

Result<Table> MappedTable::Materialize() const {
  std::vector<Field> fields;
  std::vector<Column> columns;
  fields.reserve(num_columns());
  columns.reserve(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) {
    const Field& field = schema_.field(c);
    fields.push_back(field);
    Column col(field.type);
    // Decode straight into the full-height buffers, chunk by chunk,
    // bypassing the cache (nothing here is re-read).
    switch (field.type) {
      case DataType::kInt64: {
        std::vector<int64_t> vals(num_rows_);
        for (size_t k = 0; k < num_chunks(); ++k) {
          const auto [off, len] = dir_[c * num_chunks() + k];
          CVOPT_RETURN_NOT_OK(DecodeI64Chunk(base_ + off, len,
                                             ChunkRowCount(k),
                                             vals.data() + k * chunk_rows()));
        }
        col.AdoptInts(std::move(vals));
        break;
      }
      case DataType::kDouble: {
        std::vector<double> vals(num_rows_);
        for (size_t k = 0; k < num_chunks(); ++k) {
          const auto [off, len] = dir_[c * num_chunks() + k];
          CVOPT_RETURN_NOT_OK(DecodeF64Chunk(base_ + off, len,
                                             ChunkRowCount(k),
                                             vals.data() + k * chunk_rows()));
        }
        col.AdoptDoubles(std::move(vals));
        break;
      }
      case DataType::kString: {
        std::vector<int32_t> codes(num_rows_);
        for (size_t k = 0; k < num_chunks(); ++k) {
          const auto [off, len] = dir_[c * num_chunks() + k];
          CVOPT_RETURN_NOT_OK(DecodeCodeChunk(base_ + off, len,
                                              ChunkRowCount(k),
                                              codes.data() + k * chunk_rows()));
        }
        const int32_t dict_size = static_cast<int32_t>(dicts_[c].size());
        for (int32_t code : codes) {
          if (code < 0 || code >= dict_size) {
            return Status::InvalidArgument("corrupt dictionary code");
          }
        }
        col.AdoptDictionary(dicts_[c]);
        col.AdoptCodes(std::move(codes));
        break;
      }
    }
    columns.push_back(std::move(col));
  }
  return Table(Schema(std::move(fields)), std::move(columns));
}

namespace {

// Appends row `r` of decoded chunk data to the output column, re-interning
// strings through the file dictionary so output dictionaries stay dense.
void AppendDecodedRow(const DecodedChunk& data,
                      const std::vector<std::string>& dict, size_t r,
                      Column* out) {
  switch (data.type) {
    case DataType::kInt64:
      out->AppendInt(data.ints[r]);
      break;
    case DataType::kDouble:
      out->AppendDouble(data.doubles[r]);
      break;
    case DataType::kString:
      out->AppendString(dict[static_cast<size_t>(data.codes[r])]);
      break;
  }
}

}  // namespace

Table MappedTable::Prototype() const {
  std::vector<Column> cols;
  cols.reserve(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) {
    Column col(schema_.field(c).type);
    if (col.type() == DataType::kString) col.AdoptDictionary(dicts_[c]);
    cols.push_back(std::move(col));
  }
  return Table(schema_, std::move(cols));
}

Result<Table> MappedTable::Materialize(const Predicate& where) const {
  // Compile once against the prototype: validates the predicate and
  // yields the zone classifier consulted before any decode.
  const Table proto = Prototype();
  CVOPT_ASSIGN_OR_RETURN(CompiledPredicate proto_where,
                         CompiledPredicate::Compile(proto, where));

  const bool zones_on = ZoneMapPruningEnabled();
  std::vector<Column> out_cols;
  out_cols.reserve(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) {
    out_cols.emplace_back(schema_.field(c).type);
  }

  std::vector<std::shared_ptr<const DecodedChunk>> data(num_columns());
  for (size_t k = 0; k < num_chunks(); ++k) {
    ChunkVerdict verdict = ChunkVerdict::kResidual;
    if (zones_on) {
      verdict = proto_where.ClassifyZones([&](uint32_t col) -> const ZoneMap& {
        return zones_.zone(col, k);
      });
      RecordZoneVerdict(verdict);
    }
    if (verdict == ChunkVerdict::kSkip) continue;  // never decoded

    const size_t n = ChunkRowCount(k);
    for (size_t c = 0; c < num_columns(); ++c) {
      CVOPT_ASSIGN_OR_RETURN(data[c], GetChunk(c, k));
    }
    std::vector<uint8_t> smask;
    if (verdict != ChunkVerdict::kTakeAll) {
      // Residual chunk: evaluate the kernels over the decoded storage.
      smask.assign(n, 0);
      const auto span_of = [&](uint32_t c) {
        const DecodedChunk& d = *data[c];
        return CompiledPredicate::ColumnSpan{d.ints.data(), d.doubles.data(),
                                             d.codes.data()};
      };
      proto_where.Rebind(span_of, n).EvalMaskRange(0, n, smask.data());
    }
    for (size_t r = 0; r < n; ++r) {
      if (!smask.empty() && smask[r] == 0) continue;
      for (size_t c = 0; c < num_columns(); ++c) {
        AppendDecodedRow(*data[c], dicts_[c], r, &out_cols[c]);
      }
    }
  }
  return Table(schema_, std::move(out_cols));
}

Result<Table> MappedTable::TakeRows(const std::vector<uint32_t>& rows) const {
  for (uint32_t r : rows) {
    if (r >= num_rows_) {
      return Status::InvalidArgument("TakeRows index out of range");
    }
  }
  std::vector<Column> out_cols;
  out_cols.reserve(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) {
    Column out(schema_.field(c).type);
    out.Reserve(rows.size());
    // One column at a time, holding a single decoded chunk: row lists from
    // samplers are near-sorted, so the chunk handle caches the common
    // consecutive-hit case and the LRU cache absorbs the rest.
    std::shared_ptr<const DecodedChunk> data;
    size_t loaded = SIZE_MAX;
    for (uint32_t r : rows) {
      const size_t k = r / zones_.chunk_rows;
      if (k != loaded) {
        CVOPT_ASSIGN_OR_RETURN(data, GetChunk(c, k));
        loaded = k;
      }
      AppendDecodedRow(*data, dicts_[c], r - k * zones_.chunk_rows, &out);
    }
    out_cols.push_back(std::move(out));
  }
  return Table(schema_, std::move(out_cols));
}

}  // namespace cvopt
