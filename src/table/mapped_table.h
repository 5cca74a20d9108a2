// MappedTable: a read-only view of a version-2 table file backed by mmap.
//
// A v2 file stores every column as independently encoded chunks plus
// per-chunk zone maps and a chunk directory (see table_io.h for the exact
// layout). MappedTable maps the file, validates the header / dictionary /
// zone / directory sections up front, and then serves decoded chunks on
// demand through a process-wide LRU cache bounded by
// CVOPT_CHUNK_CACHE_BYTES — so a table far larger than the cache budget
// (or than RAM, courtesy of the page cache) can be streamed through a
// group-by query chunk by chunk without ever being materialized.
//
// Validation contract (fuzzed by tests/table_io_fuzz_test.cc): Open and
// GetChunk return a clean Status on any malformed input — truncated file,
// corrupt counts, out-of-range directory entries, undecodable payloads,
// out-of-dictionary codes — and never read outside the mapping.
#ifndef CVOPT_TABLE_MAPPED_TABLE_H_
#define CVOPT_TABLE_MAPPED_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/table/chunk_codec.h"
#include "src/table/schema.h"
#include "src/table/table.h"
#include "src/util/status.h"

namespace cvopt {

class StreamGroupRouter;  // the exec layer's dense-id router

/// One decoded storage chunk of one column; exactly one vector is populated,
/// matching `type`.
struct DecodedChunk {
  DataType type = DataType::kInt64;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<int32_t> codes;

  size_t byte_size() const {
    return ints.size() * sizeof(int64_t) + doubles.size() * sizeof(double) +
           codes.size() * sizeof(int32_t);
  }
};

/// Decoded-chunk cache observability (benches, the out-of-core example).
struct ChunkCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t resident_bytes = 0;
};
ChunkCacheStats GetChunkCacheStats();
void ResetChunkCacheStats();

/// Cache budget in bytes: CVOPT_CHUNK_CACHE_BYTES, default 64 MiB.
size_t ChunkCacheBudgetBytes();
/// Testing/example override (0 restores the env/default).
void SetChunkCacheBudgetForTesting(size_t bytes);

class MappedTable {
 public:
  /// Maps and validates a v2 table file. The whole metadata layer (schema,
  /// dictionaries, zone maps, chunk directory) is checked here; chunk
  /// payloads are validated lazily on decode.
  static Result<MappedTable> Open(const std::string& path);

  MappedTable(MappedTable&& other) noexcept;
  MappedTable& operator=(MappedTable&& other) noexcept;
  MappedTable(const MappedTable&) = delete;
  MappedTable& operator=(const MappedTable&) = delete;
  ~MappedTable();

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_fields(); }
  size_t chunk_rows() const { return zones_.chunk_rows; }
  size_t num_chunks() const { return zones_.num_chunks; }

  /// Row count of chunk `chunk` (the last chunk may be short).
  size_t ChunkRowCount(size_t chunk) const;

  /// Zone maps read from the file (in memory; the payloads stay mapped).
  const ZoneMapIndex& zone_index() const { return zones_; }

  /// Decodes chunk `chunk` of column `col`, consulting the process-wide
  /// LRU cache first. String-column chunks are code-range-checked against
  /// the dictionary before they are handed out.
  Result<std::shared_ptr<const DecodedChunk>> GetChunk(size_t col,
                                                       size_t chunk) const;

  /// A zero-row Table with this file's schema, string columns carrying the
  /// file dictionaries: the compile target for predicates that are then
  /// classified against the file's zone maps and rebound to decoded chunks
  /// (CompiledPredicate::Rebind).
  Table Prototype() const;

  /// Fully decodes the file into an in-memory Table (the table_io v2 read
  /// path). Bypasses the chunk cache: each chunk is decoded straight into
  /// the destination column.
  Result<Table> Materialize() const;

  /// Copies the given rows into a standalone in-memory Table, decoding
  /// only the storage chunks the rows actually touch (through the chunk
  /// cache — consecutive hits to one chunk decode it once). The row set
  /// may be in any order and may repeat; output row r is `rows[r]`, the
  /// same contract as Table::TakeRows. Strings are re-interned into dense
  /// output dictionaries. This is how a stratified sample drawn against a
  /// mapped base materializes its rows without materializing the base.
  Result<Table> TakeRows(const std::vector<uint32_t>& rows) const;

  /// Group directories (thread-safe): per ordered grouping column list, a
  /// router that has routed every row of the file in order, i.e. each
  /// distinct key under its full-file first-seen id. Find returns the kept
  /// one (marking it most recently used) or null. Keep offers a complete
  /// one of `bytes`; the table keeps directories, least recently used
  /// dropped first, while they fit 4 B per row (the row->group mapping a
  /// materialized grouping costs), at most 64 MiB.
  std::shared_ptr<const StreamGroupRouter> FindGroupDirectory(
      const std::vector<size_t>& cols) const;
  void KeepGroupDirectory(const std::vector<size_t>& cols,
                          std::shared_ptr<const StreamGroupRouter> dir,
                          size_t bytes) const;
  /// Bytes of the group directories kept with the table.
  size_t group_directory_bytes() const;

 private:
  struct GroupDirectories;  // mutex-guarded LRU list of directories

  MappedTable() = default;

  void Reset() noexcept;  // unmap, close, invalidate cached chunks, directories

  Schema schema_;
  size_t num_rows_ = 0;
  ZoneMapIndex zones_;
  // Per column (null if numeric), shared with the tables built from the file.
  std::vector<std::shared_ptr<const std::vector<std::string>>> dicts_;
  // Per (col, chunk): absolute payload offset and length, validated
  // in-bounds at Open. Indexed [col * num_chunks + chunk].
  std::vector<std::pair<uint64_t, uint64_t>> dir_;

  const uint8_t* base_ = nullptr;  // mmap base (null when moved-from)
  size_t map_size_ = 0;
  int fd_ = -1;
  uint64_t uid_ = 0;  // process-unique id keying the chunk cache
  std::unique_ptr<GroupDirectories> dirs_;  // null when moved-from
};

}  // namespace cvopt

#endif  // CVOPT_TABLE_MAPPED_TABLE_H_
