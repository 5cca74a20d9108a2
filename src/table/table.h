// Table: an immutable-after-build in-memory columnar table.
#ifndef CVOPT_TABLE_TABLE_H_
#define CVOPT_TABLE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/table/chunk_codec.h"
#include "src/table/column.h"
#include "src/table/schema.h"
#include "src/util/status.h"

namespace cvopt {

/// Columnar table: a Schema plus one Column per field, all equal length.
class Table {
 public:
  Table(Schema schema, std::vector<Column> columns);

  /// Tag for a table derived from another (a sample's gathered rows): its
  /// id comes from a sequence disjoint from every other table's, so
  /// building derived tables never shifts the ids — and with them the
  /// catalog's per-table build seeds — of tables created later.
  struct DerivedId {};
  Table(Schema schema, std::vector<Column> columns, DerivedId);

  // A Table's identity travels with its column storage: moving transfers
  // the id (the moved-to object owns the same heap buffers, so plans
  // compiled against them stay valid) and re-identifies the emptied source,
  // while copying mints a fresh id (the copy owns distinct buffers and must
  // not share cached plans with the original). At most one live Table ever
  // carries a given id.
  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Process-unique identity of this table's column storage, used to key
  /// compiled-plan caches. Never reused, even after the table is destroyed.
  uint64_t id() const { return id_; }

  const Column& column(size_t i) const { return columns_[i]; }

  /// Column by name, or error if absent.
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// Index of the named column, or error.
  Result<size_t> ColumnIndex(const std::string& name) const {
    return schema_.FindColumn(name);
  }

  /// Builds a new table containing exactly the given rows (in order).
  /// Used to materialize samples.
  Table TakeRows(const std::vector<uint32_t>& row_indices) const;

  /// Builds a new table with this table's rows repeated `factor` times
  /// (used by the Table 6 scale-up experiment, mirroring OpenAQ-25x).
  Table Duplicate(size_t factor) const;

  /// Per-(column, chunk) zone maps, built at construction over
  /// DefaultChunkRows()-sized chunks. Heap-owned and shared by copies (the
  /// underlying data is identical), so a compiled plan's pointer to it
  /// stays valid across Table moves — the same lifetime contract as the
  /// raw column spans the plan borrows. Never null; num_chunks == 0 for an
  /// empty table.
  const ZoneMapIndex* zone_index() const { return zones_.get(); }

  /// Storage chunk granularity this table was built with.
  size_t chunk_rows() const { return zones_->chunk_rows; }
  size_t num_chunks() const { return zones_->num_chunks; }

  std::string ToString(size_t max_rows = 10) const;

 private:
  static uint64_t NextId();
  static uint64_t NextDerivedId();
  void InitRows();
  static std::shared_ptr<const ZoneMapIndex> BuildZoneIndex(
      const std::vector<Column>& columns, size_t num_rows);

  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_;
  std::shared_ptr<const ZoneMapIndex> zones_;
  uint64_t id_ = NextId();
};

}  // namespace cvopt

#endif  // CVOPT_TABLE_TABLE_H_
