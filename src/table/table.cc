#include "src/table/table.h"

#include <atomic>

#include "src/util/string_util.h"

namespace cvopt {

uint64_t Table::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Table::NextDerivedId() {
  static std::atomic<uint64_t> next{uint64_t{1} << 63};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

// Zone index of a rowless table — also what a moved-from husk points at,
// keeping zone_index() non-null unconditionally.
std::shared_ptr<const ZoneMapIndex> EmptyZoneIndex() {
  static const std::shared_ptr<const ZoneMapIndex> empty = [] {
    auto z = std::make_shared<ZoneMapIndex>();
    z->chunk_rows = DefaultChunkRows();
    z->num_chunks = 0;
    return z;
  }();
  return empty;
}

}  // namespace

std::shared_ptr<const ZoneMapIndex> Table::BuildZoneIndex(
    const std::vector<Column>& columns, size_t num_rows) {
  const size_t chunk_rows = DefaultChunkRows();
  if (num_rows == 0 && chunk_rows == EmptyZoneIndex()->chunk_rows) {
    return EmptyZoneIndex();
  }
  auto z = std::make_shared<ZoneMapIndex>();
  z->chunk_rows = chunk_rows;
  z->num_chunks = NumChunks(num_rows, chunk_rows);
  z->columns.resize(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    auto& zones = z->columns[c];
    zones.resize(z->num_chunks);
    const Column& col = columns[c];
    for (size_t k = 0; k < z->num_chunks; ++k) {
      const size_t lo = k * chunk_rows;
      const size_t n = std::min(chunk_rows, num_rows - lo);
      switch (col.type()) {
        case DataType::kInt64:
          zones[k] = ComputeIntZone(col.ints().data() + lo, n);
          break;
        case DataType::kDouble:
          zones[k] = ComputeDoubleZone(col.doubles().data() + lo, n);
          break;
        case DataType::kString:
          zones[k] = ComputeCodeZone(col.codes().data() + lo, n);
          break;
      }
    }
  }
  return z;
}

Table::Table(const Table& other)
    : schema_(other.schema_),
      columns_(other.columns_),
      num_rows_(other.num_rows_),
      zones_(other.zones_) {}

Table& Table::operator=(const Table& other) {
  if (this != &other) {
    schema_ = other.schema_;
    columns_ = other.columns_;
    num_rows_ = other.num_rows_;
    zones_ = other.zones_;
    id_ = NextId();
  }
  return *this;
}

Table::Table(Table&& other) noexcept
    : schema_(std::move(other.schema_)),
      columns_(std::move(other.columns_)),
      num_rows_(other.num_rows_),
      zones_(std::move(other.zones_)),
      id_(other.id_) {
  // The moved-from husk must not keep a live (id, num_rows) cache key: a
  // later plan compile against it would silently hit this table's cached
  // plans (and their raw column pointers).
  other.columns_.clear();
  other.num_rows_ = 0;
  other.zones_ = EmptyZoneIndex();
  other.id_ = NextId();
}

Table& Table::operator=(Table&& other) noexcept {
  if (this != &other) {
    schema_ = std::move(other.schema_);
    columns_ = std::move(other.columns_);
    num_rows_ = other.num_rows_;
    zones_ = std::move(other.zones_);
    id_ = other.id_;
    other.columns_.clear();
    other.num_rows_ = 0;
    other.zones_ = EmptyZoneIndex();
    other.id_ = NextId();
  }
  return *this;
}

Table::Table(Schema schema, std::vector<Column> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  InitRows();
}

Table::Table(Schema schema, std::vector<Column> columns, DerivedId)
    : schema_(std::move(schema)),
      columns_(std::move(columns)),
      id_(NextDerivedId()) {
  InitRows();
}

void Table::InitRows() {
  CVOPT_CHECK(schema_.num_fields() == columns_.size(),
              "schema/column count mismatch");
  num_rows_ = columns_.empty() ? 0 : columns_[0].size();
  for (const auto& c : columns_) {
    CVOPT_CHECK(c.size() == num_rows_, "ragged columns");
  }
  zones_ = BuildZoneIndex(columns_, num_rows_);
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  CVOPT_ASSIGN_OR_RETURN(size_t idx, schema_.FindColumn(name));
  return &columns_[idx];
}

Table Table::TakeRows(const std::vector<uint32_t>& row_indices) const {
  std::vector<Column> out_cols;
  out_cols.reserve(columns_.size());
  for (const auto& col : columns_) {
    Column out(col.type());
    out.Reserve(row_indices.size());
    switch (col.type()) {
      case DataType::kInt64:
        for (uint32_t r : row_indices) out.AppendInt(col.GetInt(r));
        break;
      case DataType::kDouble:
        for (uint32_t r : row_indices) out.AppendDouble(col.GetDouble(r));
        break;
      case DataType::kString:
        // Re-intern to keep the output dictionary dense.
        for (uint32_t r : row_indices) out.AppendString(col.GetString(r));
        break;
    }
    out_cols.push_back(std::move(out));
  }
  return Table(schema_, std::move(out_cols));
}

Table Table::Duplicate(size_t factor) const {
  std::vector<Column> out_cols;
  out_cols.reserve(columns_.size());
  for (const auto& col : columns_) {
    Column out(col.type());
    out.Reserve(num_rows_ * factor);
    for (size_t f = 0; f < factor; ++f) {
      switch (col.type()) {
        case DataType::kInt64:
          for (size_t r = 0; r < num_rows_; ++r) out.AppendInt(col.GetInt(r));
          break;
        case DataType::kDouble:
          for (size_t r = 0; r < num_rows_; ++r) out.AppendDouble(col.GetDouble(r));
          break;
        case DataType::kString:
          for (size_t r = 0; r < num_rows_; ++r) out.AppendString(col.GetString(r));
          break;
      }
    }
    out_cols.push_back(std::move(out));
  }
  return Table(schema_, std::move(out_cols));
}

std::string Table::ToString(size_t max_rows) const {
  std::string out = schema_.ToString() + StrFormat(" rows=%zu\n", num_rows_);
  const size_t n = std::min(max_rows, num_rows_);
  for (size_t r = 0; r < n; ++r) {
    std::vector<std::string> fields;
    fields.reserve(columns_.size());
    for (const auto& c : columns_) fields.push_back(c.GetValue(r).ToString());
    out += "  [" + Join(fields, ", ") + "]\n";
  }
  if (n < num_rows_) out += StrFormat("  ... (%zu more)\n", num_rows_ - n);
  return out;
}

}  // namespace cvopt
