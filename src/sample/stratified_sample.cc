#include "src/sample/stratified_sample.h"

#include "src/exec/query_context.h"

namespace cvopt {

namespace {

// Copies base[rows[i]] into out[i] for every sampled row.
template <class T>
std::vector<T> GatherValues(const std::vector<T>& base,
                            const std::vector<uint32_t>& rows) {
  std::vector<T> out(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) out[i] = base[rows[i]];
  return out;
}

size_t ValueBytes(DataType type) {
  return type == DataType::kString ? sizeof(int32_t) : sizeof(int64_t);
}

}  // namespace

StratifiedSample::StratifiedSample(const Table* base, std::vector<uint32_t> rows,
                                   std::vector<double> weights, std::string method)
    : base_rows_(base->num_rows()),
      rows_(std::move(rows)),
      weights_(std::move(weights)),
      method_(std::move(method)) {
  CVOPT_CHECK(rows_.size() == weights_.size(), "rows/weights size mismatch");
  for (const uint32_t r : rows_) {
    CVOPT_CHECK(r < base_rows_, "sampled row out of range");
  }
  size_t row_bytes = 0;
  for (size_t c = 0; c < base->num_columns(); ++c) {
    row_bytes += ValueBytes(base->column(c).type());
  }
  // Held for the gather only: the sample outlives the query that builds it.
  MemoryReservation res =
      ReserveMemoryOrThrow(rows_.size() * row_bytes, "sample row gather");
  std::vector<Column> cols;
  cols.reserve(base->num_columns());
  for (size_t c = 0; c < base->num_columns(); ++c) {
    const Column& in = base->column(c);
    Column out(in.type());
    switch (in.type()) {
      case DataType::kInt64:
        out.AdoptInts(GatherValues(in.ints(), rows_));
        break;
      case DataType::kDouble:
        out.AdoptDoubles(GatherValues(in.doubles(), rows_));
        break;
      case DataType::kString:
        out.AdoptCodes(GatherValues(in.codes(), rows_));
        out.AdoptDictionary(in.shared_dictionary());
        break;
    }
    cols.push_back(std::move(out));
  }
  table_ = std::make_shared<const Table>(base->schema(), std::move(cols),
                                        Table::DerivedId{});
}

uint64_t StratifiedSample::resident_bytes() const {
  uint64_t bytes = rows_.size() * (sizeof(uint32_t) + sizeof(double));
  for (size_t c = 0; c < table_->num_columns(); ++c) {
    const Column& col = table_->column(c);
    bytes += table_->num_rows() * ValueBytes(col.type());
  }
  if (group_index_ != nullptr) bytes += group_index_->resident_bytes();
  return bytes;
}

}  // namespace cvopt
