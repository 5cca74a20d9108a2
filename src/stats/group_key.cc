#include "src/stats/group_key.h"

#include <charconv>

namespace cvopt {

std::vector<KeyColumn> KeyColumnsOf(const Table& table,
                                    const std::vector<size_t>& column_indices) {
  std::vector<KeyColumn> columns;
  columns.reserve(column_indices.size());
  for (size_t c : column_indices) {
    const Column& col = table.column(c);
    KeyColumn kc{col.type(), nullptr};
    if (col.type() == DataType::kString) {
      kc.dictionary = col.shared_dictionary();
    }
    columns.push_back(std::move(kc));
  }
  return columns;
}

void AppendKeyLabel(const std::vector<KeyColumn>& columns,
                    const int64_t* codes, std::string* out) {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out->push_back('|');
    const std::vector<std::string>* dict = columns[i].dictionary.get();
    if (dict != nullptr && static_cast<uint64_t>(codes[i]) < dict->size()) {
      out->append((*dict)[static_cast<size_t>(codes[i])]);
      continue;
    }
    // An int value, or (never for a valid key) a code past the dictionary.
    char buf[24];
    char* end = std::to_chars(buf, buf + sizeof(buf), codes[i]).ptr;
    if (dict != nullptr) out->push_back('<');
    out->append(buf, end);
    if (dict != nullptr) out->push_back('>');
  }
}

std::string GroupKey::Render(const Table& table,
                             const std::vector<size_t>& column_indices) const {
  std::string out;
  AppendKeyLabel(KeyColumnsOf(table, column_indices), codes.data(), &out);
  return out;
}

}  // namespace cvopt
