// GroupKey: composite discrete key identifying one group / stratum, and the
// one renderer of key labels.
#ifndef CVOPT_STATS_GROUP_KEY_H_
#define CVOPT_STATS_GROUP_KEY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/table/table.h"
#include "src/util/hash.h"

namespace cvopt {

/// One grouping column as a label renderer reads it: its type and, for a
/// string column, its dictionary (shared with the column it came from).
struct KeyColumn {
  DataType type = DataType::kInt64;
  std::shared_ptr<const std::vector<std::string>> dictionary;  // kString
};

/// The key columns of `table`'s columns `column_indices`, in order.
std::vector<KeyColumn> KeyColumnsOf(const Table& table,
                                    const std::vector<size_t>& column_indices);

/// Appends the label of one key, "v1|v2|...", to *out: codes[i] is the
/// code of columns[i] (a dictionary code for a string column, the value
/// for an int column). Every group label is rendered here.
void AppendKeyLabel(const std::vector<KeyColumn>& columns,
                    const int64_t* codes, std::string* out);

/// One discrete code per grouping attribute. Int columns contribute the raw
/// value, string columns their dictionary code.
struct GroupKey {
  std::vector<int64_t> codes;

  bool operator==(const GroupKey& other) const { return codes == other.codes; }

  /// Rendered as "v1|v2|..." using the source columns' dictionaries.
  std::string Render(const Table& table,
                     const std::vector<size_t>& column_indices) const;
};

/// Seed of the composite key hash. Every table hashing whole keys (the
/// GroupIndex wide tier, the streaming router, MatchGroups, GroupKeyHash)
/// must agree on it so their buckets coincide.
inline constexpr uint64_t kKeyHashSeed = 0x2545F4914F6CDD1DULL;

/// Hash of one key's n codes.
inline uint64_t HashKeyCodes(const int64_t* codes, size_t n) {
  uint64_t h = kKeyHashSeed;
  for (size_t i = 0; i < n; ++i) {
    h = HashCombine(h, static_cast<uint64_t>(codes[i]));
  }
  return h;
}

/// Hash functor for unordered containers keyed by GroupKey.
struct GroupKeyHash {
  size_t operator()(const GroupKey& k) const {
    return static_cast<size_t>(HashKeyCodes(k.codes.data(), k.codes.size()));
  }
};

}  // namespace cvopt

#endif  // CVOPT_STATS_GROUP_KEY_H_
