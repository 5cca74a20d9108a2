#include "src/exec/query_result.h"

#include <algorithm>

#include "src/util/string_util.h"

namespace cvopt {

Result<QueryResult> QueryResult::Dense(std::vector<std::string> agg_labels,
                                       std::vector<std::string> group_attrs,
                                       std::vector<KeyColumn> key_columns,
                                       std::vector<int64_t> codes,
                                       const std::vector<uint64_t>& counts,
                                       const std::vector<double>& finals) {
  const size_t k = key_columns.size();
  const size_t t = agg_labels.size();
  const size_t G = counts.size();
  if (group_attrs.size() != k || codes.size() != G * k ||
      finals.size() != G * t) {
    return Status::InvalidArgument(StrFormat(
        "result of %zu groups: %zu group attributes, %zu key columns, %zu "
        "codes, %zu finals for %zu aggregates",
        G, group_attrs.size(), k, codes.size(), finals.size(), t));
  }
  QueryResult r;
  r.agg_labels_ = std::move(agg_labels);
  r.group_attrs_ = std::move(group_attrs);
  r.key_columns_ = std::move(key_columns);
  size_t live = 0;
  for (size_t g = 0; g < G; ++g) live += counts[g] > 0 ? 1 : 0;
  r.values_.reserve(live * t);
  // Compact the live groups' codes in place (nothing moves when all live).
  size_t& out = r.num_groups_;
  for (size_t g = 0; g < G; ++g) {
    if (counts[g] == 0) continue;  // no surviving rows: group absent
    if (out != g) {
      std::copy_n(codes.begin() + g * k, k, codes.begin() + out * k);
    }
    for (size_t j = 0; j < t; ++j) r.values_.push_back(finals[j * G + g]);
    ++out;
  }
  codes.resize(live * k);
  r.codes_ = std::move(codes);
  return r;
}

std::string QueryResult::label(size_t i) const {
  std::string out;
  AppendKeyLabel(key_columns_, key_codes(i), &out);
  return out;
}

std::optional<size_t> QueryResult::FindByLabel(const std::string& label) const {
  for (size_t i = 0; i < num_groups_; ++i) {
    if (this->label(i) == label) return i;
  }
  return std::nullopt;
}

std::string QueryResult::ToString(size_t max_groups) const {
  std::string out =
      "group(" + Join(group_attrs_, ",") + ") -> [" + Join(agg_labels_, ", ") + "]\n";
  const size_t n = std::min(max_groups, num_groups());
  const size_t t = agg_labels_.size();
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> vals;
    vals.reserve(t);
    for (size_t j = 0; j < t; ++j) vals.push_back(FormatDouble(value(i, j), 4));
    out += "  " + label(i) + ": [" + Join(vals, ", ") + "]\n";
  }
  if (n < num_groups()) {
    out += StrFormat("  ... (%zu more)\n", num_groups() - n);
  }
  return out;
}

namespace {

// Codes compare only under agreeing key columns: the same type and, for a
// string column, one dictionary extending the other (the same handle, or a
// prefix of it: a table that interned more strings since).
bool KeyColumnsAgree(const KeyColumn& a, const KeyColumn& b) {
  if (a.type != b.type) return false;
  if (a.dictionary == b.dictionary) return true;
  if (a.dictionary == nullptr || b.dictionary == nullptr) return false;
  const std::vector<std::string>& x = *a.dictionary;
  const std::vector<std::string>& y = *b.dictionary;
  return x.size() <= y.size() ? std::equal(x.begin(), x.end(), y.begin())
                              : std::equal(y.begin(), y.end(), x.begin());
}

}  // namespace

Result<std::vector<size_t>> MatchGroups(const QueryResult& from,
                                        const QueryResult& into) {
  if (from.group_attrs() != into.group_attrs()) {
    return Status::InvalidArgument(
        "cannot match groups of (" + Join(from.group_attrs(), ",") +
        ") against groups of (" + Join(into.group_attrs(), ",") + ")");
  }
  const size_t k = into.key_arity();
  for (size_t c = 0; c < k; ++c) {
    if (!KeyColumnsAgree(from.key_columns()[c], into.key_columns()[c])) {
      return Status::InvalidArgument(
          "cannot match groups by " + from.group_attrs()[c] +
          ": the results' key columns differ in type or dictionary");
    }
  }
  // Open addressing, linear probing, at most half full; a slot holds an
  // index of `into` (group ids are dense uint32).
  constexpr uint32_t kEmpty = UINT32_MAX;
  size_t capacity = 16;
  while (capacity < 2 * into.num_groups()) capacity <<= 1;
  const size_t mask = capacity - 1;
  std::vector<uint32_t> slots(capacity, kEmpty);
  // The slot holding `codes`, or the empty slot where it would go.
  const auto probe = [&](const int64_t* codes) {
    size_t s = HashKeyCodes(codes, k) & mask;
    while (slots[s] != kEmpty &&
           !std::equal(codes, codes + k, into.key_codes(slots[s]))) {
      s = (s + 1) & mask;
    }
    return s;
  };
  for (size_t j = 0; j < into.num_groups(); ++j) {
    const size_t s = probe(into.key_codes(j));
    if (slots[s] == kEmpty) slots[s] = static_cast<uint32_t>(j);
  }
  std::vector<size_t> match(from.num_groups(), kNoGroup);
  for (size_t i = 0; i < from.num_groups(); ++i) {
    const size_t s = probe(from.key_codes(i));
    if (slots[s] != kEmpty) match[i] = slots[s];
  }
  return match;
}

}  // namespace cvopt
