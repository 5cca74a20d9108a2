// Column: typed columnar storage. Strings are dictionary-encoded, which also
// gives the sampler cheap discrete codes for stratification keys.
#ifndef CVOPT_TABLE_COLUMN_H_
#define CVOPT_TABLE_COLUMN_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/table/value.h"
#include "src/util/status.h"

namespace cvopt {

/// A single column of a Table. Exactly one of the backing vectors is used,
/// determined by type().
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const;

  /// Appends a value; must match the column type (int64 accepted into double).
  Status Append(const Value& v);

  // Typed append fast paths.
  void AppendInt(int64_t v) { ints_.push_back(v); }
  void AppendDouble(double v) { doubles_.push_back(v); }
  void AppendString(const std::string& v) { codes_.push_back(InternString(v)); }
  /// Appends a string by its existing dictionary code (must be valid).
  void AppendCode(int32_t code) { codes_.push_back(code); }

  /// Numeric view of row i. Valid for int64 and double columns only; on a
  /// string column the int buffer is empty, so indexing it would read out
  /// of bounds — callers must check type() first (asserted in debug and
  /// sanitizer builds).
  double GetDouble(size_t i) const {
    assert(type_ != DataType::kString &&
           "Column::GetDouble called on a string column");
    return type_ == DataType::kDouble ? doubles_[i]
                                      : static_cast<double>(ints_[i]);
  }

  int64_t GetInt(size_t i) const {
    assert(type_ == DataType::kInt64 &&
           "Column::GetInt called on a non-int column");
    return ints_[i];
  }

  /// Dictionary code of row i (string columns only).
  int32_t GetCode(size_t i) const { return codes_[i]; }

  /// String value of row i (string columns only).
  const std::string& GetString(size_t i) const { return (*dict_)[codes_[i]]; }

  /// Dictionary lookup: code for a string, or -1 if absent.
  int32_t LookupCode(const std::string& s) const;

  /// Dictionary contents (string columns only).
  const std::vector<std::string>& dictionary() const { return *dict_; }
  /// The dictionary as a shared handle: a holder (a sample's column, a
  /// query result) keeps it at no copy cost, and it never changes under
  /// the holder — the column copies a shared dictionary before it interns
  /// a new string.
  const std::shared_ptr<const std::vector<std::string>>& shared_dictionary()
      const {
    return dict_;
  }

  /// Value of row i as a dynamically-typed scalar (slow path).
  Value GetValue(size_t i) const;

  /// A discrete 64-bit grouping key for row i. Int columns use the raw
  /// value; string columns the dictionary code. Error for double columns.
  int64_t GroupCode(size_t i) const {
    return type_ == DataType::kString ? codes_[i] : ints_[i];
  }

  /// Interns a string into the dictionary, returning its code.
  int32_t InternString(const std::string& s);

  /// Raw storage access for vectorized paths.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<int32_t>& codes() const { return codes_; }

  // Bulk adoption for decoded-chunk loaders (the table_io v2 reader and the
  // out-of-core scan): moves whole buffers in instead of appending row by
  // row. AdoptDictionary shares a pre-built dictionary without paying for
  // the hash index — LookupCode falls back to a linear scan and InternString
  // rebuilds the index lazily if either is ever needed. Callers must keep
  // every adopted code within the dictionary.
  void AdoptInts(std::vector<int64_t> v) { ints_ = std::move(v); }
  void AdoptDoubles(std::vector<double> v) { doubles_ = std::move(v); }
  void AdoptCodes(std::vector<int32_t> v) { codes_ = std::move(v); }
  void AdoptDictionary(std::shared_ptr<const std::vector<std::string>> dict);

  void Reserve(size_t n);

 private:
  // Rebuilds dict_index_ from dict_ when they have diverged (after
  // AdoptDictionary).
  void EnsureDictIndex();

  DataType type_;
  std::vector<int64_t> ints_;     // kInt64
  std::vector<double> doubles_;   // kDouble
  std::vector<int32_t> codes_;    // kString (dictionary codes)
  // The dictionary, possibly shared with other holders. InternString grows
  // it in place only when this column allocated it (`own_dict_`) and no
  // other holder shares it; otherwise it copies it first.
  std::shared_ptr<const std::vector<std::string>> dict_ =
      std::make_shared<const std::vector<std::string>>();
  bool own_dict_ = false;
  std::unordered_map<std::string, int32_t> dict_index_;
};

}  // namespace cvopt

#endif  // CVOPT_TABLE_COLUMN_H_
