#include "src/table/column.h"

namespace cvopt {

size_t Column::size() const {
  switch (type_) {
    case DataType::kInt64:
      return ints_.size();
    case DataType::kDouble:
      return doubles_.size();
    case DataType::kString:
      return codes_.size();
  }
  return 0;
}

Status Column::Append(const Value& v) {
  switch (type_) {
    case DataType::kInt64:
      if (!v.is_int()) {
        return Status::InvalidArgument("expected int64 value, got " +
                                       std::string(DataTypeToString(v.type())));
      }
      ints_.push_back(v.AsInt());
      return Status::OK();
    case DataType::kDouble:
      if (!v.is_int() && !v.is_double()) {
        return Status::InvalidArgument("expected numeric value, got string");
      }
      doubles_.push_back(v.AsDouble());
      return Status::OK();
    case DataType::kString:
      if (!v.is_string()) {
        return Status::InvalidArgument("expected string value, got " +
                                       std::string(DataTypeToString(v.type())));
      }
      codes_.push_back(InternString(v.AsString()));
      return Status::OK();
  }
  return Status::Internal("unknown column type");
}

void Column::AdoptDictionary(
    std::shared_ptr<const std::vector<std::string>> dict) {
  dict_ = std::move(dict);
  own_dict_ = false;
  dict_index_.clear();  // rebuilt lazily by EnsureDictIndex if ever needed
}

void Column::EnsureDictIndex() {
  if (dict_index_.size() == dict_->size()) return;
  dict_index_.clear();
  dict_index_.reserve(dict_->size());
  for (size_t i = 0; i < dict_->size(); ++i) {
    dict_index_.emplace((*dict_)[i], static_cast<int32_t>(i));
  }
}

int32_t Column::InternString(const std::string& s) {
  EnsureDictIndex();
  auto it = dict_index_.find(s);
  if (it != dict_index_.end()) return it->second;
  // A column copy keeps own_dict_ too, so the use count decides.
  if (!own_dict_ || dict_.use_count() > 1) {
    dict_ = std::make_shared<std::vector<std::string>>(*dict_);
    own_dict_ = true;
  }
  // Allocated non-const above, so writing through the cast is defined.
  auto* dict = const_cast<std::vector<std::string>*>(dict_.get());
  const int32_t code = static_cast<int32_t>(dict->size());
  dict->push_back(s);
  dict_index_.emplace(s, code);
  return code;
}

int32_t Column::LookupCode(const std::string& s) const {
  if (dict_index_.size() != dict_->size()) {
    // Adopted dictionary without an index: linear scan (compile-time only).
    for (size_t i = 0; i < dict_->size(); ++i) {
      if ((*dict_)[i] == s) return static_cast<int32_t>(i);
    }
    return -1;
  }
  auto it = dict_index_.find(s);
  return it == dict_index_.end() ? -1 : it->second;
}

Value Column::GetValue(size_t i) const {
  switch (type_) {
    case DataType::kInt64:
      return Value(ints_[i]);
    case DataType::kDouble:
      return Value(doubles_[i]);
    case DataType::kString:
      return Value(GetString(i));
  }
  return Value();
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      codes_.reserve(n);
      break;
  }
}

}  // namespace cvopt
