#include "src/exec/query.h"

#include "src/util/string_util.h"

namespace cvopt {

std::vector<std::string> QuerySpec::AggLabels() const {
  std::vector<std::string> labels;
  labels.reserve(aggregates.size());
  for (const auto& a : aggregates) labels.push_back(a.Label());
  return labels;
}

std::string QuerySpec::ToString() const {
  std::string s = "SELECT ";
  if (!group_by.empty()) s += Join(group_by, ", ") + ", ";
  s += Join(AggLabels(), ", ");
  if (where != nullptr) s += " WHERE " + where->ToString();
  if (!group_by.empty()) s += " GROUP BY " + Join(group_by, ", ");
  if (!name.empty()) s = "[" + name + "] " + s;
  return s;
}

}  // namespace cvopt
