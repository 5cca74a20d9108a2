#include "src/core/stratification.h"

#include <algorithm>

#include "src/exec/group_index.h"
#include "src/exec/query_context.h"

namespace cvopt {

Result<Stratification> Stratification::Build(const Table& table,
                                             std::vector<std::string> attrs) {
 return GovernedSection([&]() -> Result<Stratification> {
  Stratification out;
  out.table_ = &table;
  out.attrs_ = std::move(attrs);
  // One vectorized pass: dense stratum ids, sizes, and representative keys
  // all come from the shared group-id pipeline.
  CVOPT_ASSIGN_OR_RETURN(GroupIndex gidx, GroupIndex::Build(table, out.attrs_));
  out.column_indices_ = gidx.column_indices();
  out.keys_ = gidx.Keys();
  out.row_strata_ = gidx.TakeRowGroups();
  out.sizes_ = gidx.TakeSizes();
  out.first_rows_ = gidx.TakeRepRows();
  return out;
 });
}

Result<Stratification::Projection> Stratification::Project(
    const std::vector<std::string>& sub_attrs) const {
  Projection proj;
  // Positions of the sub-attributes within this stratification's attrs.
  std::vector<size_t> positions;
  positions.reserve(sub_attrs.size());
  for (const auto& a : sub_attrs) {
    auto it = std::find(attrs_.begin(), attrs_.end(), a);
    if (it == attrs_.end()) {
      return Status::InvalidArgument(
          "attribute '" + a + "' is not part of the stratification");
    }
    positions.push_back(static_cast<size_t>(it - attrs_.begin()));
  }
  proj.parent_column_indices.reserve(positions.size());
  for (size_t p : positions) {
    proj.parent_column_indices.push_back(column_indices_[p]);
  }

  proj.stratum_to_parent.resize(num_strata());
  GroupKeyInterner interner(num_strata());
  GroupKey sub;
  sub.codes.resize(positions.size());
  for (size_t c = 0; c < num_strata(); ++c) {
    for (size_t j = 0; j < positions.size(); ++j) {
      sub.codes[j] = keys_[c].codes[positions[j]];
    }
    const uint32_t parent = interner.Intern(sub);
    if (parent == proj.parent_sizes.size()) proj.parent_sizes.push_back(0);
    proj.stratum_to_parent[c] = parent;
    proj.parent_sizes[parent] += sizes_[c];
  }
  proj.parent_keys = interner.TakeKeys();
  return proj;
}

std::vector<std::string> UnionAttrs(
    const std::vector<std::vector<std::string>>& attr_sets) {
  std::vector<std::string> out;
  for (const auto& set : attr_sets) {
    for (const auto& a : set) {
      if (std::find(out.begin(), out.end(), a) == out.end()) out.push_back(a);
    }
  }
  return out;
}

}  // namespace cvopt
