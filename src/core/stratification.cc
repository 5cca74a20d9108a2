#include "src/core/stratification.h"

#include <algorithm>

#include "src/exec/group_index.h"
#include "src/exec/parallel.h"
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
  // A partitioned build hands its artifact over: per-stratum row lists then
  // come straight from the partitions instead of a counting-sort pass.
  out.lists_->parts = gidx.partitions();
  return out;
 });
}

const std::vector<uint32_t>& Stratification::stratum_rows() const {
  MaterializeStratumRows();
  return lists_->rows;
}

const std::vector<size_t>& Stratification::stratum_row_base() const {
  MaterializeStratumRows();
  return lists_->base;
}

void Stratification::MaterializeStratumRows() const {
  std::call_once(lists_->once, [&] {
    RowListCache& c = *lists_;
    const size_t r = num_strata();
    c.base.assign(r + 1, 0);
    for (size_t s = 0; s < r; ++s) {
      c.base[s + 1] = c.base[s] + static_cast<size_t>(sizes_[s]);
    }
    // Charged to the ambient query's budget while the lists are built; the
    // cached lists themselves are table-lifetime state, not query state.
    MemoryReservation res = ReserveMemoryOrThrow(
        c.base[r] * sizeof(uint32_t) + (r + 1) * sizeof(size_t),
        "stratum row lists");
    c.rows.resize(c.base[r]);
    uint32_t* out = c.rows.data();
    if (c.parts != nullptr) {
      // Partition-backed fill: partition p owns its groups' output ranges
      // outright (disjoint global ids), so every partition scatters its own
      // ascending position list with no coordination — each stratum's rows
      // land in ascending row order, exactly the stable counting sort's
      // output.
      const GroupPartitions& gp = *c.parts;
      const size_t* base = c.base.data();
      ParallelForChunks(
          gp.num_partitions(), gp.num_partitions(),
          [&](size_t p, size_t, size_t) {
            const size_t gb = gp.group_base[p];
            const size_t ng = gp.num_groups_in(p);
            std::vector<size_t> cur(ng);
            for (size_t l = 0; l < ng; ++l) {
              cur[l] = base[gp.local_to_global[gb + l]];
            }
            for (size_t k = gp.part_base[p]; k < gp.part_base[p + 1]; ++k) {
              out[cur[gp.part_local[k]]++] = gp.part_rows[k];
            }
          });
    } else {
      // Stable bucket-by-stratum: a parallel counting sort over
      // row_strata. Per-chunk histograms and scatter cursors depend only
      // on chunk boundaries and every chunking yields the same stable
      // (ascending-row) order, so the output is a pure function of the
      // stratification. AggregationChunks caps the fan-out where
      // per-stratum histogram traffic would rival the row scan.
      const size_t n = row_strata_.size();
      const uint32_t* rs = row_strata_.data();
      const size_t chunks = n == 0 ? 1 : AggregationChunks(n, r);
      std::vector<uint32_t> cursors(chunks * r, 0);
      ParallelForChunks(n, chunks, [&](size_t ck, size_t lo, size_t hi) {
        uint32_t* cnt = cursors.data() + ck * r;
        for (size_t i = lo; i < hi; ++i) cnt[rs[i]]++;
      });
      for (size_t s = 0; s < r; ++s) {
        size_t at = c.base[s];
        for (size_t ck = 0; ck < chunks; ++ck) {
          const uint32_t count = cursors[ck * r + s];
          cursors[ck * r + s] = static_cast<uint32_t>(at);
          at += count;
        }
      }
      ParallelForChunks(n, chunks, [&](size_t ck, size_t lo, size_t hi) {
        uint32_t* cur = cursors.data() + ck * r;
        for (size_t i = lo; i < hi; ++i) {
          out[cur[rs[i]]++] = static_cast<uint32_t>(i);
        }
      });
    }
    c.ready.store(true);
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
