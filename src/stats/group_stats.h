// GroupStatsTable: per-stratum, per-stat-column running statistics — the
// single-pass statistics that drive all allocation decisions.
#ifndef CVOPT_STATS_GROUP_STATS_H_
#define CVOPT_STATS_GROUP_STATS_H_

#include <vector>

#include "src/stats/running_stats.h"

namespace cvopt {

/// Dense (num_strata x num_stat_columns) matrix of RunningStats.
class GroupStatsTable {
 public:
  GroupStatsTable() = default;
  GroupStatsTable(size_t num_strata, size_t num_columns)
      : num_strata_(num_strata),
        num_columns_(num_columns),
        flat_(num_strata * num_columns) {}

  size_t num_strata() const { return num_strata_; }
  size_t num_columns() const { return num_columns_; }

  RunningStats& At(size_t stratum, size_t column) {
    return flat_[stratum * num_columns_ + column];
  }
  const RunningStats& At(size_t stratum, size_t column) const {
    return flat_[stratum * num_columns_ + column];
  }

 private:
  size_t num_strata_ = 0;
  size_t num_columns_ = 0;
  std::vector<RunningStats> flat_;
};

}  // namespace cvopt

#endif  // CVOPT_STATS_GROUP_STATS_H_
