// Single-pass collection of per-stratum statistics for a set of "stat
// sources" (aggregation value streams). This is the offline first pass the
// paper describes in Section 6: "The first pass computes some statistics for
// each group".
#ifndef CVOPT_STATS_STATS_COLLECTOR_H_
#define CVOPT_STATS_STATS_COLLECTOR_H_

#include <vector>

#include "src/core/stratification.h"
#include "src/stats/group_stats.h"
#include "src/table/column.h"

namespace cvopt {

/// One per-row value stream feeding a stat column:
/// - a numeric column (AVG/SUM aggregates),
/// - a 0/1 indicator vector (COUNT_IF aggregates), or
/// - the constant 1 (COUNT aggregates).
struct StatSource {
  const Column* column = nullptr;
  const std::vector<uint8_t>* indicator = nullptr;
  bool constant_one = false;
};

/// Count, mean and population variance of every (stratum, source) pair, in
/// one pass of the weighted accumulation core (AccumulateSources) over the
/// table rows of `strat`. Each stratum accumulates sum(v - c) and
/// sum((v - c)^2) about c, the source's value at the stratum's first-seen
/// row, so mean and variance come out numerically sound without a per-row
/// division; constant-one (COUNT) sources read the stratum sizes and make
/// no pass. The pass splits rows into min(n / 8192, 16, n / (4 * strata))
/// chunks merged in chunk order — a pure function of the input shape, never
/// of the thread count — so the statistics are bit-identical for every
/// CVOPT_THREADS value. The samplers' determinism contract rests on that:
/// allocations solved from these statistics, and hence the per-stratum
/// RNG-stream draws, cannot shift with the thread count.
Result<GroupStatsTable> CollectGroupStats(const Stratification& strat,
                                          const std::vector<StatSource>& sources);

}  // namespace cvopt

#endif  // CVOPT_STATS_STATS_COLLECTOR_H_
