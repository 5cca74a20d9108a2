// Aggregation decision counters. Group discovery always hash-probes, so
// both read zero. This header exists only because perfbench/harness.cc
// reports the per-layer counters exec.agg_hash_decisions and
// exec.agg_sort_decisions; it goes when a benchmark change drops them.
#ifndef CVOPT_EXEC_AGG_PLANNER_H_
#define CVOPT_EXEC_AGG_PLANNER_H_

#include <cstdint>

namespace cvopt {

struct AggPlannerStats {
  uint64_t hash_decisions = 0, sort_decisions = 0;
};

inline AggPlannerStats GetAggPlannerStats() { return {}; }

}  // namespace cvopt

#endif  // CVOPT_EXEC_AGG_PLANNER_H_
