#include "src/stats/stats_collector.h"

#include <algorithm>

#include "src/exec/group_by_executor.h"
#include "src/exec/query_context.h"

namespace cvopt {

namespace {

Status ValidateSources(const Stratification& strat,
                       const std::vector<StatSource>& sources) {
  const size_t n = strat.table().num_rows();
  for (const auto& s : sources) {
    if (!s.constant_one && s.column == nullptr && s.indicator == nullptr) {
      return Status::InvalidArgument("StatSource has no value stream");
    }
    if (s.indicator != nullptr && s.indicator->size() != n) {
      return Status::InvalidArgument("indicator length does not match table");
    }
    if (s.column != nullptr && s.column->type() == DataType::kString) {
      return Status::InvalidArgument("cannot aggregate a string column");
    }
  }
  return Status::OK();
}

// The statistics pass's chunk count, fixed by input shape alone (see
// CollectGroupStats): 8192 rows per chunk amortize the per-chunk slab
// setup, at most 16 chunks keep the serial merge a few percent of the
// pass, and n / (4 * strata) caps the fan-out where slab merging would
// rival the row scan — the AggregationChunks rule without its thread-count
// dependence.
size_t StatChunks(size_t n, size_t strata) {
  size_t chunks = std::min<size_t>(n / 8192, 16);
  if (strata > 0) chunks = std::min(chunks, n / (4 * strata));
  return std::max<size_t>(1, chunks);
}

}  // namespace

Result<GroupStatsTable> CollectGroupStats(
    const Stratification& strat, const std::vector<StatSource>& sources) {
 return GovernedSection([&]() -> Result<GroupStatsTable> {
  CVOPT_RETURN_NOT_OK(ValidateSources(strat, sources));
  CVOPT_RETURN_NOT_OK(CheckQueryAborted());
  const size_t strata = strat.num_strata();
  const size_t t = sources.size();
  // Every value source accumulates like a VARIANCE aggregate (sum and
  // sum-of-squares slabs); COUNT sources are answered by the sizes.
  std::vector<AggSpec> aggs(t);
  size_t value_sources = 0;
  for (size_t j = 0; j < t; ++j) {
    const bool count = sources[j].constant_one;
    aggs[j].func = count ? AggFunc::kCount : AggFunc::kVariance;
    value_sources += count ? 0 : 1;
  }
  GroupedPass pass;
  pass.num_groups = strata;
  pass.row_groups = &strat.row_strata();
  pass.sizes = &strat.sizes();
  pass.chunks = StatChunks(strat.table().num_rows(), strata);
  pass.shift_rows = &strat.first_rows();
  // Sum, sum-of-squares and shift slabs per value source, plus each
  // chunk's partial sum and sum-of-squares slabs of every source (a
  // chunk's morsel fills all of its partials before the merge).
  const size_t partials = pass.chunks > 1 ? 2 * pass.chunks : 0;
  MemoryReservation slab_res = ReserveMemoryOrThrow(
      strata * ((3 + partials) * value_sources * sizeof(double) +
                sizeof(uint64_t)),
      "group statistics slabs");
  GroupedAccumulators acc;
  AccumulateSources(pass, aggs, SpansOf(sources), &acc);

  GroupStatsTable stats(strata, t);
  for (size_t j = 0; j < t; ++j) {
    for (size_t c = 0; c < strata; ++c) {
      const uint64_t n_c = acc.cnt[c];
      if (n_c == 0) continue;
      if (sources[j].constant_one) {
        stats.At(c, j) = RunningStats::FromMoments(n_c, 1.0, 0.0);
        continue;
      }
      // Shifted moments: s1 = sum(v - c), s2 = sum((v - c)^2), so the mean
      // is c + s1 / n and the squared deviations sum to s2 - s1^2 / n.
      const double n = static_cast<double>(n_c);
      const double s1 = acc.sums[j][c];
      const double m2 = std::max(0.0, acc.sums2[j][c] - s1 * (s1 / n));
      stats.At(c, j) =
          RunningStats::FromMoments(n_c, acc.shifts[j][c] + s1 / n, m2);
    }
  }
  return stats;
 });
}

}  // namespace cvopt
