#include "src/sample/sample_seek_sampler.h"

#include <algorithm>
#include <cmath>

#include "src/exec/query_context.h"
#include "src/sample/uniform_sampler.h"

namespace cvopt {

Result<StratifiedSample> SampleSeekSampler::Build(
    const Table& table, const std::vector<QuerySpec>& queries, uint64_t budget,
    Rng* rng) const {
 return GovernedSection([&]() -> Result<StratifiedSample> {
  // Find the first AVG/SUM aggregate with a numeric column; that is the
  // "measure" biasing the sample.
  const Column* measure = nullptr;
  for (const auto& q : queries) {
    for (const auto& agg : q.aggregates) {
      if ((agg.func == AggFunc::kAvg || agg.func == AggFunc::kSum) &&
          !agg.column.empty()) {
        CVOPT_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(agg.column));
        if (col->type() != DataType::kString) {
          measure = col;
          break;
        }
      }
    }
    if (measure != nullptr) break;
  }
  if (measure == nullptr) {
    // COUNT-only workloads degrade to uniform (all measures equal 1).
    UniformSampler fallback;
    CVOPT_ASSIGN_OR_RETURN(StratifiedSample s,
                           fallback.Build(table, queries, budget, rng));
    return StratifiedSample(&table, s.rows(), s.weights(), name());
  }

  const size_t n = table.num_rows();
  const uint64_t m = std::min<uint64_t>(budget, n);

  // p_i proportional to |v_i| + eps; eps keeps zero-valued rows reachable.
  double abs_sum = 0.0;
  for (size_t r = 0; r < n; ++r) abs_sum += std::fabs(measure->GetDouble(r));
  const double eps =
      n == 0 ? 1.0 : std::max(abs_sum / static_cast<double>(n) * 1e-3, 1e-12);
  double total_mass = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total_mass += std::fabs(measure->GetDouble(r)) + eps;
  }

  // m independent draws with replacement, p_i = mass_i / total_mass,
  // via the inverse-CDF over a single pass: draw m sorted uniforms and walk
  // the prefix sums. HT weight of a draw is 1 / (m * p_i).
  std::vector<double> points(m);
  for (auto& p : points) p = rng->NextDouble() * total_mass;
  std::sort(points.begin(), points.end());

  std::vector<uint32_t> rows;
  std::vector<double> weights;
  rows.reserve(m);
  weights.reserve(m);
  double prefix = 0.0;
  size_t pi = 0;
  for (size_t r = 0; r < n && pi < points.size(); ++r) {
    const double mass = std::fabs(measure->GetDouble(r)) + eps;
    prefix += mass;
    while (pi < points.size() && points[pi] < prefix) {
      rows.push_back(static_cast<uint32_t>(r));
      weights.push_back(total_mass / (static_cast<double>(m) * mass));
      ++pi;
    }
  }
  return StratifiedSample(&table, std::move(rows), std::move(weights), name());
 });
}

}  // namespace cvopt
