#include "src/sample/uniform_sampler.h"

#include <algorithm>

#include "src/exec/query_context.h"
#include "src/sample/reservoir.h"

namespace cvopt {

Result<StratifiedSample> UniformSampler::Build(
    const Table& table, const std::vector<QuerySpec>& queries, uint64_t budget,
    Rng* rng) const {
 return GovernedSection([&]() -> Result<StratifiedSample> {
  (void)queries;  // query-oblivious
  const uint64_t n = table.num_rows();
  const uint64_t m = std::min(budget, n);
  // Uniform is a single-stratum draw: derive the same master-seed ->
  // per-stratum stream as DrawStratified (stratum id 0), so seed -> sample
  // is a pure function under the one shared determinism contract.
  const uint64_t master = rng->Next64();
  Rng stream = Rng::ForStratum(master, 0);
  std::vector<uint32_t> rows(static_cast<size_t>(m));
  DrawReservoir(nullptr, static_cast<size_t>(n), static_cast<size_t>(m),
                &stream, rows.data());
  const double w =
      rows.empty() ? 0.0 : static_cast<double>(n) / static_cast<double>(rows.size());
  std::vector<double> weights(rows.size(), w);
  return StratifiedSample(&table, std::move(rows), std::move(weights), name());
 });
}

}  // namespace cvopt
