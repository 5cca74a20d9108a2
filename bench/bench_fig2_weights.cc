// Figure 2: weighted aggregates. CVOPT samples drawn with weight profiles
// (w1, w2) in {0.1/0.9, 0.25/0.75, 0.5/0.5, 0.75/0.25, 0.9/0.1} for the
// two-aggregate queries AQ2 (1% sample) and B1 (5% sample). As w1 grows,
// agg1's average error falls and agg2's rises.
#include <cmath>
#include <cstdio>

#include "bench/harness.h"

using namespace cvopt;        // NOLINT(build/namespaces)
using namespace cvopt::bench; // NOLINT(build/namespaces)

namespace {

// Average relative error of one aggregate only.
double PerAggregateError(const Table& table, const QuerySpec& weighted,
                         const QuerySpec& eval, size_t agg, double rate,
                         int reps, uint64_t seed) {
  CvoptSampler cvopt;
  QueryResult truth = std::move(ExecuteExact(table, eval)).ValueOrDie();
  double total = 0;
  for (int rep = 0; rep < reps; ++rep) {
    Rng rng(seed + rep);
    StratifiedSample sample =
        std::move(cvopt.Build(table, {weighted},
                              static_cast<uint64_t>(rate * table.num_rows()),
                              &rng))
            .ValueOrDie();
    QueryResult approx = std::move(ExecuteApprox(sample, eval)).ValueOrDie();
    double err = 0;
    size_t n = 0;
    const std::vector<size_t> match =
        std::move(MatchGroups(truth, approx)).ValueOrDie();
    for (size_t i = 0; i < truth.num_groups(); ++i) {
      const double tv = truth.value(i, agg);
      if (std::fabs(tv) < 1e-12) continue;
      if (match[i] == kNoGroup) {
        err += 1.0;
      } else {
        err += std::fabs(approx.value(match[i], agg) - tv) / std::fabs(tv);
      }
      n++;
    }
    total += n ? err / n : 0;
  }
  return total / reps;
}

void RunWeightSweep(const char* title, const Table& table,
                    const QuerySpec& base, double rate) {
  PrintHeader(title);
  PrintRow("w1/w2", {"agg1 err", "agg2 err"});
  const double kProfiles[][2] = {
      {0.1, 0.9}, {0.25, 0.75}, {0.5, 0.5}, {0.75, 0.25}, {0.9, 0.1}};
  for (const auto& p : kProfiles) {
    QuerySpec weighted = base;
    weighted.aggregates[0].weight = p[0];
    weighted.aggregates[1].weight = p[1];
    const double e1 =
        PerAggregateError(table, weighted, base, 0, rate, 10, 5000);
    const double e2 =
        PerAggregateError(table, weighted, base, 1, rate, 10, 5000);
    PrintRow(StrFormat("%.2f/%.2f", p[0], p[1]), {Pct(e1), Pct(e2)});
  }
}

}  // namespace

int main() {
  // Substitution note: AQ2's second aggregate is COUNT(*). Under a
  // stratification aligned with the grouping, the Horvitz-Thompson COUNT is
  // *exact* (per-stratum weights sum to n_c), so weighting cannot move its
  // error — a strictly better estimator than the paper's, but it makes the
  // figure degenerate. We swap in a conditional count with real variance,
  // which exercises the same weighted trade-off the figure demonstrates.
  QuerySpec aq2 = Aq2();
  aq2.aggregates = {
      AggSpec::Sum("value"),
      AggSpec::CountIf(Predicate::Compare("value", CompareOp::kGt, 1.0))};
  RunWeightSweep("Figure 2a: AQ2' with weight settings (1% CVOPT sample)",
                 OpenAq(), aq2, 0.01);
  RunWeightSweep("Figure 2b: B1 with weight settings (5% CVOPT sample)",
                 Bikes(), B1(), 0.05);
  std::printf(
      "\npaper shape: as w1 rises left to right, agg1's error decreases "
      "while agg2's increases.\n");
  return 0;
}
