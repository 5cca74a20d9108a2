// TPC-H Q1, approximately: the classic pricing-summary report computed from
// a 1% CVOPT sample of lineitem, with per-cell relative errors.
#include <cstdio>

#include "src/aqp/engine.h"
#include "src/datagen/tpch_gen.h"
#include "src/sample/cvopt_sampler.h"

using namespace cvopt;  // NOLINT(build/namespaces)

int main() {
  TpchOptions opts;
  opts.num_rows = 2'000'000;
  Table lineitem = GenerateTpchLineitem(opts);
  std::printf("lineitem: %zu rows\n", lineitem.num_rows());

  // Q1-style: SELECT returnflag, linestatus, SUM(qty), SUM(extendedprice),
  //           AVG(qty), AVG(extendedprice), AVG(discount), COUNT(*)
  QuerySpec q1;
  q1.name = "tpch-q1";
  q1.group_by = {"returnflag", "linestatus"};
  q1.aggregates = {AggSpec::Sum("quantity"),     AggSpec::Sum("extendedprice"),
                   AggSpec::Avg("quantity"),     AggSpec::Avg("extendedprice"),
                   AggSpec::Avg("discount"),     AggSpec::Count()};

  AqpEngine engine(&lineitem, 23);
  CvoptSampler cvopt;
  if (Status st = engine.BuildSample("q1", cvopt, {q1}, 0.01); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  auto exact = engine.AnswerExact(q1);
  auto approx = engine.AnswerApprox("q1", q1);
  if (!exact.ok() || !approx.ok()) return 1;

  std::printf("\n%-8s", "group");
  for (const auto& l : exact->agg_labels()) std::printf(" %20s", l.c_str());
  std::printf("\n");
  auto match = MatchGroups(*exact, *approx);
  if (!match.ok()) return 1;
  for (size_t i = 0; i < exact->num_groups(); ++i) {
    const size_t j = (*match)[i];
    std::printf("%-8s", exact->label(i).c_str());
    for (size_t a = 0; a < exact->num_aggregates(); ++a) {
      const double truth = exact->value(i, a);
      const double est = j != kNoGroup ? approx->value(j, a) : 0.0;
      const double err = truth != 0 ? (est - truth) / truth * 100 : 0.0;
      std::printf(" %13.1f(%+.1f%%)", est, err);
    }
    std::printf("\n");
  }

  auto report = engine.Evaluate("q1", q1);
  if (report.ok()) std::printf("\n%s\n", report->ToString().c_str());
  return 0;
}
