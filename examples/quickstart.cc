// Quickstart: build a table, draw a CVOPT sample, and answer a group-by
// query approximately — the library's 60-second tour.
#include <cstdio>

#include "src/aqp/engine.h"
#include "src/sample/cvopt_sampler.h"
#include "src/table/table_builder.h"

using namespace cvopt;  // NOLINT(build/namespaces)

int main() {
  // 1. Build a table (in a real deployment this comes from your loader).
  //    Students with per-major GPA distributions of differing variance.
  Schema schema({{"major", DataType::kString}, {"gpa", DataType::kDouble}});
  TableBuilder builder(schema);
  Rng datagen(1);
  struct MajorProfile {
    const char* name;
    int count;
    double mean, sigma;
  };
  const MajorProfile majors[] = {
      {"CS", 40000, 3.2, 0.5},
      {"Math", 20000, 3.5, 0.2},
      {"EE", 8000, 3.1, 0.7},
      {"Philosophy", 500, 3.6, 0.9},  // small AND high-variance
  };
  for (const auto& m : majors) {
    for (int i = 0; i < m.count; ++i) {
      Status st = builder.AppendRow(
          {Value(m.name), Value(m.mean + m.sigma * datagen.NextGaussian())});
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
    }
  }
  Table table = std::move(builder).Finish();
  std::printf("table: %zu rows\n", table.num_rows());

  // 2. Describe the query workload the sample should be optimized for.
  QuerySpec query;
  query.name = "avg-gpa-by-major";
  query.group_by = {"major"};
  query.aggregates = {AggSpec::Avg("gpa")};

  // 3. Offline phase: draw a 1% CVOPT sample.
  AqpEngine engine(&table, /*seed=*/42);
  CvoptSampler cvopt;
  Status st = engine.BuildSample("s", cvopt, {query}, /*rate=*/0.01);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto sample = engine.GetSample("s");
  std::printf("sample: %zu rows (%.2f%%), method=%s\n", (*sample)->size(),
              (*sample)->SampleRate() * 100, (*sample)->method().c_str());

  // 4. Online phase: answer the query from the sample, compare to exact.
  auto exact = engine.AnswerExact(query);
  auto approx = engine.AnswerApprox("s", query);
  if (!exact.ok() || !approx.ok()) return 1;
  std::printf("\n%-12s %12s %12s\n", "major", "exact", "approx");
  auto match = MatchGroups(*exact, *approx);
  if (!match.ok()) return 1;
  for (size_t i = 0; i < exact->num_groups(); ++i) {
    const size_t j = (*match)[i];
    std::printf("%-12s %12.4f %12.4f\n", exact->label(i).c_str(),
                exact->value(i, 0), j != kNoGroup ? approx->value(j, 0) : 0.0);
  }

  // 5. One-line error summary.
  auto report = engine.Evaluate("s", query);
  if (report.ok()) std::printf("\n%s\n", report->ToString().c_str());
  return 0;
}
