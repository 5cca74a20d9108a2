#include "src/exec/result_join.h"

namespace cvopt {

Result<QueryResult> JoinResults(
    const QueryResult& a, const QueryResult& b,
    const std::function<double(double, double)>& combine,
    const std::vector<std::string>& out_agg_labels) {
  if (a.num_aggregates() != b.num_aggregates()) {
    return Status::InvalidArgument("joined results have different agg counts");
  }
  if (out_agg_labels.size() != a.num_aggregates()) {
    return Status::InvalidArgument("output label count mismatch");
  }
  CVOPT_ASSIGN_OR_RETURN(std::vector<size_t> match, MatchGroups(a, b));
  // a's groups as dense candidates, those matched in b live.
  const size_t G = a.num_groups();
  const size_t t = a.num_aggregates();
  std::vector<uint64_t> matched(G, 0);
  std::vector<double> finals(t * G, 0.0);
  for (size_t i = 0; i < G; ++i) {
    if (match[i] == kNoGroup) continue;
    matched[i] = 1;
    for (size_t j = 0; j < t; ++j) {
      finals[j * G + i] = combine(a.value(i, j), b.value(match[i], j));
    }
  }
  return QueryResult::Dense(out_agg_labels, a.group_attrs(), a.key_columns(),
                            {a.key_codes(0), a.key_codes(G)}, matched, finals);
}

Result<QueryResult> DiffResults(const QueryResult& a, const QueryResult& b) {
  std::vector<std::string> labels;
  labels.reserve(a.num_aggregates());
  for (const auto& l : a.agg_labels()) labels.push_back("delta " + l);
  return JoinResults(a, b, [](double x, double y) { return x - y; }, labels);
}

}  // namespace cvopt
