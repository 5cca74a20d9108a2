#include "src/exec/result_join.h"

namespace cvopt {

Result<QueryResult> DiffResults(const QueryResult& a, const QueryResult& b) {
  if (a.num_aggregates() != b.num_aggregates()) {
    return Status::InvalidArgument("joined results have different agg counts");
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
      finals[j * G + i] = a.value(i, j) - b.value(match[i], j);
    }
  }
  std::vector<std::string> labels;
  labels.reserve(t);
  for (const auto& l : a.agg_labels()) labels.push_back("delta " + l);
  return QueryResult::Dense(std::move(labels), a.group_attrs(),
                            a.key_columns(), {a.key_codes(0), a.key_codes(G)},
                            matched, finals);
}

}  // namespace cvopt
