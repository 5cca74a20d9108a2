#include "src/sample/streaming_cvopt_sampler.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "src/core/lemma1.h"
#include "src/core/stratification.h"
#include "src/exec/query_context.h"
#include "src/expr/plan_cache.h"
#include "src/sample/reservoir.h"

namespace cvopt {

namespace {

std::vector<DataType> ColumnTypes(const Table& table,
                                  const std::vector<size_t>& cols) {
  std::vector<DataType> types;
  types.reserve(cols.size());
  for (size_t c : cols) types.push_back(table.column(c).type());
  return types;
}

}  // namespace

StreamingCvoptBuilder::StreamingCvoptBuilder(const Table* table,
                                             std::vector<size_t> group_columns,
                                             size_t value_column,
                                             uint64_t budget,
                                             uint64_t replan_interval, Rng* rng)
    : table_(table),
      group_columns_(std::move(group_columns)),
      value_column_(value_column),
      budget_(budget),
      replan_interval_(std::max<uint64_t>(1, replan_interval)),
      rng_(rng),
      router_(ColumnTypes(*table, group_columns_)) {}

void StreamingCvoptBuilder::BindRouter() {
  for (size_t j = 0; j < group_columns_.size(); ++j) {
    const Column& col = table_->column(group_columns_[j]);
    router_.Bind(j, col.ints().data(), col.codes().data());
  }
}

void StreamingCvoptBuilder::Offer(uint32_t row) {
  // Filter path: one scalar kernel test per offered row, no allocation.
  if (filter_ != nullptr && !filter_->MatchesRow(row)) return;
  BindRouter();
  Admit(row, router_.Route(row));
}

void StreamingCvoptBuilder::OfferRange(size_t lo, size_t hi) {
  // Blockwise pipeline: vector-kernel filter -> stratum routing and
  // in-order admission, row by row. The router assigns new stratum ids in
  // routing order, which is admission order, so the
  // `stratum == strata_.size()` first-sight check in Admit holds.
  //
  // Blocks sit on the absolute storage-chunk grid whenever the filter can
  // zone-prune, so each chunk is classified by exactly one SelectRange call
  // and a skipped chunk costs one verdict instead of one per overlapping
  // block. Blocking only changes where SelectRange is cut, never the row
  // order, so the result stays bit-identical for any block size.
  constexpr size_t kBlock = 1024;
  size_t blk = kBlock;
  if (filter_ != nullptr) {
    const size_t cr = filter_->zone_chunk_rows();
    if (cr > 1) blk = cr >= kBlock ? cr : kBlock / cr * cr;
  }
  std::vector<uint32_t> rows;
  BindRouter();
  for (size_t b = lo; b < hi;) {
    const size_t e = std::min(hi, (b / blk + 1) * blk);
    if (filter_ != nullptr) {
      rows = filter_->SelectRange(b, e);
    } else {
      rows.resize(e - b);
      std::iota(rows.begin(), rows.end(), static_cast<uint32_t>(b));
    }
    for (uint32_t r : rows) Admit(r, router_.Route(r));
    b = e;
  }
}

void StreamingCvoptBuilder::Admit(uint32_t row, uint32_t stratum) {
  if (stratum == strata_.size()) {
    strata_.emplace_back();
    // Admit-all-then-subsample: a new stratum keeps every row until the
    // next replan shrinks it to its optimal allocation. Shrinking evicts
    // uniformly, so the survivors stay a uniform sample — this is what
    // keeps a group whose rows all arrive inside one replan interval
    // (e.g. a stream sorted by the grouping attribute) unbiased. Memory
    // overshoot is bounded by one replan interval of rows.
    strata_.back().capacity = static_cast<size_t>(budget_);
  }
  Stratum& st = strata_[stratum];
  st.stats.Add(table_->column(value_column_).GetDouble(row));
  st.seen++;

  // Standard reservoir step against the stratum's current capacity.
  if (st.reservoir.size() < st.capacity) {
    st.reservoir.push_back(row);
  } else if (st.capacity > 0) {
    const size_t j = ReservoirVictim(st.seen, st.capacity, rng_);
    if (j < st.capacity) st.reservoir[j] = row;
  }

  if (++rows_seen_ % replan_interval_ == 0) Replan();
}

void StreamingCvoptBuilder::Replan() {
  const size_t r = strata_.size();
  if (r == 0) return;
  std::vector<double> alphas(r);
  std::vector<uint64_t> caps(r);
  for (size_t i = 0; i < r; ++i) {
    const double cv = strata_[i].stats.cv();
    alphas[i] = cv * cv;  // Theorem 1's alpha = (sigma/mu)^2, weight 1
    caps[i] = strata_[i].seen;
  }
  auto allocation = SolveLemma1(alphas, caps, budget_);
  if (!allocation.ok()) return;  // keep previous capacities
  for (size_t i = 0; i < r; ++i) {
    Stratum& st = strata_[i];
    const size_t target = static_cast<size_t>(allocation->sizes[i]);
    if (target < st.reservoir.size()) {
      // Shrink: evict uniformly-chosen victims; the survivors remain a
      // uniform sample of the stream prefix.
      while (st.reservoir.size() > target) {
        const size_t victim = rng_->Uniform(st.reservoir.size());
        st.reservoir[victim] = st.reservoir.back();
        st.reservoir.pop_back();
      }
    }
    st.capacity = std::max<size_t>(target, 1);
  }
}

StratifiedSample StreamingCvoptBuilder::Finish() && {
  Replan();
  std::vector<uint32_t> rows;
  std::vector<double> weights;
  for (const Stratum& st : strata_) {
    if (st.reservoir.empty()) continue;
    const double w = static_cast<double>(st.seen) /
                     static_cast<double>(st.reservoir.size());
    for (uint32_t row : st.reservoir) {
      rows.push_back(row);
      weights.push_back(w);
    }
  }
  return StratifiedSample(table_, std::move(rows), std::move(weights),
                          "CVOPT-STREAM");
}

Result<StratifiedSample> StreamingCvoptSampler::Build(
    const Table& table, const std::vector<QuerySpec>& queries, uint64_t budget,
    Rng* rng) const {
 return GovernedSection([&]() -> Result<StratifiedSample> {
  if (queries.empty() || queries[0].aggregates.empty()) {
    return Status::InvalidArgument(
        "streaming CVOPT needs a target query with an aggregate");
  }
  // Stratify by the union of all group-by attribute sets, as offline.
  std::vector<std::vector<std::string>> attr_sets;
  for (const auto& q : queries) attr_sets.push_back(q.group_by);
  CVOPT_ASSIGN_OR_RETURN(std::vector<size_t> gcols,
                         GroupIndex::Resolve(table, UnionAttrs(attr_sets)));
  // First numeric aggregated column drives the statistics.
  size_t vcol = table.num_columns();
  for (const auto& q : queries) {
    for (const auto& agg : q.aggregates) {
      if (agg.column.empty()) continue;
      CVOPT_ASSIGN_OR_RETURN(size_t idx, table.ColumnIndex(agg.column));
      if (table.column(idx).type() != DataType::kString) {
        vcol = idx;
        break;
      }
    }
    if (vcol != table.num_columns()) break;
  }
  if (vcol == table.num_columns()) {
    return Status::InvalidArgument(
        "streaming CVOPT needs a numeric aggregation column");
  }

  StreamingCvoptBuilder builder(&table, gcols, vcol, budget, replan_interval_,
                                rng);
  // When every query carries the same WHERE predicate, rows failing it can
  // never contribute to any answer; compile it once and let the builder
  // skip them. Distinct (or partially absent) predicates keep the stream
  // unfiltered — a row failing one query's filter may still serve another.
  PredicatePtr shared_where = queries[0].where;
  for (const auto& q : queries) {
    if (q.where != shared_where) {
      shared_where = nullptr;
      break;
    }
  }
  std::shared_ptr<const CompiledPredicate> filter;
  if (shared_where != nullptr) {
    CVOPT_ASSIGN_OR_RETURN(filter, CompilePredicateCached(table, shared_where));
    builder.set_filter(filter.get());
  }
  builder.OfferRange(0, table.num_rows());
  return std::move(builder).Finish();
 });
}

}  // namespace cvopt
