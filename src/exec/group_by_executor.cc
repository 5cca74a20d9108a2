#include "src/exec/group_by_executor.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "src/exec/parallel.h"
#include "src/exec/query_context.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"
#include "src/util/failpoint.h"

namespace cvopt {

namespace {

// Median with the midpoint convention for even counts: middle element for
// odd sizes, mean of the two middle elements for even sizes.
double MedianOf(std::vector<double>* vs) {
  if (vs->empty()) return 0.0;
  const size_t mid = vs->size() / 2;
  std::nth_element(vs->begin(), vs->begin() + mid, vs->end());
  if (vs->size() % 2 == 1) return (*vs)[mid];
  const double hi = (*vs)[mid];
  const double lo = *std::max_element(vs->begin(), vs->begin() + mid);
  return (lo + hi) / 2.0;
}

// Weighted median: the value at which cumulative Horvitz–Thompson weight
// crosses half the total, with the midpoint convention at an exact
// half-weight boundary (the even-count case with uniform weights), matching
// MedianOf.
double WeightedMedianOf(std::vector<std::pair<double, double>>* pairs,
                        double total_weight) {
  if (pairs->empty()) return 0.0;
  std::sort(pairs->begin(), pairs->end());
  const double half = total_weight / 2.0;
  const double eps = 1e-9 * total_weight;
  double cum = 0.0;
  double med = pairs->back().first;
  for (size_t p = 0; p < pairs->size(); ++p) {
    cum += (*pairs)[p].second;
    if (cum >= half - eps) {
      if (cum <= half + eps && p + 1 < pairs->size()) {
        med = ((*pairs)[p].first + (*pairs)[p + 1].first) / 2.0;
      } else {
        med = (*pairs)[p].first;
      }
      break;
    }
  }
  return med;
}

// The weight stream of an unweighted pass: multiplying by its constant 1.0
// folds away, so the unweighted instantiation is the plain unweighted loop.
struct UnitWeight {
  double operator()(size_t) const { return 1.0; }
};

// The finalize rules over a per-group denominator: the count of an
// unweighted pass, the weight sum of a weighted one.
template <class Den>
std::vector<double> FinalizeOver(const std::vector<AggSpec>& aggs,
                                 GroupedAccumulators* acc, Den den) {
  const size_t t = aggs.size();
  const size_t G = acc->num_groups;
  const std::vector<uint64_t>& cnt = acc->cnt;
  std::vector<double> finals(t * G, 0.0);
  for (size_t j = 0; j < t; ++j) {
    const double* S = acc->sums[j].data();
    double* F = finals.data() + j * G;
    switch (aggs[j].func) {
      case AggFunc::kAvg:
        for (size_t g = 0; g < G; ++g) {
          if (den(g) > 0.0) F[g] = S[g] / den(g);
        }
        break;
      case AggFunc::kCount:
        for (size_t g = 0; g < G; ++g) F[g] = den(g);
        break;
      case AggFunc::kSum:
      case AggFunc::kCountIf:
        std::copy(S, S + G, F);
        break;
      case AggFunc::kVariance: {
        // Plug-in estimator of the population variance: E[v^2] - E[v]^2.
        const double* S2 = acc->sums2[j].data();
        for (size_t g = 0; g < G; ++g) {
          if (den(g) <= 0.0) continue;
          const double mean = S[g] / den(g);
          F[g] = std::max(0.0, S2[g] / den(g) - mean * mean);
        }
        break;
      }
      case AggFunc::kMedian:
        for (size_t g = 0; g < G; ++g) {
          if (cnt[g] == 0) continue;
          F[g] = acc->wcnt.empty()
                     ? MedianOf(&acc->median_values[j][g])
                     : WeightedMedianOf(&acc->median_pairs[j][g], den(g));
        }
        break;
    }
  }
  return finals;
}

}  // namespace

void GroupedAccumulators::Grow(const std::vector<AggSpec>& aggs,
                               size_t groups, bool weighted) {
  const size_t t = aggs.size();
  num_groups = groups;
  cnt.resize(groups, 0);
  if (weighted) wcnt.resize(groups, 0.0);
  sums.resize(t);
  sums2.resize(t);
  median_values.resize(t);
  median_pairs.resize(t);
  for (size_t j = 0; j < t; ++j) {
    switch (aggs[j].func) {
      case AggFunc::kCount:
        break;
      case AggFunc::kMedian:
        if (weighted) {
          median_pairs[j].resize(groups);
        } else {
          median_values[j].resize(groups);
        }
        break;
      case AggFunc::kVariance:
        sums2[j].resize(groups, 0.0);
        [[fallthrough]];
      default:
        sums[j].resize(groups, 0.0);
        break;
    }
  }
}

std::vector<ValueSpan> SpansOf(const std::vector<StatSource>& sources) {
  std::vector<ValueSpan> spans(sources.size());
  for (size_t j = 0; j < sources.size(); ++j) {
    const StatSource& src = sources[j];
    if (src.constant_one) continue;
    if (src.indicator != nullptr) {
      spans[j].indicator = src.indicator->data();
    } else if (src.column->type() == DataType::kDouble) {
      spans[j].doubles = src.column->doubles().data();
    } else {
      spans[j].ints = src.column->ints().data();
    }
  }
  return spans;
}

void AccumulateSources(const GroupedPass& pass,
                       const std::vector<AggSpec>& aggs,
                       const std::vector<ValueSpan>& values,
                       GroupedAccumulators* out) {
  GroupedAccumulators& acc = *out;
  const size_t t = aggs.size();
  const size_t n = pass.row_groups->size();
  const size_t G = pass.num_groups;
  const uint32_t* rg = pass.row_groups->data();
  const std::vector<uint32_t>* sel = pass.sel;
  const bool use_sel = sel != nullptr;
  const uint32_t* selp = use_sel ? sel->data() : nullptr;
  const bool weighted = pass.weights != nullptr;
  acc.Grow(aggs, G, weighted);
  if (pass.shift_rows != nullptr) acc.shifts.resize(t);

  // Pass over a partitioned build: partition-owned accumulator slabs.
  // Each worker iterates its partition's ascending position list into a
  // slab sized to the partition's own group count, then adds the slab
  // into its groups' global ids — disjoint across partitions, so there is
  // no contention and no chunk-order merge at all. Per-group sums are the
  // serial ascending-position sums bit for bit (no reassociation), and
  // MEDIAN buffers append whole (a group's positions live in one
  // partition).
  // A WHERE selection rides the same slabs through a dense byte mask: a
  // group's surviving positions are still visited ascending, so masked
  // sums match the serial masked loop bit for bit, and fully-filtered
  // groups keep count zero (IngestDense omits them).
  const GroupPartitions* parts = pass.parts;
  const uint32_t* prows = parts != nullptr ? parts->part_rows.data() : nullptr;
  const uint32_t* plocal =
      parts != nullptr ? parts->part_local.data() : nullptr;

  // Otherwise: the chunk-order merged morsel path. Accumulation iterates
  // [0, m): surviving positions under a WHERE clause, all positions
  // otherwise. Parallel passes run the same body over chunk-order ranges
  // and merge per-chunk accumulators in chunk order; one chunk is the
  // exact serial loop.
  const size_t m = use_sel ? sel->size() : n;
  const size_t chunks = pass.chunks;
  auto for_range = [&](size_t lo, size_t hi, auto&& fn) {
    if (use_sel) {
      for (size_t i = lo; i < hi; ++i) fn(static_cast<size_t>(selp[i]));
    } else {
      for (size_t i = lo; i < hi; ++i) fn(i);
    }
  };

  std::vector<uint8_t> sel_mask;
  const uint8_t* mk = nullptr;
  if (parts != nullptr && use_sel) {
    // Scatter the selection into position-indexed bytes. Selection entries
    // are distinct positions, so parallel chunks write disjoint slots.
    sel_mask.assign(n, 0);
    uint8_t* mp = sel_mask.data();
    ParallelForChunks(m, chunks, [&](size_t, size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) mp[selp[i]] = 1;
    });
    mk = mp;
  }

  // Per-group surviving-position counts, added to earlier passes' counts
  // (identical across aggregates; integer, so every merge is bit-exact).
  if (!use_sel && pass.sizes != nullptr) {
    const uint64_t* sizes = pass.sizes->data();
    for (size_t g = 0; g < G; ++g) acc.cnt[g] += sizes[g];
  } else if (parts != nullptr) {
    const uint32_t* l2g = parts->local_to_global.data();
    ParallelForChunks(parts->num_partitions(), parts->num_partitions(),
                      [&](size_t p, size_t, size_t) {
      const size_t gb = parts->group_base[p];
      std::vector<uint64_t> local(parts->num_groups_in(p), 0);
      for (size_t k = parts->part_base[p]; k < parts->part_base[p + 1]; ++k) {
        local[plocal[k]] += mk[prows[k]];
      }
      for (size_t l = 0; l < local.size(); ++l) {
        acc.cnt[l2g[gb + l]] += local[l];
      }
    });
  } else if (chunks == 1) {
    for_range(0, m, [&](size_t i) { acc.cnt[rg[i]]++; });
  } else {
    std::vector<std::vector<uint64_t>> part(chunks);
    ParallelForChunks(m, chunks, [&](size_t c, size_t lo, size_t hi) {
      part[c].assign(G, 0);
      uint64_t* p = part[c].data();
      for_range(lo, hi, [&](size_t i) { p[rg[i]]++; });
    });
    for (const auto& p : part) {
      for (size_t g = 0; g < G; ++g) acc.cnt[g] += p[g];
    }
  }

  // S[g] += w * v and, for VARIANCE, S2[g] += w * v * v over the group's
  // surviving positions in ascending order.
  auto sum_into = [&](double* S, double* S2, auto weight_at, auto value_at) {
    if (parts != nullptr) {
      AccumulatePartitioned(
          *parts, /*use_s2=*/S2 != nullptr, S, S2,
          [&](size_t p, double* s, double* s2) {
            for (size_t k = parts->part_base[p]; k < parts->part_base[p + 1];
                 ++k) {
              const size_t i = prows[k];
              if (mk != nullptr && mk[i] == 0) continue;
              const double v = value_at(i);
              const double wv = weight_at(i) * v;
              s[plocal[k]] += wv;
              if (s2 != nullptr) s2[plocal[k]] += wv * v;
            }
          });
    } else if (S2 != nullptr) {
      AccumulateChunked(m, chunks, G, S, S2,
                        [&](double* s, double* s2, size_t lo, size_t hi) {
                          for_range(lo, hi, [&](size_t i) {
                            const double v = value_at(i);
                            const double wv = weight_at(i) * v;
                            s[rg[i]] += wv;
                            s2[rg[i]] += wv * v;
                          });
                        });
    } else {
      AccumulateChunked(m, chunks, G, S, nullptr,
                        [&](double* s, double*, size_t lo, size_t hi) {
                          for_range(lo, hi, [&](size_t i) {
                            s[rg[i]] += weight_at(i) * value_at(i);
                          });
                        });
    }
  };

  // Appends elem_at(i) to the group's buffer for every surviving position,
  // ascending — the MEDIAN buffers, which finalization reads instead of
  // the sums.
  auto collect_into = [&](auto* bufs, auto elem_at) {
    using Elem = decltype(elem_at(size_t{0}));
    if (parts == nullptr) {
      CollectChunked<Elem>(m, chunks, G, bufs,
                           [&](std::vector<Elem>* b, size_t lo, size_t hi) {
                             for_range(lo, hi, [&](size_t i) {
                               b[rg[i]].push_back(elem_at(i));
                             });
                           });
      return;
    }
    const uint32_t* l2g = parts->local_to_global.data();
    ParallelForChunks(parts->num_partitions(), parts->num_partitions(),
                      [&](size_t p, size_t, size_t) {
      const size_t gb = parts->group_base[p];
      std::vector<std::vector<Elem>> local(parts->num_groups_in(p));
      for (size_t k = parts->part_base[p]; k < parts->part_base[p + 1]; ++k) {
        if (mk != nullptr && mk[prows[k]] == 0) continue;
        local[plocal[k]].push_back(elem_at(prows[k]));
      }
      for (size_t l = 0; l < local.size(); ++l) {
        std::vector<Elem>& dst = (*bufs)[l2g[gb + l]];
        dst.insert(dst.end(), local[l].begin(), local[l].end());
      }
    });
  };

  // Hoists the weight stream and each aggregate's value stream (indicator
  // or column type) out of the row loops; each combination instantiates a
  // specialized inner loop.
  auto accumulate = [&](auto weight_at) {
    constexpr bool kWeighted =
        !std::is_same_v<decltype(weight_at), UnitWeight>;
    if constexpr (kWeighted) {
      sum_into(acc.wcnt.data(), nullptr, weight_at,
               [](size_t) { return 1.0; });
    }
    for (size_t j = 0; j < t; ++j) {
      const AggFunc f = aggs[j].func;
      const ValueSpan& src = values[j];
      if (f == AggFunc::kCount) continue;  // answered by cnt / wcnt
      auto run = [&](auto value_at) {
        if (f != AggFunc::kMedian) {
          double* S = acc.sums[j].data();
          double* S2 = f == AggFunc::kVariance ? acc.sums2[j].data() : nullptr;
          if (pass.shift_rows == nullptr) {
            sum_into(S, S2, weight_at, value_at);
            return;
          }
          // Shifted sums: c_g is the value at the group's shift row (0 for
          // a group with no positions, whose shift row does not exist).
          std::vector<double>& c = acc.shifts[j];
          c.assign(G, 0.0);
          const uint32_t* srow = pass.shift_rows->data();
          const uint64_t* sizes = pass.sizes->data();
          for (size_t g = 0; g < G; ++g) {
            if (sizes[g] > 0) c[g] = value_at(srow[g]);
          }
          const double* cp = c.data();
          sum_into(S, S2, weight_at, [value_at, cp, rg](size_t i) {
            return value_at(i) - cp[rg[i]];
          });
        } else if constexpr (kWeighted) {
          collect_into(&acc.median_pairs[j], [&](size_t i) {
            return std::make_pair(value_at(i), weight_at(i));
          });
        } else {
          collect_into(&acc.median_values[j], value_at);
        }
      };
      if (src.indicator != nullptr) {
        const uint8_t* ind = src.indicator;
        run([ind](size_t i) { return ind[i] ? 1.0 : 0.0; });
      } else if (src.doubles != nullptr) {
        const double* vals = src.doubles;
        run([vals](size_t i) { return vals[i]; });
      } else {
        const int64_t* vals = src.ints;
        run([vals](size_t i) { return static_cast<double>(vals[i]); });
      }
    }
  };
  if (weighted) {
    const double* w = pass.weights->data();
    accumulate([w](size_t i) { return w[i]; });
  } else {
    accumulate(UnitWeight{});
  }
}

Result<GroupedAccumulators> AccumulateGrouped(
    const Table& table, const QuerySpec& query, const GroupIndex& gidx,
    const std::vector<uint32_t>* sel, const std::vector<double>* weights) {
 return GovernedSection([&]() -> Result<GroupedAccumulators> {
  CVOPT_ASSIGN_OR_RETURN(BoundAggregates bound,
                         BoundAggregates::Bind(table, query.aggregates));
  const size_t G = gidx.num_groups();

  // The accumulator slabs are the aggregation's dominant working memory;
  // reserve them against the query's budget before touching them (the
  // fail-point lets tests force the kResourceExhausted path without a real
  // budget). Held until the accumulators are returned to the caller.
  size_t slabs = weights != nullptr ? 1 : 0;  // wcnt
  for (const auto& a : query.aggregates) {
    if (a.func == AggFunc::kCount || a.func == AggFunc::kMedian) continue;
    slabs += a.func == AggFunc::kVariance ? 2 : 1;  // sums (+ sums2)
  }
  CVOPT_FAILPOINT("exec.groupby.alloc");
  MemoryReservation slab_res = ReserveMemoryOrThrow(
      G * (slabs * sizeof(double) + sizeof(uint64_t)),
      "group-by accumulator slabs");

  GroupedPass pass;
  pass.num_groups = G;
  pass.row_groups = &gidx.row_groups();
  pass.sizes = &gidx.sizes();
  pass.parts = gidx.partitions().get();
  pass.sel = sel;
  pass.weights = weights;
  pass.chunks =
      AggregationChunks(sel != nullptr ? sel->size() : gidx.num_rows(), G);
  GroupedAccumulators acc;
  AccumulateSources(pass, query.aggregates, SpansOf(bound.sources()), &acc);
  return acc;
 });
}

std::vector<double> FinalizeGrouped(const std::vector<AggSpec>& aggs,
                                    GroupedAccumulators* acc) {
  if (!acc->wcnt.empty()) {
    const double* wcnt = acc->wcnt.data();
    return FinalizeOver(aggs, acc, [wcnt](size_t g) { return wcnt[g]; });
  }
  const uint64_t* cnt = acc->cnt.data();
  return FinalizeOver(aggs, acc, [cnt](size_t g) {
    return static_cast<double>(cnt[g]);
  });
}

Result<QueryResult> ExecuteExact(const Table& table, const QuerySpec& query) {
 return GovernedSection([&]() -> Result<QueryResult> {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  CVOPT_RETURN_NOT_OK(CheckQueryAborted());
  CVOPT_ASSIGN_OR_RETURN(GroupIndex gidx,
                         GroupIndex::Build(table, query.group_by));

  // WHERE compiles through the shared plan cache (workload replays reuse
  // the plan) and evaluates per-morsel through the pool straight to a
  // selection vector of surviving rows; no byte mask is materialized and
  // the mask branch is hoisted out of every accumulation loop.
  const bool use_sel = query.where != nullptr;
  std::vector<uint32_t> sel;
  MemoryReservation sel_res;
  if (use_sel) {
    CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPredicate> where,
                           CompilePredicateCached(table, query.where));
    // Upper bound: every row survives.
    sel_res = ReserveMemoryOrThrow(table.num_rows() * sizeof(uint32_t),
                                   "selection vector");
    sel = ParallelSelect(*where);
  }

  CVOPT_ASSIGN_OR_RETURN(
      GroupedAccumulators acc,
      AccumulateGrouped(table, query, gidx, use_sel ? &sel : nullptr));

  // Finalize into an aggregate-major finals array and bulk-ingest: the
  // result is materialized flat, with batch-rendered labels and a lazy
  // key -> index map instead of a per-group AddGroup insert loop.
  std::vector<double> finals = FinalizeGrouped(query.aggregates, &acc);

  // Groups emit in first-occurrence-over-all-rows order (the GroupIndex is
  // built unmasked); under a WHERE clause this may differ from the legacy
  // first-surviving-row order. The group set and values are identical.
  QueryResult result(query.AggLabels(), query.group_by);
  CVOPT_RETURN_NOT_OK(result.IngestDense(gidx, acc.cnt, finals));
  return result;
 });
}

}  // namespace cvopt
