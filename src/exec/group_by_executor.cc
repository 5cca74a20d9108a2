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

// Value readers of the row loops, one per ValueSpan kind.
struct DoublesAt {
  const double* p;
  double operator()(size_t i) const { return p[i]; }
};
struct IntsAt {
  const int64_t* p;
  double operator()(size_t i) const { return static_cast<double>(p[i]); }
};
struct IndicatorAt {
  const uint8_t* p;
  double operator()(size_t i) const { return p[i] ? 1.0 : 0.0; }
};
// A shifted pass's reader: the value less its group's shift value c_g.
template <class V>
struct ShiftedAt {
  V v;
  const double* c;
  const uint32_t* rg;
  double operator()(size_t i) const { return v(i) - c[rg[i]]; }
};
// The reader of a fused loop that adds no value stream.
struct NoValue {
  double operator()(size_t) const { return 0.0; }
};

// Calls fn with the reader of a column stream (doubles or ints).
template <class Fn>
void WithColumnReader(const ValueSpan& src, Fn&& fn) {
  if (src.doubles != nullptr) {
    fn(DoublesAt{src.doubles});
  } else {
    fn(IntsAt{src.ints});
  }
}

// Calls fn with the reader of any value stream.
template <class Fn>
void WithReader(const ValueSpan& src, Fn&& fn) {
  if (src.indicator != nullptr) {
    fn(IndicatorAt{src.indicator});
  } else {
    WithColumnReader(src, fn);
  }
}

// Calls fn with `reader`, or with its ShiftedAt when `c` holds the pass's
// per-group shift values.
template <class V, class Fn>
void WithShift(V reader, const double* c, const uint32_t* rg, Fn&& fn) {
  if (c != nullptr) {
    fn(ShiftedAt<V>{reader, c, rg});
  } else {
    fn(reader);
  }
}

// Position walks: each calls fn(i, slot) for the positions one loop
// visits, ascending, where slot indexes the destination slabs.
//
// Positions [lo, hi): an unmasked morsel, or a storage chunk the zone maps
// prove all-matching.
struct RangeWalk {
  size_t lo, hi;
  const uint32_t* rg;
  template <class Fn>
  void operator()(Fn&& fn) const {
    for (size_t i = lo; i < hi; ++i) fn(i, rg[i]);
  }
};
// Listed positions: a selection, or one storage chunk's survivors.
struct ListWalk {
  const uint32_t* rows;
  size_t n;
  const uint32_t* rg;
  template <class Fn>
  void operator()(Fn&& fn) const {
    for (size_t k = 0; k < n; ++k) {
      const size_t i = rows[k];
      fn(i, rg[i]);
    }
  }
};
// One radix partition's positions [kb, ke) of part_rows, slotted by their
// partition-local group ids, skipping positions whose mask byte is 0.
struct PartitionWalk {
  const uint32_t* rows;
  const uint32_t* local;
  size_t kb, ke;
  const uint8_t* mask;  // null: every position
  template <class Fn>
  void operator()(Fn&& fn) const {
    for (size_t k = kb; k < ke; ++k) {
      const size_t i = rows[k];
      if (mask != nullptr && mask[i] == 0) continue;
      fn(i, local[k]);
    }
  }
};

// The fused row loop: per visited position, ++cnt (kCount), wsum += w
// (kWeightSum), s += w * v and s2 += w * v * v (kS2) at its slot. Each
// slab still receives its additions in visit order, so one loop over
// several slabs adds exactly what one loop per slab would.
template <bool kCount, bool kWeightSum, bool kS2, class Walk, class W,
          class V>
void RowLoop(const Walk& walk, uint64_t* cnt, double* wsum, double* s,
             double* s2, W weight_at, V value_at) {
  walk([&](size_t i, size_t g) {
    if constexpr (kCount) ++cnt[g];
    const double w = weight_at(i);
    if constexpr (kWeightSum) wsum[g] += w;
    if constexpr (!std::is_same_v<V, NoValue>) {
      const double v = value_at(i);
      const double wv = w * v;
      s[g] += wv;
      if constexpr (kS2) s2[g] += wv * v;
    }
  });
}

// The WHERE walk's per-storage-chunk checkpoint: governance, and a fail
// point that aborts a scan part-way.
void StorageChunkCheckpoint() {
  CheckQueryAbortedOrThrow();
  Status st = CVOPT_FAILPOINT_STATUS("exec.groupby.chunk");
  if (!st.ok()) throw QueryAbortedError(std::move(st));
}

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

SourceAccumulator::SourceAccumulator(const std::vector<AggSpec>& aggs,
                                     const std::vector<ValueSpan>& values,
                                     bool weighted)
    : aggs_(&aggs), weighted_(weighted) {
  // SUM-like (AVG, SUM, COUNT_IF) or VARIANCE: aggregates of one kind over
  // one stream make the same additions in the same order.
  auto is_variance = [&](size_t j) {
    return aggs[j].func == AggFunc::kVariance;
  };
  auto same_stream = [&](size_t k, size_t j) {
    return values[k].doubles == values[j].doubles &&
           values[k].ints == values[j].ints &&
           values[k].indicator == values[j].indicator;
  };
  std::vector<size_t> owners;
  for (size_t j = 0; j < aggs.size(); ++j) {
    const AggFunc f = aggs[j].func;
    if (f == AggFunc::kCount) continue;  // answered by cnt / wcnt
    if (f == AggFunc::kMedian) {
      medians_.push_back(j);
      continue;
    }
    const auto k = std::find_if(owners.begin(), owners.end(), [&](size_t o) {
      return is_variance(o) == is_variance(j) && same_stream(o, j);
    });
    if (k != owners.end()) {
      copies_.emplace_back(j, *k);
      continue;
    }
    owners.push_back(j);
    if (fused_ == kNone && values[j].indicator == nullptr) {
      fused_ = j;
    } else {
      sums_.push_back(j);
    }
  }
}

void SourceAccumulator::Add(const GroupedPass& pass,
                            const std::vector<ValueSpan>& values,
                            GroupedAccumulators* out) const {
  GroupedAccumulators& acc = *out;
  const std::vector<AggSpec>& aggs = *aggs_;
  const size_t t = aggs.size();
  const size_t G = pass.num_groups;
  const size_t n = pass.row_groups->size();
  const uint32_t* rg = pass.row_groups->data();
  if (acc.num_groups != G || acc.sums.size() != t) {
    acc.Grow(aggs, G, weighted_);
  }

  // Per-group surviving-position counts: the sizes of an unmasked pass
  // that has them, else counted by the fused loop (integers, so every
  // merge is bit-exact).
  const bool counts =
      pass.sel != nullptr || pass.where != nullptr || pass.sizes == nullptr;
  if (!counts) {
    const uint64_t* sizes = pass.sizes->data();
    for (size_t g = 0; g < G; ++g) acc.cnt[g] += sizes[g];
  }

  // Shifted passes: c_g is the value at the group's shift row (0 for a
  // group with no positions, whose shift row does not exist).
  if (pass.shift_rows != nullptr) {
    acc.shifts.resize(t);
    const uint32_t* srow = pass.shift_rows->data();
    const uint64_t* sizes = pass.sizes->data();
    auto record = [&](size_t j) {
      std::vector<double>& c = acc.shifts[j];
      c.assign(G, 0.0);
      WithReader(values[j], [&](auto value_at) {
        for (size_t g = 0; g < G; ++g) {
          if (sizes[g] > 0) c[g] = value_at(srow[g]);
        }
      });
    };
    if (fused_ != kNone) record(fused_);
    for (size_t j : sums_) record(j);
  }
  auto shift_of = [&](size_t j) -> const double* {
    return pass.shift_rows != nullptr ? acc.shifts[j].data() : nullptr;
  };

  // Zeroed slabs of `groups` entries for everything this pass adds: a
  // morsel's chunk-merge partial, or a partition's own slabs.
  auto partial = [&](size_t groups) {
    GroupedAccumulators p;
    p.num_groups = groups;
    if (counts) p.cnt.assign(groups, 0);
    if (weighted_) p.wcnt.assign(groups, 0.0);
    p.sums.resize(t);
    p.sums2.resize(t);
    p.median_values.resize(t);
    p.median_pairs.resize(t);
    auto slabs = [&](size_t j) {
      p.sums[j].assign(groups, 0.0);
      if (aggs[j].func == AggFunc::kVariance) p.sums2[j].assign(groups, 0.0);
    };
    if (fused_ != kNone) slabs(fused_);
    for (size_t j : sums_) slabs(j);
    for (size_t j : medians_) {
      if (weighted_) {
        p.median_pairs[j].resize(groups);
      } else {
        p.median_values[j].resize(groups);
      }
    }
    return p;
  };
  // Adds partial `p` into acc at ids[l] (at l when ids is null): counts
  // and sums add, MEDIAN buffers append.
  auto merge = [&](GroupedAccumulators& p, const uint32_t* ids) {
    auto add = [&](auto& dst, const auto& src) {
      for (size_t l = 0; l < src.size(); ++l) {
        dst[ids != nullptr ? ids[l] : l] += src[l];
      }
    };
    add(acc.cnt, p.cnt);
    add(acc.wcnt, p.wcnt);
    for (size_t j = 0; j < t; ++j) {
      add(acc.sums[j], p.sums[j]);
      add(acc.sums2[j], p.sums2[j]);
    }
    auto append = [&](auto& dst, auto& src) {
      for (size_t l = 0; l < src.size(); ++l) {
        auto& d = dst[ids != nullptr ? ids[l] : l];
        d.insert(d.end(), src[l].begin(), src[l].end());
      }
    };
    for (size_t j : medians_) {
      append(acc.median_values[j], p.median_values[j]);
      append(acc.median_pairs[j], p.median_pairs[j]);
    }
  };

  // Everything one walk adds into dst, whose slabs the walk's slots
  // index: the fused loop, then each other sum stream's loop, then the
  // MEDIAN buffers. Each combination of weight stream and value readers
  // instantiates a specialized loop.
  auto run_walk = [&](const auto& walk, GroupedAccumulators& dst,
                      auto weight_at) {
    constexpr bool kWeighted =
        !std::is_same_v<decltype(weight_at), UnitWeight>;
    auto loop = [&](auto count, auto weight_sum, size_t j, auto value_at) {
      constexpr bool kCount = decltype(count)::value;
      constexpr bool kWeightSum = decltype(weight_sum)::value;
      double* s = j != kNone ? dst.sums[j].data() : nullptr;
      if (j != kNone && aggs[j].func == AggFunc::kVariance) {
        RowLoop<kCount, kWeightSum, true>(walk, dst.cnt.data(),
                                          dst.wcnt.data(), s,
                                          dst.sums2[j].data(), weight_at,
                                          value_at);
      } else {
        RowLoop<kCount, kWeightSum, false>(walk, dst.cnt.data(),
                                           dst.wcnt.data(), s, nullptr,
                                           weight_at, value_at);
      }
    };
    auto fused = [&](auto count) {
      const std::bool_constant<kWeighted> weight_sum;
      if (fused_ == kNone) {
        if (decltype(count)::value || kWeighted) {
          loop(count, weight_sum, kNone, NoValue{});
        }
        return;
      }
      WithColumnReader(values[fused_], [&](auto reader) {
        WithShift(reader, shift_of(fused_), rg, [&](auto value_at) {
          loop(count, weight_sum, fused_, value_at);
        });
      });
    };
    if (counts) {
      fused(std::true_type{});
    } else {
      fused(std::false_type{});
    }
    for (size_t j : sums_) {
      WithReader(values[j], [&](auto reader) {
        WithShift(reader, shift_of(j), rg, [&](auto value_at) {
          loop(std::false_type{}, std::false_type{}, j, value_at);
        });
      });
    }
    for (size_t j : medians_) {
      WithReader(values[j], [&](auto value_at) {
        if constexpr (kWeighted) {
          auto* b = dst.median_pairs[j].data();
          walk([&](size_t i, size_t g) {
            b[g].emplace_back(value_at(i), weight_at(i));
          });
        } else {
          auto* b = dst.median_values[j].data();
          walk([&](size_t i, size_t g) { b[g].push_back(value_at(i)); });
        }
      });
    }
  };

  auto accumulate = [&](auto weight_at) {
    // Pass over a partitioned build: partition-owned slabs. Each worker
    // walks its partition's ascending position list into slabs sized to
    // the partition's own group count, then adds them into its groups'
    // global ids — disjoint across partitions, so there is no contention
    // and no chunk-order merge at all. Per-group sums are the serial
    // ascending-position sums bit for bit, and MEDIAN buffers append
    // whole (a group's positions live in one partition). A WHERE clause
    // or selection rides the same slabs as a position mask, so masked
    // groups are still visited ascending.
    if (const GroupPartitions* parts = pass.parts) {
      std::vector<uint8_t> mask;
      if (pass.where != nullptr) {
        mask.resize(n);
        ParallelEvalMask(*pass.where, mask.data());
      } else if (pass.sel != nullptr) {
        // Selection entries are distinct positions: chunks write disjoint
        // bytes.
        mask.assign(n, 0);
        const uint32_t* selp = pass.sel->data();
        ParallelForChunks(pass.sel->size(), pass.chunks,
                          [&](size_t, size_t lo, size_t hi) {
                            for (size_t i = lo; i < hi; ++i) mask[selp[i]] = 1;
                          });
      }
      const bool masked = pass.where != nullptr || pass.sel != nullptr;
      const size_t P = parts->num_partitions();
      ParallelForChunks(P, P, [&](size_t p, size_t, size_t) {
        GroupedAccumulators local = partial(parts->num_groups_in(p));
        run_walk(PartitionWalk{parts->part_rows.data(),
                               parts->part_local.data(), parts->part_base[p],
                               parts->part_base[p + 1],
                               masked ? mask.data() : nullptr},
                 local, weight_at);
        merge(local, parts->local_to_global.data() + parts->group_base[p]);
      });
      return;
    }

    // Otherwise the chunk-order merged morsel path over [0, m): `sel`
    // indices under a selection, rows otherwise. A WHERE morsel walks its
    // storage chunks and hands each one's survivors, selected into one
    // reused buffer, straight to the loops. Parallel passes run morsels
    // into zeroed partials and merge them in chunk order; one chunk is
    // the exact serial loop.
    const size_t m = pass.sel != nullptr ? pass.sel->size() : n;
    auto morsel = [&](size_t lo, size_t hi, GroupedAccumulators& dst) {
      if (pass.sel != nullptr) {
        run_walk(ListWalk{pass.sel->data() + lo, hi - lo, rg}, dst,
                 weight_at);
      } else if (pass.where == nullptr) {
        run_walk(RangeWalk{lo, hi, rg}, dst, weight_at);
      } else {
        std::vector<uint32_t> buf;
        pass.where->ScanChunks(
            lo, hi, &buf,
            [&](size_t clo, size_t chi, const std::vector<uint32_t>* rows) {
              StorageChunkCheckpoint();
              if (rows == nullptr) {
                run_walk(RangeWalk{clo, chi, rg}, dst, weight_at);
              } else {
                run_walk(ListWalk{rows->data(), rows->size(), rg}, dst,
                         weight_at);
              }
            });
      }
    };
    if (pass.chunks <= 1) {
      morsel(0, m, acc);
      return;
    }
    std::vector<GroupedAccumulators> part(pass.chunks);
    ParallelForChunks(m, pass.chunks, [&](size_t c, size_t lo, size_t hi) {
      part[c] = partial(G);
      morsel(lo, hi, part[c]);
    });
    for (GroupedAccumulators& p : part) merge(p, nullptr);
  };
  if (weighted_) {
    const double* w = pass.weights->data();
    accumulate([w](size_t i) { return w[i]; });
  } else {
    accumulate(UnitWeight{});
  }

  for (const auto& [j, k] : copies_) {
    acc.sums[j] = acc.sums[k];
    acc.sums2[j] = acc.sums2[k];
    if (pass.shift_rows != nullptr) acc.shifts[j] = acc.shifts[k];
  }
}

void AccumulateSources(const GroupedPass& pass,
                       const std::vector<AggSpec>& aggs,
                       const std::vector<ValueSpan>& values,
                       GroupedAccumulators* acc) {
  SourceAccumulator(aggs, values, pass.weights != nullptr)
      .Add(pass, values, acc);
}

Result<GroupedAccumulators> AccumulateGrouped(
    const Table& table, const QuerySpec& query, const GroupIndex& gidx,
    const CompiledPredicate* where, const std::vector<double>* weights) {
 return GovernedSection([&]() -> Result<GroupedAccumulators> {
  CVOPT_ASSIGN_OR_RETURN(BoundAggregates bound,
                         BoundAggregates::Bind(table, query.aggregates));
  const size_t G = gidx.num_groups();
  const size_t n = gidx.num_rows();

  GroupedPass pass;
  pass.num_groups = G;
  pass.row_groups = &gidx.row_groups();
  pass.sizes = &gidx.sizes();
  pass.parts = gidx.partitions().get();
  pass.where = where;
  pass.weights = weights;
  pass.chunks = AggregationChunks(n, G);

  // The accumulator slabs, plus one set of zeroed partials per morsel of
  // a merged pass, are the aggregation's dominant working memory; a WHERE
  // clause adds a row mask (partitioned) or one storage chunk's selection
  // buffer per morsel. Reserve them against the query's budget before
  // touching them (the fail-point lets tests force the kResourceExhausted
  // path without a real budget). Held until the accumulators are returned
  // to the caller.
  size_t slabs = weights != nullptr ? 1 : 0;  // wcnt
  for (const auto& a : query.aggregates) {
    if (a.func == AggFunc::kCount || a.func == AggFunc::kMedian) continue;
    slabs += a.func == AggFunc::kVariance ? 2 : 1;  // sums (+ sums2)
  }
  const bool merged = pass.parts == nullptr && pass.chunks > 1;
  size_t bytes = (merged ? pass.chunks + 1 : 1) * G *
                 (slabs * sizeof(double) + sizeof(uint64_t));
  if (where != nullptr && pass.parts != nullptr) {
    bytes += n;
  } else if (where != nullptr) {
    bytes += pass.chunks * std::min(n, table.zone_index()->chunk_rows) *
             sizeof(uint32_t);
  }
  CVOPT_FAILPOINT("exec.groupby.alloc");
  MemoryReservation slab_res =
      ReserveMemoryOrThrow(bytes, "group-by accumulator slabs");

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

Result<QueryResult> GroupedResult(const Table& table, const QuerySpec& query,
                                  const GroupIndex& gidx,
                                  GroupedAccumulators* acc) {
  std::vector<double> finals = FinalizeGrouped(query.aggregates, acc);
  return QueryResult::Dense(query.AggLabels(), query.group_by,
                            KeyColumnsOf(table, gidx.column_indices()),
                            gidx.KeyCodes(), acc->cnt, finals);
}

Result<QueryResult> ExecuteExact(const Table& table, const QuerySpec& query) {
 return GovernedSection([&]() -> Result<QueryResult> {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  CVOPT_RETURN_NOT_OK(CheckQueryAborted());
  CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const GroupIndex> index,
                         GroupIndex::BuildShared(table, query.group_by));
  const GroupIndex& gidx = *index;

  // WHERE compiles through the shared plan cache (workload replays reuse
  // the plan); the accumulation selects its rows one storage chunk at a
  // time.
  std::shared_ptr<const CompiledPredicate> where;
  if (query.where != nullptr) {
    CVOPT_ASSIGN_OR_RETURN(where, CompilePredicateCached(table, query.where));
  }
  CVOPT_ASSIGN_OR_RETURN(GroupedAccumulators acc,
                         AccumulateGrouped(table, query, gidx, where.get()));

  // Groups emit in first-occurrence-over-all-rows order (the GroupIndex is
  // built unmasked); under a WHERE clause this may differ from the legacy
  // first-surviving-row order. The group set and values are identical.
  return GroupedResult(table, query, gidx, &acc);
 });
}

}  // namespace cvopt
