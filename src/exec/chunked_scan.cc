#include "src/exec/chunked_scan.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "src/exec/group_by_executor.h"
#include "src/exec/group_index.h"
#include "src/exec/parallel.h"
#include "src/exec/query_context.h"
#include "src/expr/compiled_predicate.h"
#include "src/stats/group_key.h"
#include "src/util/failpoint.h"
#include "src/util/string_util.h"

namespace cvopt {

namespace {

// Per-aggregate binding against the mapped schema (the streaming analogue
// of BoundAggregates::Bind, without materialized indicator vectors).
struct MappedAggBinding {
  bool constant_one = false;                  // COUNT: answered by cnt[]
  std::unique_ptr<CompiledPredicate> filter;  // COUNT_IF
  size_t col = 0;                             // value column otherwise
};

// Renders a group label exactly like GroupKey::Render does for the
// in-memory executor (dict strings for string columns, decimal otherwise).
std::string RenderLabel(const MappedTable& mt, const std::vector<size_t>& gcols,
                        const GroupKey& key) {
  std::vector<std::string> parts;
  parts.reserve(key.codes.size());
  for (size_t i = 0; i < key.codes.size(); ++i) {
    if (mt.schema().field(gcols[i]).type == DataType::kString) {
      const auto& dict = mt.dictionary(gcols[i]);
      const auto code = static_cast<size_t>(key.codes[i]);
      parts.push_back(code < dict.size()
                          ? dict[code]
                          : StrFormat("<%lld>", (long long)key.codes[i]));
    } else {
      parts.push_back(StrFormat("%lld", static_cast<long long>(key.codes[i])));
    }
  }
  return Join(parts, "|");
}

// Query compilation: resolved group-by columns, aggregate bindings, the
// WHERE clause, and the projection — the columns a chunk the WHERE clause
// does not refute must decode. Predicates compile against the file's
// zero-row prototype, which lives behind a pointer so the compiled plans'
// borrowed storage stays valid however the struct moves; the plans are
// only classified against the file's zone maps and rebound to decoded
// chunks, never evaluated against the prototype.
struct MappedScanPlan {
  size_t t = 0;  // aggregate count
  std::vector<size_t> gcols;
  std::vector<MappedAggBinding> bindings;
  bool any_var = false;
  size_t num_countif = 0;
  std::unique_ptr<Table> proto;
  std::unique_ptr<CompiledPredicate> where;
  std::vector<size_t> decode_cols;  // ascending: GROUP BY, values, leaves
};

Result<MappedScanPlan> PrepareMappedScan(const MappedTable& mt,
                                         const QuerySpec& query) {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  const Schema& schema = mt.schema();
  MappedScanPlan plan;
  plan.t = query.aggregates.size();
  plan.proto = std::make_unique<Table>(mt.Prototype());
  std::vector<bool> read(mt.num_columns(), false);

  // Resolve group-by columns (discrete types only, as GroupIndex requires).
  plan.gcols.reserve(query.group_by.size());
  for (const auto& name : query.group_by) {
    CVOPT_ASSIGN_OR_RETURN(size_t idx, schema.FindColumn(name));
    if (schema.field(idx).type == DataType::kDouble) {
      return Status::InvalidArgument("cannot group by double column " + name);
    }
    plan.gcols.push_back(idx);
    read[idx] = true;
  }

  // Resolve aggregates; COUNT_IF filters compile against the prototype.
  plan.bindings.resize(plan.t);
  for (size_t j = 0; j < plan.t; ++j) {
    const AggSpec& a = query.aggregates[j];
    MappedAggBinding& b = plan.bindings[j];
    plan.any_var |= a.func == AggFunc::kVariance;
    if (a.func == AggFunc::kCount) {
      b.constant_one = true;
      continue;
    }
    if (a.func == AggFunc::kCountIf) {
      if (a.filter == nullptr) {
        return Status::InvalidArgument("COUNT_IF requires a filter");
      }
      CVOPT_ASSIGN_OR_RETURN(
          CompiledPredicate cp,
          CompiledPredicate::Compile(*plan.proto, *a.filter));
      for (uint32_t c : cp.LeafColumns()) read[c] = true;
      b.filter = std::make_unique<CompiledPredicate>(std::move(cp));
      ++plan.num_countif;
      continue;
    }
    CVOPT_ASSIGN_OR_RETURN(size_t idx, schema.FindColumn(a.column));
    if (schema.field(idx).type == DataType::kString) {
      return Status::InvalidArgument("cannot aggregate string column " +
                                     a.column);
    }
    b.col = idx;
    read[idx] = true;
  }

  // The WHERE clause compiles once, too: this validates it and yields the
  // zone classifier consulted before any decode.
  if (query.where != nullptr) {
    CVOPT_ASSIGN_OR_RETURN(
        CompiledPredicate cp,
        CompiledPredicate::Compile(*plan.proto, *query.where));
    for (uint32_t c : cp.LeafColumns()) read[c] = true;
    plan.where = std::make_unique<CompiledPredicate>(std::move(cp));
  }
  for (size_t c = 0; c < read.size(); ++c) {
    if (read[c]) plan.decode_cols.push_back(c);
  }
  return plan;
}

// Finalizes through the shared core's rules, then emits groups in
// first-occurrence order, omitting fully-filtered groups (IngestDense
// semantics).
Result<QueryResult> EmitMappedResult(const MappedTable& mt,
                                     const QuerySpec& query,
                                     const MappedScanPlan& plan,
                                     const StreamGroupRouter& router,
                                     GroupedAccumulators* acc) {
  const size_t t = plan.t;
  const size_t G = acc->num_groups;
  std::vector<double> finals = FinalizeGrouped(query.aggregates, acc);

  std::vector<std::string> agg_labels;
  agg_labels.reserve(t);
  for (const auto& a : query.aggregates) agg_labels.push_back(a.Label());
  QueryResult result(std::move(agg_labels), query.group_by);
  for (size_t g = 0; g < G; ++g) {
    if (acc->cnt[g] == 0) continue;
    std::vector<double> values(t);
    for (size_t j = 0; j < t; ++j) values[j] = finals[j * G + g];
    GroupKey key = router.KeyOf(g);
    std::string label = RenderLabel(mt, plan.gcols, key);
    CVOPT_RETURN_NOT_OK(
        result.AddGroup(std::move(key), std::move(label), std::move(values)));
  }
  return result;
}

ChunkVerdict ClassifyChunk(const MappedTable& mt, const MappedScanPlan& plan,
                           bool zones_on, size_t k) {
  if (plan.where == nullptr || !zones_on) return ChunkVerdict::kResidual;
  const ChunkVerdict verdict = plan.where->ClassifyZones(
      [&](uint32_t col) -> const ZoneMap& {
        return mt.zone_index().zone(col, k);
      });
  RecordZoneVerdict(verdict);
  return verdict;
}

// One storage chunk of a decode wave. The decoded columns are held here
// (by column index; null when not read), so cache evictions cannot free
// them before the wave is accumulated.
struct WaveChunk {
  size_t rows = 0;
  ChunkVerdict verdict = ChunkVerdict::kResidual;
  std::vector<std::shared_ptr<const DecodedChunk>> cols;
  std::vector<uint32_t> gids;
  std::vector<uint8_t> smask;  // WHERE survivors; empty when all survive
  std::vector<std::vector<uint8_t>> indicators;  // [agg], COUNT_IF only
  Status status;
};

// Decodes chunk k's projection — only its group-by columns when the zone
// maps refute the WHERE clause — and evaluates its WHERE / COUNT_IF masks
// with the prototype plans rebound to the decoded storage. A provably
// accepted chunk skips WHERE evaluation.
Status DecodeWaveChunk(const MappedTable& mt, const MappedScanPlan& plan,
                       size_t k, WaveChunk* wc) {
  const size_t n = wc->rows;
  wc->cols.resize(mt.num_columns());
  const bool skip = wc->verdict == ChunkVerdict::kSkip;
  for (size_t c : skip ? plan.gcols : plan.decode_cols) {
    CVOPT_ASSIGN_OR_RETURN(wc->cols[c], mt.GetChunk(c, k));
  }
  if (skip) return Status::OK();
  const auto span_of = [&](uint32_t c) {
    const DecodedChunk& d = *wc->cols[c];
    return CompiledPredicate::ColumnSpan{d.ints.data(), d.doubles.data(),
                                         d.codes.data()};
  };
  if (plan.where != nullptr && wc->verdict != ChunkVerdict::kTakeAll) {
    wc->smask.resize(n);
    plan.where->Rebind(span_of, n).EvalMaskRange(0, n, wc->smask.data());
  }
  wc->indicators.resize(plan.t);
  for (size_t j = 0; j < plan.t; ++j) {
    const CompiledPredicate* filter = plan.bindings[j].filter.get();
    if (filter == nullptr) continue;
    wc->indicators[j].resize(n);
    filter->Rebind(span_of, n).EvalMaskRange(0, n, wc->indicators[j].data());
  }
  return Status::OK();
}

// The scan: one pass in chunk order, in waves of ~2x the fan-out (one
// chunk at one thread). Each wave (a) decodes its chunks' projections and
// evaluates their masks, one chunk per worker (the chunk cache is
// mutex-guarded, so concurrent GetChunk calls are safe and the LRU stays
// honored); (b) routes every row's group id through one StreamGroupRouter
// in chunk order, zone-refuted chunks included, so ids are first-seen in
// ascending row order; (c) grows the accumulators to the new group count;
// and (d) accumulates, each worker owning a contiguous DISJOINT gid range
// and walking the wave's chunks in order, rows ascending. Per-group
// addition order is therefore ascending row order whatever the thread
// count, wave size, or chunk geometry: no partial-slab float
// reassociation, no merge pass.
Result<QueryResult> ScanMapped(const MappedTable& mt, const QuerySpec& query,
                               const MappedScanPlan& plan) {
  const size_t t = plan.t;
  const size_t num_chunks = mt.num_chunks();
  const size_t threads = std::max<size_t>(1, ResolveThreads());

  // The decode wave and the accumulators are the scan's working set, and
  // each is charged to the ambient budget only if the budget grants it. A
  // refused wave shrinks to one chunk; whatever is refused runs
  // unreserved: the streaming path must keep answering under budgets that
  // already refused materialization.
  QueryContext* ctx = const_cast<QueryContext*>(CurrentQueryContext());
  size_t wave_cap = threads == 1 ? 1 : 2 * threads;
  size_t row_width = sizeof(uint32_t) + 1 + plan.num_countif;  // gid + masks
  for (size_t c : plan.decode_cols) {
    row_width += mt.schema().field(c).type == DataType::kString
                     ? sizeof(int32_t)
                     : sizeof(int64_t);
  }
  MemoryReservation wave_res;
  if (ctx != nullptr) {
    Result<MemoryReservation> res = ctx->TryReserve(
        std::min(wave_cap, num_chunks) * mt.chunk_rows() * row_width,
        "mapped scan decode wave");
    if (res.ok()) {
      wave_res = std::move(res).value();
    } else {
      wave_cap = 1;
    }
  }

  std::vector<DataType> gtypes;
  for (size_t c : plan.gcols) gtypes.push_back(mt.schema().field(c).type);
  StreamGroupRouter router(gtypes);
  std::vector<uint32_t> positions(mt.chunk_rows());
  std::iota(positions.begin(), positions.end(), 0u);

  GroupedAccumulators acc;
  acc.Grow(query.aggregates, 0, /*weighted=*/false);
  const size_t group_bytes =
      sizeof(uint64_t) + t * sizeof(double) * (plan.any_var ? 2 : 1);
  std::vector<MemoryReservation> acc_res;

  const bool zones_on = ZoneMapPruningEnabled();
  for (size_t w0 = 0; w0 < num_chunks; w0 += wave_cap) {
    const size_t wn = std::min(wave_cap, num_chunks - w0);
    std::vector<WaveChunk> wave(wn);
    for (size_t i = 0; i < wn; ++i) {
      // Governance boundary of the streaming scan: one check per storage
      // chunk, never per row.
      CVOPT_RETURN_NOT_OK(CheckQueryAborted());
      CVOPT_FAILPOINT("exec.mapped.chunk");
      wave[i].rows = mt.ChunkRowCount(w0 + i);
      wave[i].verdict = ClassifyChunk(mt, plan, zones_on, w0 + i);
    }

    // (a) Decode + masks, one chunk per morsel. Failures park in per-chunk
    // Status slots (workers cannot early-return across the pool) and
    // surface in chunk order.
    ParallelForChunks(wn, wn, [&](size_t i, size_t, size_t) {
      wave[i].status = DecodeWaveChunk(mt, plan, w0 + i, &wave[i]);
    });
    for (const WaveChunk& wc : wave) CVOPT_RETURN_NOT_OK(wc.status);

    // (b) Route, in chunk order.
    for (WaveChunk& wc : wave) {
      for (size_t i = 0; i < plan.gcols.size(); ++i) {
        const DecodedChunk& d = *wc.cols[plan.gcols[i]];
        router.Bind(i, d.ints.data(), d.codes.data());
      }
      wc.gids.resize(wc.rows);
      router.RouteBatch(positions.data(), wc.rows, wc.gids.data());
    }

    // (c) Grow the accumulators to the groups discovered so far.
    const size_t G = router.num_groups();
    if (G > acc.num_groups) {
      if (ctx != nullptr) {
        Result<MemoryReservation> res = ctx->TryReserve(
            (G - acc.num_groups) * group_bytes, "mapped scan accumulators");
        if (res.ok()) acc_res.push_back(std::move(res).value());
      }
      acc.Grow(query.aggregates, G, /*weighted=*/false);
    }

    // (d) Gid-range-partitioned accumulation.
    if (G == 0) continue;
    ParallelForChunks(G, std::min(threads, G), [&](size_t, size_t glo,
                                                   size_t ghi) {
      for (const WaveChunk& wc : wave) {
        if (wc.verdict == ChunkVerdict::kSkip) continue;
        for (size_t r = 0; r < wc.rows; ++r) {
          const uint32_t gid = wc.gids[r];
          if (gid < glo || gid >= ghi) continue;
          if (!wc.smask.empty() && wc.smask[r] == 0) continue;
          acc.cnt[gid]++;
          for (size_t j = 0; j < t; ++j) {
            const MappedAggBinding& b = plan.bindings[j];
            if (b.constant_one) continue;
            double v;
            if (b.filter != nullptr) {
              v = wc.indicators[j][r] ? 1.0 : 0.0;
            } else {
              const DecodedChunk& col = *wc.cols[b.col];
              v = col.type == DataType::kDouble
                      ? col.doubles[r]
                      : static_cast<double>(col.ints[r]);
            }
            const AggFunc f = query.aggregates[j].func;
            if (f == AggFunc::kMedian) {
              acc.median_values[j][gid].push_back(v);
              continue;
            }
            acc.sums[j][gid] += v;
            if (f == AggFunc::kVariance) acc.sums2[j][gid] += v * v;
          }
        }
      }
    });
  }
  return EmitMappedResult(mt, query, plan, router, &acc);
}

}  // namespace

Result<QueryResult> ExecuteGroupByMapped(const MappedTable& mt,
                                         const QuerySpec& query) {
  // The whole scan is one governed section: the chunk loop checks per
  // chunk, and the parallel passes check at morsel boundaries through the
  // shared pool (surfacing as QueryAbortedError, converted back to Status
  // here).
  return GovernedSection([&]() -> Result<QueryResult> {
    CVOPT_ASSIGN_OR_RETURN(MappedScanPlan plan, PrepareMappedScan(mt, query));
    return ScanMapped(mt, query, plan);
  });
}

}  // namespace cvopt
