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

namespace cvopt {

namespace {

// Per-aggregate binding against the mapped schema (the streaming analogue
// of BoundAggregates::Bind: COUNT_IF masks are evaluated per chunk).
struct MappedAggBinding {
  bool constant_one = false;                  // COUNT: answered by cnt[]
  std::unique_ptr<CompiledPredicate> filter;  // COUNT_IF
  size_t col = 0;                             // value column otherwise
};

// Query compilation: resolved group-by columns, aggregate bindings, the
// WHERE clause, and the projection — the columns a chunk the WHERE clause
// does not refute must decode. Predicates compile against the file's
// zero-row prototype, which lives behind a pointer so the compiled plans'
// borrowed storage stays valid however the struct moves; the plans are
// only classified against the file's zone maps and rebound to decoded
// chunks, never evaluated against the prototype. The prototype's string
// columns share the file's dictionaries, which the result keeps.
struct MappedScanPlan {
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
  plan.bindings.resize(query.aggregates.size());
  for (size_t j = 0; j < plan.bindings.size(); ++j) {
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

// Finalizes through the shared core's rules and emits the groups in
// directory order, keyed by the directory's codes; fully-filtered groups
// are absent.
Result<QueryResult> EmitMappedResult(const QuerySpec& query,
                                     const MappedScanPlan& plan,
                                     const StreamGroupRouter& dir,
                                     GroupedAccumulators* acc) {
  std::vector<double> finals = FinalizeGrouped(query.aggregates, acc);
  return QueryResult::Dense(query.AggLabels(), query.group_by,
                            KeyColumnsOf(*plan.proto, plan.gcols),
                            dir.key_codes(), acc->cnt, finals);
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
  std::vector<uint32_t> gids;  // directory ids, set at surviving rows
  std::vector<uint32_t> sel;  // WHERE survivors of a residual chunk
  std::vector<std::vector<uint8_t>> indicators;  // [agg], COUNT_IF only
  std::vector<ValueSpan> values;  // [agg]: a column, an indicator or one
  Status status;
};

bool Selects(const MappedScanPlan& plan, const WaveChunk& wc) {
  return plan.where != nullptr && wc.verdict == ChunkVerdict::kResidual;
}

// Decodes chunk k's projection, evaluates its WHERE selection and COUNT_IF
// masks with the prototype plans rebound to the decoded storage, points
// each aggregate's value stream at its column or mask, and looks up each
// surviving row's group id in the kept directory `dir`, which a refuted
// chunk never decodes; without one, a refuted chunk decodes only its
// GROUP BY columns for routing. A provably accepted chunk skips WHERE.
Status DecodeWaveChunk(const MappedTable& mt, const MappedScanPlan& plan,
                       const StreamGroupRouter* dir, const uint32_t* positions,
                       size_t k, WaveChunk* wc) {
  const bool skip = wc->verdict == ChunkVerdict::kSkip;
  if (skip && dir != nullptr) return Status::OK();
  const size_t n = wc->rows;
  wc->cols.resize(mt.num_columns());
  for (size_t c : skip ? plan.gcols : plan.decode_cols) {
    CVOPT_ASSIGN_OR_RETURN(wc->cols[c], mt.GetChunk(c, k));
  }
  if (skip) return Status::OK();
  const auto span_of = [&](uint32_t c) {
    const DecodedChunk& d = *wc->cols[c];
    return CompiledPredicate::ColumnSpan{d.ints.data(), d.doubles.data(),
                                         d.codes.data()};
  };
  const bool selects = Selects(plan, *wc);
  if (selects) {
    wc->sel = plan.where->Rebind(span_of, n).SelectRange(0, n);
  }
  const size_t t = plan.bindings.size();
  wc->indicators.resize(t);
  wc->values.resize(t);
  for (size_t j = 0; j < t; ++j) {
    const MappedAggBinding& b = plan.bindings[j];
    if (b.filter != nullptr) {
      std::vector<uint8_t>& mask = wc->indicators[j];
      mask.resize(n);
      b.filter->Rebind(span_of, n).EvalMaskRange(0, n, mask.data());
      wc->values[j].indicator = mask.data();
    } else if (!b.constant_one) {
      const DecodedChunk& d = *wc->cols[b.col];
      if (d.type == DataType::kDouble) {
        wc->values[j].doubles = d.doubles.data();
      } else {
        wc->values[j].ints = d.ints.data();
      }
    }
  }

  if (dir == nullptr) return Status::OK();
  std::vector<StreamGroupRouter::ColumnRef> keys(plan.gcols.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const DecodedChunk& d = *wc->cols[plan.gcols[i]];
    keys[i] = {d.ints.data(), d.codes.data()};
  }
  wc->gids.resize(n);
  if (!dir->FindBatch(keys.data(), selects ? wc->sel.data() : positions,
                     selects ? wc->sel.size() : n, wc->gids.data())) {
    // The file changed under the mapping; a lookup never adds a key.
    return Status::Internal("group key missing from the file's directory");
  }
  return Status::OK();
}

// The scan (see chunked_scan.h), per wave: (a) decode, evaluate and look
// up group ids in a kept directory, one chunk per worker (the chunk cache
// is mutex-guarded, so concurrent GetChunk calls are safe and the LRU
// stays honored); (b) when building the directory, route in chunk order,
// zone-refuted chunks included, and grow the accumulators; (c) accumulate
// each chunk, in chunk order.
Result<QueryResult> ScanMapped(const MappedTable& mt, const QuerySpec& query,
                               const MappedScanPlan& plan) {
  const std::shared_ptr<const StreamGroupRouter> kept =
      mt.FindGroupDirectory(plan.gcols);
  std::shared_ptr<StreamGroupRouter> building;
  if (kept == nullptr) {
    std::vector<DataType> gtypes;
    for (size_t c : plan.gcols) gtypes.push_back(mt.schema().field(c).type);
    building = std::make_shared<StreamGroupRouter>(gtypes);
  }
  const StreamGroupRouter& dir = kept != nullptr ? *kept : *building;
  const size_t num_chunks = mt.num_chunks();
  const size_t threads = std::max<size_t>(1, ResolveThreads());

  // The decode wave, the directory and the accumulators are the scan's
  // working set, and each is charged to the ambient budget only if the
  // budget grants it. A refused wave shrinks to one chunk; whatever is
  // refused runs unreserved: the streaming path must keep answering under
  // budgets that already refused materialization.
  QueryContext* ctx = const_cast<QueryContext*>(CurrentQueryContext());
  size_t wave_cap = threads == 1 ? 1 : 2 * threads;
  // gid + selection entry + COUNT_IF masks, then the decoded columns.
  size_t row_width = 2 * sizeof(uint32_t) + plan.num_countif;
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
  const size_t group_bytes =
      sizeof(uint64_t) +
      plan.bindings.size() * sizeof(double) * (plan.any_var ? 2 : 1);
  GroupedAccumulators acc;
  MemoryReservation state_res;  // the directory and the accumulators
  // Sizes the accumulators to the directory's groups and charges both.
  const auto grow = [&] {
    acc.Grow(query.aggregates, dir.num_groups(), /*weighted=*/false);
    if (ctx == nullptr) return;
    state_res = MemoryReservation();
    Result<MemoryReservation> res =
        ctx->TryReserve(dir.byte_size() + acc.num_groups * group_bytes,
                        "mapped scan group directory and accumulators");
    if (res.ok()) state_res = std::move(res).value();
  };
  grow();
  std::vector<uint32_t> positions(mt.chunk_rows());
  std::iota(positions.begin(), positions.end(), 0u);

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

    // (a) Decode, masks and looked-up ids, one chunk per morsel. Failures
    // park in per-chunk Status slots (workers cannot early-return across
    // the pool) and surface in chunk order.
    ParallelForChunks(wn, wn, [&](size_t i, size_t, size_t) {
      wave[i].status = DecodeWaveChunk(mt, plan, kept.get(), positions.data(),
                                       w0 + i, &wave[i]);
    });
    for (const WaveChunk& wc : wave) CVOPT_RETURN_NOT_OK(wc.status);

    // (b) Building: route in chunk order, so ids are full-file first-seen.
    if (building != nullptr) {
      for (WaveChunk& wc : wave) {
        for (size_t i = 0; i < plan.gcols.size(); ++i) {
          const DecodedChunk& d = *wc.cols[plan.gcols[i]];
          building->Bind(i, d.ints.data(), d.codes.data());
        }
        wc.gids.resize(wc.rows);
        for (uint32_t r = 0; r < wc.rows; ++r) wc.gids[r] = building->Route(r);
      }
      grow();
    }

    // (c) Accumulate chunk by chunk: the WHERE survivors are the selection,
    // the decoded columns and COUNT_IF masks the value streams.
    for (const WaveChunk& wc : wave) {
      if (wc.verdict == ChunkVerdict::kSkip) continue;
      GroupedPass pass;
      pass.num_groups = acc.num_groups;
      pass.row_groups = &wc.gids;
      if (Selects(plan, wc)) pass.sel = &wc.sel;
      AccumulateSources(pass, query.aggregates, wc.values, &acc);
    }
  }
  if (building != nullptr) {
    mt.KeepGroupDirectory(plan.gcols, building, building->byte_size());
  }
  return EmitMappedResult(query, plan, dir, &acc);
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
