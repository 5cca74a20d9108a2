#include "src/sample/sampler.h"

#include <algorithm>

#include "src/exec/parallel.h"
#include "src/exec/query_context.h"
#include "src/sample/reservoir.h"
#include "src/util/string_util.h"

namespace cvopt {

Result<StratifiedSample> DrawStratified(
    const Table& table, std::shared_ptr<const Stratification> strat,
    const std::vector<uint64_t>& sizes, const std::string& method, Rng* rng) {
  const size_t r = strat->num_strata();
  if (sizes.size() != r) {
    return Status::InvalidArgument(
        StrFormat("allocation has %zu strata, stratification has %zu",
                  sizes.size(), r));
  }
 return GovernedSection([&]() -> Result<StratifiedSample> {

  // One serial draw derives the master seed; everything below is a pure
  // function of (master, stratification, sizes). Stratum c draws on its own
  // Rng::ForStratum(master, c) stream, so the per-stratum loop can fan out
  // across threads — in any order, with any chunking — and still produce
  // the drawn row sets of the serial pass, bit for bit.
  const uint64_t master = rng->Next64();

  const std::vector<uint64_t>& pop = strat->sizes();
  // Per-stratum draw sizes: an allocation at or above the stratum
  // population takes every row (take-all — the reservoir consumes no random
  // draws there), so s_c = min(sizes[c], n_c) is known before drawing and
  // each stratum writes a disjoint output slab. Strata served exactly
  // (s_c == n_c > 0) are recorded on the sample, so reports can tell
  // exhaustive strata from sampled ones.
  std::vector<size_t> base(r + 1, 0);     // population offsets
  std::vector<size_t> out_off(r + 1, 0);  // output offsets (draw sizes)
  std::vector<uint8_t> exhaustive(r, 0);
  for (size_t c = 0; c < r; ++c) {
    const uint64_t s_c = std::min<uint64_t>(sizes[c], pop[c]);
    base[c + 1] = base[c] + static_cast<size_t>(pop[c]);
    out_off[c + 1] = out_off[c] + static_cast<size_t>(s_c);
    exhaustive[c] = pop[c] > 0 && s_c == pop[c] ? 1 : 0;
  }

  MemoryReservation draw_res = ReserveMemoryOrThrow(
      out_off[r] * (sizeof(uint32_t) + sizeof(double)),
      "stratified sample rows and weights");
  std::vector<uint32_t> rows(out_off[r]);
  std::vector<double> weights(out_off[r]);
  uint32_t* rowp = rows.data();
  double* weightp = weights.data();

  const std::vector<uint32_t>& row_strata = strat->row_strata();
  const size_t n = row_strata.size();
  // Partial draws degrade at stratum granularity (a stratum either draws
  // fully or is skipped), which needs the per-stratum list path — the two
  // paths are bit-identical, so steering by allow_partial is free.
  const QueryContext* qctx = CurrentQueryContext();
  const bool allow_partial = qctx != nullptr && qctx->allow_partial();
  std::vector<uint8_t> degraded(r, 0);
  // Two draw paths, one output: each stratum's draw is Algorithm R over its
  // rows in ascending row order on its own stream, so running the strata
  // interleaved in one table pass (serial fast path: no list
  // materialization) or walking the shared per-stratum row lists (the
  // stratification's partition-backed — or counting-sorted — artifact,
  // fanned out across the pool) produces the same rows bit for bit. The
  // choice can therefore follow the resolved thread count and whether the
  // lists already exist, without entering the determinism contract.
  const bool use_lists = allow_partial ||
                         strat->stratum_rows_materialized() ||
                         ParallelChunkCount(n, ResolveThreads()) > 1;
  if (!use_lists) {
    // One interleaved pass: offer each row to its stratum's reservoir
    // state. seen[c] plays DrawReservoir's item index i; the slab fills,
    // then rows displace uniformly via the stratum's stream.
    std::vector<Rng> streams;
    streams.reserve(r);
    for (size_t c = 0; c < r; ++c) streams.push_back(Rng::ForStratum(master, c));
    std::vector<size_t> seen(r, 0);
    // Governance boundary inside the single interleaved pass: a blocked
    // check that never perturbs the row order or the streams' consumption.
    constexpr size_t kCheckEvery = 1 << 16;
    for (size_t row = 0; row < n; ++row) {
      if ((row & (kCheckEvery - 1)) == 0) CheckQueryAbortedOrThrow();
      const uint32_t c = row_strata[row];
      const size_t s_c = out_off[c + 1] - out_off[c];
      if (s_c == 0) continue;
      const size_t i = seen[c]++;
      if (i < s_c) {
        rowp[out_off[c] + i] = static_cast<uint32_t>(row);
      } else {
        const size_t j = ReservoirVictim(i + 1, s_c, &streams[c]);
        if (j < s_c) rowp[out_off[c] + j] = static_cast<uint32_t>(row);
      }
    }
    for (size_t c = 0; c < r; ++c) {
      const size_t s_c = out_off[c + 1] - out_off[c];
      if (s_c == 0) continue;
      const double w = static_cast<double>(base[c + 1] - base[c]) /
                       static_cast<double>(s_c);
      std::fill(weightp + out_off[c], weightp + out_off[c + 1], w);
    }
  } else {
    // The per-stratum row lists come from the stratification itself (one
    // shared materialization — straight from the radix-partition artifact
    // when the build kept one), not from a sampler-private bucketing pass.
    // Under allow_partial the materialization itself may hit the deadline
    // (it runs governed); with no lists there is nothing to draw from, so
    // every stratum is skipped and flagged rather than failing the draw.
    bool lists_ok = true;
    if (allow_partial) {
      try {
        strat->stratum_rows();
      } catch (const QueryAbortedError&) {
        lists_ok = false;
        std::fill(degraded.begin(), degraded.end(), uint8_t{1});
      }
    }
    if (lists_ok) {
    const std::vector<uint32_t>& stratum_rows = strat->stratum_rows();
    const uint32_t* bucketp = stratum_rows.data();
    const size_t* sbase = strat->stratum_row_base().data();
    ParallelFor(
        r,
        [&](size_t, size_t lo, size_t hi) {
          for (size_t c = lo; c < hi; ++c) {
            if (allow_partial) {
              // Deadline mid-draw: skip this stratum (its slab was never
              // written) and flag the shortfall instead of failing.
              if (!CheckQueryAborted().ok()) {
                degraded[c] = 1;
                continue;
              }
            } else {
              CheckQueryAbortedOrThrow();
            }
            const size_t s_c = out_off[c + 1] - out_off[c];
            if (s_c == 0) continue;  // allocation 0 / empty stratum: no draws
            const size_t n_c = sbase[c + 1] - sbase[c];
            Rng stream = Rng::ForStratum(master, c);
            DrawReservoir(bucketp + sbase[c], n_c, s_c, &stream,
                          rowp + out_off[c]);
            const double w =
                static_cast<double>(n_c) / static_cast<double>(s_c);
            std::fill(weightp + out_off[c], weightp + out_off[c + 1], w);
          }
        },
        0, 1);
    }
  }
  size_t num_degraded = 0;
  for (uint8_t f : degraded) num_degraded += f;
  if (num_degraded > 0) {
    // Compact away the skipped strata's (unwritten) slabs so the sample
    // holds only rows that were actually drawn; flags keep stratum ids.
    std::vector<uint32_t> crows;
    std::vector<double> cweights;
    crows.reserve(out_off[r]);
    cweights.reserve(out_off[r]);
    for (size_t c = 0; c < r; ++c) {
      if (degraded[c]) {
        exhaustive[c] = 0;  // skipped, so certainly not served exactly
        continue;
      }
      crows.insert(crows.end(), rows.begin() + out_off[c],
                   rows.begin() + out_off[c + 1]);
      cweights.insert(cweights.end(), weights.begin() + out_off[c],
                      weights.begin() + out_off[c + 1]);
    }
    rows = std::move(crows);
    weights = std::move(cweights);
  }
  StratifiedSample sample(&table, std::move(rows), std::move(weights), method);
  sample.set_stratification(std::move(strat));
  sample.set_stratum_exhaustive(std::move(exhaustive));
  if (num_degraded > 0) sample.set_stratum_degraded(std::move(degraded));
  return sample;
 });
}

}  // namespace cvopt
