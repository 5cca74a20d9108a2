#include "src/sample/sampler.h"

#include <algorithm>

#include "src/exec/query_context.h"
#include "src/sample/reservoir.h"
#include "src/util/failpoint.h"
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
  // Rng::ForStratum(master, c) stream, so its ordinals depend only on
  // (master, c, n_c, s_c), and nothing below depends on the thread count.
  const uint64_t master = rng->Next64();

  const std::vector<uint64_t>& pop = strat->sizes();
  // Per-stratum draw sizes: an allocation at or above the stratum
  // population takes every row (take-all — no random draws there), so
  // s_c = min(sizes[c], n_c) is known before drawing and each stratum
  // writes a disjoint output slab. Strata served exactly (s_c == n_c > 0)
  // are recorded on the sample, so reports can tell exhaustive strata from
  // sampled ones.
  std::vector<size_t> out_off(r + 1, 0);  // output offsets (draw sizes)
  std::vector<uint8_t> exhaustive(r, 0);
  uint64_t max_pop = 0;
  for (size_t c = 0; c < r; ++c) {
    const uint64_t s_c = std::min<uint64_t>(sizes[c], pop[c]);
    out_off[c + 1] = out_off[c] + static_cast<size_t>(s_c);
    exhaustive[c] = pop[c] > 0 && s_c == pop[c] ? 1 : 0;
    max_pop = std::max(max_pop, pop[c]);
  }

  // Per-stratum state of the row pass: rows of the stratum seen so far,
  // the ordinal wanted next (kDone once every wanted row is matched), and
  // the slab slots of that ordinal and of the slab's end.
  struct Cursor {
    uint32_t seen;
    uint32_t want;
    uint32_t at;
    uint32_t end;
  };
  constexpr uint32_t kDone = ~uint32_t{0};
  MemoryReservation draw_res = ReserveMemoryOrThrow(
      out_off[r] * (sizeof(uint32_t) + sizeof(double)) +
          r * sizeof(Cursor) + (max_pop + 63) / 64 * sizeof(uint64_t),
      "stratified sample rows and weights");
  std::vector<uint32_t> rows(out_off[r]);
  std::vector<double> weights(out_off[r]);
  uint32_t* rowp = rows.data();

  // Stratum c's s_c ascending ordinals in [0, n_c), drawn with exactly s_c
  // draws on its own stream, wait in its output slab for the row pass.
  std::vector<Cursor> cursors(r);
  std::vector<uint64_t> bitmap;
  for (size_t c = 0; c < r; ++c) {
    const uint32_t lo = static_cast<uint32_t>(out_off[c]);
    const uint32_t hi = static_cast<uint32_t>(out_off[c + 1]);
    cursors[c] = Cursor{0, kDone, lo, hi};
    if (lo == hi) continue;  // allocation 0 / empty stratum: no draws
    Rng stream = Rng::ForStratum(master, c);
    DrawOrdinals(pop[c], hi - lo, &stream, rowp + lo, &bitmap);
    cursors[c].want = rowp[lo];
    std::fill(weights.begin() + lo, weights.begin() + hi,
              static_cast<double>(pop[c]) / static_cast<double>(hi - lo));
  }

  // One pass over the rows replaces each ordinal with the row holding it:
  // the want-th row of stratum c in table order. Governance checks every
  // kCheckEvery rows. Under allow_partial a firing check ends the pass:
  // strata whose wanted rows are all matched keep them, every other drawn
  // stratum is flagged and dropped below.
  const QueryContext* qctx = CurrentQueryContext();
  const bool allow_partial = qctx != nullptr && qctx->allow_partial();
  const std::vector<uint32_t>& row_strata = strat->row_strata();
  const uint32_t* rs = row_strata.data();
  const size_t n = row_strata.size();
  constexpr size_t kCheckEvery = 1 << 16;
  for (size_t lo = 0; lo < n; lo += kCheckEvery) {
    Status st = CheckQueryAborted();
    if (st.ok()) st = CVOPT_FAILPOINT_STATUS("sample.draw");
    if (!st.ok()) {
      if (!allow_partial) throw QueryAbortedError(std::move(st));
      break;
    }
    const size_t hi = std::min(n, lo + kCheckEvery);
    for (size_t row = lo; row < hi; ++row) {
      Cursor& cur = cursors[rs[row]];
      if (cur.seen++ != cur.want) continue;
      rowp[cur.at++] = static_cast<uint32_t>(row);
      cur.want = cur.at < cur.end ? rowp[cur.at] : kDone;
    }
  }
  // A full pass matches every ordinal, so a stratum still wanting a row
  // was cut off.
  std::vector<uint8_t> degraded(r);
  size_t num_degraded = 0;
  for (size_t c = 0; c < r; ++c) {
    degraded[c] = cursors[c].want != kDone;
    num_degraded += degraded[c];
  }
  if (num_degraded > 0) {
    // Compact away the flagged strata's slabs, which still hold ordinals
    // the pass did not reach, so the sample holds only drawn rows; flags
    // keep stratum ids.
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
