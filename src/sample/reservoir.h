// Without-replacement draws: the known-population ordinal draw every
// stratified sampler uses (Algorithm 1 of the paper draws each stratum's
// rows uniformly without replacement), and the Algorithm-R displacement
// step of the streaming builder, which does not know its population.
#ifndef CVOPT_SAMPLE_RESERVOIR_H_
#define CVOPT_SAMPLE_RESERVOIR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/rng.h"

namespace cvopt {

/// One Algorithm-R displacement step: the `seen`-th offered item (1-based)
/// against a full reservoir of `capacity` slots. Returns the slot the item
/// displaces, or `capacity` when the item is rejected. The streaming
/// builder's reservoirs route through this step; every draw whose
/// population is known up front uses DrawOrdinals instead.
inline size_t ReservoirVictim(uint64_t seen, size_t capacity, Rng* rng) {
  const uint64_t j = rng->Uniform(seen);
  return j < capacity ? static_cast<size_t>(j) : capacity;
}

/// Draws min(k, n) distinct ordinals of [0, n) uniformly without
/// replacement (every k-subset equally likely) and writes them in
/// ascending order to out[0 .. min(k, n)), returning min(k, n). Floyd's
/// algorithm over an n-bit membership bitmap: exactly k calls to
/// rng->Uniform when k < n; k >= n takes every ordinal and consumes no
/// draws. The result is a pure function of (rng state, n, k). `bitmap` is
/// scratch reused across calls: grown to at least ceil(n / 64) words, it
/// must be all zero on entry and is all zero again on return. n must be
/// below 2^32.
size_t DrawOrdinals(uint64_t n, uint64_t k, Rng* rng, uint32_t* out,
                    std::vector<uint64_t>* bitmap);

}  // namespace cvopt

#endif  // CVOPT_SAMPLE_RESERVOIR_H_
