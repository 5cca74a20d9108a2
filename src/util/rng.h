// Deterministic, fast pseudo-random number generation (xoshiro256**).
// All sampling in the library goes through Rng so experiments are exactly
// reproducible from a seed.
#ifndef CVOPT_UTIL_RNG_H_
#define CVOPT_UTIL_RNG_H_

#include <cstdint>

namespace cvopt {

/// xoshiro256** PRNG (Blackman & Vigna). Seeded via SplitMix64 so any 64-bit
/// seed produces a well-mixed state.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t Next64();

  /// Uniform integer in [0, bound). bound must be > 0. Unbiased (Lemire).
  uint64_t Uniform(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Standard normal variate (Box–Muller, cached spare).
  double NextGaussian();

  /// Bernoulli trial with success probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Derives an independent child generator (for parallel streams). Consumes
  /// one draw from this generator, so successive Split() calls differ.
  Rng Split();

  /// Splittable per-stratum stream derivation: a generator that is a pure
  /// function of (seed, stratum_id) — no shared state, no draw from any
  /// other stream. For a fixed seed, distinct stratum ids map injectively to
  /// distinct, SplitMix64-finalized child seeds, so a stratum's draws (the
  /// stratified draw's ordinals) depend on no other stratum's and can run
  /// in any order or thread interleaving. This is the
  /// reproducibility primitive behind the sampler determinism contract:
  /// seed -> sample is a function, independent of thread count.
  static Rng ForStratum(uint64_t seed, uint64_t stratum_id);

  // UniformRandomBitGenerator interface so <random> distributions work too.
  using result_type = uint64_t;
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ULL; }
  uint64_t operator()() { return Next64(); }

 private:
  uint64_t s_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace cvopt

#endif  // CVOPT_UTIL_RNG_H_
