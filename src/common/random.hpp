// Deterministic pseudo-random number generation.
//
// Every stochastic element of the simulator (Poisson request arrivals,
// service-time jitter, calibration measurement noise) draws from an Rng
// seeded explicitly, so every experiment is exactly reproducible and every
// test is deterministic. We use our own xoshiro256** rather than <random>
// engines because libstdc++'s distributions are not cross-platform
// deterministic.
#pragma once

#include <cstdint>
#include <string_view>

namespace pas::common {

/// xoshiro256** PRNG with explicit seeding (via splitmix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Exponentially distributed value with the given mean (> 0). Used for
  /// Poisson inter-arrival times in the open-loop load generator.
  double exponential(double mean);

  /// Standard normal via Box–Muller (no state caching; two uniforms per
  /// draw — simplicity over speed, this is not on a hot path).
  double normal(double mean, double stddev);

  /// Bernoulli trial.
  bool chance(double p);

 private:
  std::uint64_t s_[4];
};

/// Derives a named independent stream from (seed, tag) without touching any
/// other generator: substream(s, "chaos") and substream(s, "fleet") never
/// share state, and drawing from one cannot perturb the other or Rng{s}
/// itself. This is the prefix-preservation tool the scenario generators
/// rely on — a new feature draws from its own named stream, so every
/// historical (seed → scenario) mapping stays byte-identical. The
/// derivation (splitmix64 of the seed, xored with an FNV-1a hash of the
/// tag) is fixed: changing it would silently rename every seeded
/// experiment, and random_test pins golden values against that.
[[nodiscard]] Rng substream(std::uint64_t seed, std::string_view tag);

}  // namespace pas::common
