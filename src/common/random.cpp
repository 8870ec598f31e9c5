#include "common/random.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace pas::common {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

std::uint64_t Rng::next_below(std::uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % n;
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  double u = next_double();
  // Avoid log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double u1 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = next_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

bool Rng::chance(double p) { return next_double() < p; }

Rng substream(std::uint64_t seed, std::string_view tag) {
  // FNV-1a 64 over the tag bytes: simple, cross-platform deterministic,
  // and good enough dispersion once pushed through the seeder's splitmix64
  // expansion. The seed is mixed through one splitmix64 step first so
  // (seed, tag) and (seed', tag') collide only if the hash does.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  std::uint64_t sm = seed;
  return Rng{splitmix64(sm) ^ h};
}

}  // namespace pas::common
