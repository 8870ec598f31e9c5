// Energy accounting for the ablation benches (the provider-side metric the
// paper's governors are trying to optimize).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/units.hpp"
#include "cpu/power_model.hpp"

namespace pas::metrics {

/// The bits of `n` sequential `x += c`, in O(binades crossed) instead of
/// O(n). While the accumulator stays in one binade [2^e, 2^(e+1)) the
/// spacing u of doubles is fixed and x is a multiple of it, so every add
/// rounds c to the same multiple r of u and the run lands exactly on
/// x + n·r. An add that may leave the binade, and an exact rounding tie
/// (whose result depends on x's last bit), take one honest add instead.
/// Zero, subnormal, negative or non-finite operands take honest adds only.
[[nodiscard]] inline double repeated_sum(double x, double c, std::uint64_t n) {
  constexpr std::uint64_t kImplicit = std::uint64_t{1} << 52;
  while (n > 0) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const auto biased = static_cast<int>(bits >> 52);  // > 2047 when x < 0
    // x a positive normal and u = 2^(biased - 1075) a normal double.
    if (c >= 0.0 && biased >= 53 && biased < 2047) {
      // x = M·u with M in [2^52, 2^53); c/u is an exact power-of-two scale.
      const std::uint64_t mantissa = (bits & (kImplicit - 1)) | kImplicit;
      const double t = c * std::bit_cast<double>(static_cast<std::uint64_t>(2098 - biased) << 52);
      if (t < 0x1p53) {
        const auto whole = static_cast<std::uint64_t>(t);
        const double frac = t - static_cast<double>(whole);  // exact
        if (frac != 0.5) {
          const std::uint64_t r = whole + (frac > 0.5 ? 1 : 0);
          // Steps whose result stays at or below the binade's last double
          // keep the exact sum below 2^(e+1): each adds exactly r·u.
          const std::uint64_t room = (2 * kImplicit - 1) - mantissa;
          const std::uint64_t m = r == 0 ? n : std::min(n, room / r);
          if (m > 0) {
            x = std::bit_cast<double>((bits & ~(kImplicit - 1)) +
                                      ((mantissa + m * r) - kImplicit));
            n -= m;
            continue;
          }
        }
      }
    }
    x += c;
    --n;
  }
  return x;
}

class EnergyMeter {
 public:
  explicit EnergyMeter(cpu::PowerModel model) : model_(model) {}

  /// Accounts an interval of length `dt` spent at frequency ratio `ratio`
  /// with the CPU busy for `busy` of it.
  ///
  /// The two divisions are elided bit-exactly on the hot shapes: an idle
  /// interval's utilization is +0.0 with or without the divide, and
  /// dt.sec() is memoized on the last dt — busy quanta repeat the same
  /// width, so both memos hit almost always while the accumulated doubles
  /// stay byte-identical.
  void record(common::SimTime dt, double ratio, common::SimTime busy) {
    if (dt.us() <= 0) return;
    if (dt.us() != sec_us_) {
      sec_us_ = dt.us();
      sec_cache_ = dt.sec();
    }
    joules_ += chunk_watts(dt, ratio, busy) * sec_cache_;
    elapsed_ += dt;
  }

  /// Accounts `n` back-to-back intervals of length `dt` at `ratio`, each
  /// busy for `busy`, with the same bits as `n` calls to
  /// record(dt, ratio, busy) (see repeated_sum). A bulk idle skip records
  /// each run of equal-width idle chunks here in one step, and the host's
  /// rotation run its run of full busy quanta.
  void record_chunks(common::SimTime dt, double ratio, common::SimTime busy, std::uint64_t n) {
    if (dt.us() <= 0 || n == 0) return;
    joules_ = repeated_sum(joules_, chunk_watts(dt, ratio, busy) * dt.sec(), n);
    elapsed_ += dt * static_cast<std::int64_t>(n);
  }

  [[nodiscard]] double joules() const { return joules_; }
  [[nodiscard]] double watt_hours() const { return joules_ / 3600.0; }
  [[nodiscard]] common::SimTime elapsed() const { return elapsed_; }
  /// Mean power over everything recorded so far.
  [[nodiscard]] double average_watts() const {
    return elapsed_.sec() > 0.0 ? joules_ / elapsed_.sec() : 0.0;
  }
  [[nodiscard]] const cpu::PowerModel& model() const { return model_; }

 private:
  [[nodiscard]] double chunk_watts(common::SimTime dt, double ratio, common::SimTime busy) const {
    const double util =
        busy.us() == 0
            ? 0.0
            : static_cast<double>(busy.us()) / static_cast<double>(dt.us());
    return model_.power_watts(ratio, util);
  }

  cpu::PowerModel model_;
  double joules_ = 0.0;
  common::SimTime elapsed_{};
  /// dt.sec() memo for record(); keyed on the raw microsecond width.
  std::int64_t sec_us_ = -1;
  double sec_cache_ = 0.0;
};

}  // namespace pas::metrics
