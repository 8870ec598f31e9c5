// Shared reporting for the per-tier identity comparators
// (hv::first_divergence, cluster::first_divergence, fed::first_divergence).
// Each walks its tier's observables in a fixed order and returns a message
// naming the first one that differs — "<where>: <a> vs <b>" — or nullopt
// when the two runs are identical. Messages are only built on a mismatch.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <type_traits>

#include "common/units.hpp"

namespace pas::common {

/// Energy is the one observable compared with a tolerance. The event-driven
/// fast path sums bulk-skip energy chunks in a different order than the
/// slow-stepped loop, so slow vs fast totals can differ in the low bits.
/// Every other observable must match exactly.
inline constexpr double kEnergyRelTolerance = 1e-9;

[[nodiscard]] inline bool energy_matches(double a, double b) {
  return std::abs(a - b) <= kEnergyRelTolerance * std::max(std::abs(a), std::abs(b));
}

namespace detail {

inline std::string show(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);  // round-trip exact
  return buf;
}
inline std::string show(SimTime t) { return std::to_string(t.us()) + "us"; }
inline std::string show(Work w) { return show(w.mfus()) + "mfus"; }
inline std::string show(bool v) { return v ? "true" : "false"; }
template <class T>
  requires std::is_integral_v<T> || std::is_enum_v<T>
std::string show(T v) {
  return std::to_string(static_cast<long long>(v));
}

}  // namespace detail

/// Compares named fields in order and keeps the first mismatch as
/// "<name>: <a> vs <b>":
///   FieldDiff{}.field("vm", a.vm, b.vm).field("to", a.to, b.to).first()
class FieldDiff {
 public:
  template <class T>
  FieldDiff& field(const char* name, const T& a, const T& b) {
    if (!first_ && !(a == b)) note(name, a, b);
    return *this;
  }
  /// Energy: equal within kEnergyRelTolerance.
  FieldDiff& energy(const char* name, double a, double b) {
    if (!first_ && !energy_matches(a, b)) note(name, a, b);
    return *this;
  }
  [[nodiscard]] std::optional<std::string> first() const { return first_; }

 private:
  template <class T>
  void note(const char* name, const T& a, const T& b) {
    first_ = std::string{name} + ": " + detail::show(a) + " vs " + detail::show(b);
  }

  std::optional<std::string> first_;
};

}  // namespace pas::common
