// cpufreq subsystem: the kernel-style interface between frequency *policy*
// (governors, the PAS controller) and the frequency *mechanism* (CpuModel).
//
// Mirrors the Linux/Xen cpufreq layer the paper builds on (§2.2): policies
// request a target state; the subsystem applies it, enforces an optional
// floor (platform power policies — see platform/) and counts transitions.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "cpu/cpu_model.hpp"

namespace pas::cpu {

class Cpufreq {
 public:
  explicit Cpufreq(CpuModel& cpu);

  [[nodiscard]] const CpuModel& cpu() const { return cpu_; }
  [[nodiscard]] std::size_t current_index() const { return cpu_.current_index(); }
  [[nodiscard]] common::Mhz current_freq() const { return cpu_.current_freq(); }
  [[nodiscard]] const FrequencyLadder& ladder() const { return cpu_.ladder(); }

  /// Requests a P-state. The request is clamped to [floor, max]; a
  /// request equal to the current state is a no-op (not counted as a
  /// transition). Returns the state actually applied.
  std::size_t request(std::size_t index);

  /// Platform power-policy bound (e.g. ESXi's "balanced" policy never
  /// descends below a mid P-state; see platform/catalog).
  void set_floor(std::size_t index);
  [[nodiscard]] std::size_t floor() const { return floor_; }

  [[nodiscard]] std::uint64_t transition_count() const { return transitions_; }

 private:
  CpuModel& cpu_;
  std::size_t floor_ = 0;
  std::uint64_t transitions_ = 0;
};

}  // namespace pas::cpu
