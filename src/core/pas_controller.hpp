// PAS — the Power-Aware Scheduler (§4): the paper's contribution.
//
// In-hypervisor design (the third of §4.1, the one the paper evaluates):
// at every scheduler tick,
//   1. read the smoothed global load and derive the absolute load;
//   2. computeNewFreq (Listing 1.1): lowest P-state that absorbs it;
//   3. updateDvfsAndCredits (Listing 1.2): recompute every VM's credit as
//      C_init / (ratio * cf) and apply both credits and frequency.
//
// Effects (the paper's design principles, end of §3.2):
//   * a VM's configured credit is a share of the processor at MAX frequency;
//   * credits rise when frequency falls (and vice versa) so the delivered
//     computing capacity is invariant;
//   * no VM ever receives more computing capacity than it bought, so the
//     host can keep the frequency low when it is genuinely underloaded.
#pragma once

#include <string>
#include <vector>

#include "core/compensation.hpp"
#include "hypervisor/controller.hpp"

namespace pas::core {

class PasController final : public hv::Controller {
 public:
  /// Tick period. The paper hooks the Xen scheduler tick; this is the
  /// credit scheduler's 30 ms accounting period.
  static constexpr common::SimTime kPeriod = common::msec(30);

  [[nodiscard]] std::string_view name() const override { return "pas"; }
  [[nodiscard]] common::SimTime period() const override { return kPeriod; }
  void attach(const hv::HostView& view) override;
  void on_tick(common::SimTime now, const hv::HostView& view) override;

  /// Number of ticks during which the credits were rescaled.
  [[nodiscard]] std::uint64_t tick_count() const { return ticks_; }

 private:
  std::vector<common::Percent> initial_credits_;
  std::uint64_t ticks_ = 0;
  int down_streak_ = 0;
};

}  // namespace pas::core
