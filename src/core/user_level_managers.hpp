// The two user-level designs of §4.1, kept as first-class citizens so the
// implementation-choice ablation (bench_ablation_impl_choice) can compare
// them against the in-hypervisor PAS.
//
//  Design 1 — UserLevelCreditManager ("user level - credit management"):
//    the stock Ondemand governor keeps managing DVFS; a user-level daemon
//    periodically *observes* the current frequency and rewrites VM credits
//    to compensate. Simple, but it chases the governor: after every
//    frequency change the credits are wrong until the daemon's next pass,
//    and the governor in turn reacts to load the stale credits produced.
//
//  Design 2 — UserLevelDvfsCreditManager ("user level - credit and DVFS
//    management"): the daemon owns both decisions (the governor is set to
//    userspace/none). Consistent, but still slow: daemon periods are tens
//    of monitor windows, not scheduler ticks, and each pass models the
//    syscall/hypercall round-trips of a real userspace tool (xm sched-*,
//    cpufreq-set) as actuation lag.
#pragma once

#include <vector>

#include "core/compensation.hpp"
#include "hypervisor/controller.hpp"

namespace pas::core {

/// Daemon wake-up period of both designs. Real monitoring daemons poll on
/// the order of seconds; the paper calls the approach "quite intrusive ...
/// and it may lack reactivity".
inline constexpr common::SimTime kUserLevelPeriod = common::seconds(2);

class UserLevelCreditManager final : public hv::Controller {
 public:
  [[nodiscard]] std::string_view name() const override { return "userlevel-credit"; }
  [[nodiscard]] common::SimTime period() const override { return kUserLevelPeriod; }
  void attach(const hv::HostView& view) override;
  /// Reads the frequency the governor chose and rewrites credits (eq. 4).
  void on_tick(common::SimTime now, const hv::HostView& view) override;

 private:
  std::vector<common::Percent> initial_credits_;
};

class UserLevelDvfsCreditManager final : public hv::Controller {
 public:
  [[nodiscard]] std::string_view name() const override { return "userlevel-dvfs-credit"; }
  [[nodiscard]] common::SimTime period() const override { return kUserLevelPeriod; }
  void attach(const hv::HostView& view) override;
  /// Computes the fitting frequency from the observed absolute load, then
  /// sets both frequency and credits.
  void on_tick(common::SimTime now, const hv::HostView& view) override;

 private:
  std::vector<common::Percent> initial_credits_;
};

}  // namespace pas::core
