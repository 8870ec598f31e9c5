// SEDF: Simple Earliest Deadline First — Xen's variable-credit scheduler.
//
// Each VM is configured with a triplet (s, p, b): it is guaranteed slice s
// of CPU in every period of length p, and if b is set it is additionally
// eligible for *extra time* — slack the other VMs did not use (§3.1). The
// guaranteed portion is scheduled EDF (earliest current-period deadline
// first); extra time is handed out round-robin among eligible VMs.
//
// The slice is derived from the VM's credit (s = credit% of p), making the
// credit a guaranteed *minimum* rather than a cap — the work-conserving
// behaviour the paper's Figs. 6–8 exercise.
//
// `extra_work_efficiency` models the overhead of borrowed slices: an
// extra-time grant occupies the CPU for its full wall time (so the host
// looks busy and DVFS cannot scale down — exactly the paper's §3.2
// scenario 2) but only this fraction of it becomes useful guest work.
// 1.0 is ideal SEDF (the figures); the platform catalog uses calibrated
// values < 1 to land near Table 2's measured variable-credit times.
#pragma once

#include <cstdint>
#include <vector>

#include "hypervisor/scheduler.hpp"

namespace pas::sched {

struct SedfSchedulerConfig {
  /// Default period p when the VmConfig does not override it.
  common::SimTime default_period = common::msec(100);
  /// Accounting tick (diagnostics only; SEDF refills per-VM periods lazily).
  common::SimTime accounting_period = common::msec(30);
  /// Useful-work fraction of extra-time grants, in (0,1].
  double extra_work_efficiency = 1.0;
};

class SedfScheduler final : public hv::Scheduler {
 public:
  explicit SedfScheduler(SedfSchedulerConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "sedf"; }
  void add_vm(common::VmId id, const hv::VmConfig& config) override;
  [[nodiscard]] common::VmId pick(common::SimTime now,
                                  std::span<const common::VmId> runnable) override;
  void charge(common::VmId vm, common::SimTime busy) override;
  void account(common::SimTime now) override;
  [[nodiscard]] common::SimTime accounting_period() const override {
    return cfg_.accounting_period;
  }
  /// Re-derives the slice from the new cap (s = cap% of p). PAS-style
  /// compensation composes with SEDF too, though the paper applies it to
  /// the credit scheduler.
  void set_cap(common::VmId vm, common::Percent cap_pct) override;
  [[nodiscard]] common::Percent cap(common::VmId vm) const override;
  /// Period refill happens lazily in pick(), so a rejected set becomes
  /// eligible again when any member's period rolls over — with bare time.
  [[nodiscard]] bool rejection_is_stable() const override { return false; }
  [[nodiscard]] double work_efficiency(common::VmId vm) const override;

  /// Remaining guaranteed slice in the VM's current period (tests).
  [[nodiscard]] common::SimTime remaining_slice(common::VmId vm) const;
  /// Total extra (beyond-guarantee) time granted so far (tests/diagnostics).
  [[nodiscard]] common::SimTime extra_time_granted() const {
    return common::usec(extra_granted_us_);
  }

 private:
  struct Entry {
    common::Percent cap_pct = 0.0;
    std::int64_t period_us = 0;
    std::int64_t slice_us = 0;
    bool extra = true;
    // Current period state.
    std::int64_t deadline_us = 0;  // end of current period
    std::int64_t remain_us = 0;    // guaranteed time left in this period
    // Set by pick() so charge()/work_efficiency() know whether the run is
    // guaranteed slice or extra time.
    bool last_pick_was_extra = false;
  };

  void refresh_period(Entry& e, std::int64_t now_us) const;

  SedfSchedulerConfig cfg_;
  std::vector<Entry> vms_;
  std::size_t rr_cursor_ = 0;
  std::int64_t extra_granted_us_ = 0;
};

}  // namespace pas::sched
