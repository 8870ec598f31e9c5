// Credit2-style scheduler: weighted proportional share with optional caps.
//
// The paper notes Xen's Credit2 as "an updated version of Credit scheduler,
// with the intention of solving some of its weaknesses" (§3.1, beta at the
// time). Its essence is proportional *share* scheduling: each VM owns a
// weight, runnable VMs receive CPU in proportion to their weights, and —
// unlike the paper's fix-credit configuration — unused share flows to whoever
// is runnable. A per-VM hard cap can be layered on top (as in Xen), which is
// the hook the PAS controller uses.
//
// Implementation: virtual-runtime (stride) scheduling. Each VM's vruntime
// advances by busy_time / weight; pick() selects the runnable VM with the
// smallest vruntime. A sleeping VM's vruntime is clamped forward on wakeup
// so it cannot hoard an arbitrarily large burst. Caps reuse the credit
// balance mechanism of the fixed scheduler.
//
// In the paper's taxonomy this sits between the two baselines: with no caps
// it behaves like a variable-credit scheduler (weights = credits); with
// caps equal to the credits it enforces them like the fixed scheduler while
// distributing *within-cap* contention by weight instead of round-robin.
#pragma once

#include <cstdint>
#include <vector>

#include "hypervisor/scheduler.hpp"

namespace pas::sched {

struct Credit2SchedulerConfig {
  common::SimTime accounting_period = common::msec(30);
  /// Enforce VmConfig::credit as a hard cap (Xen's `xl sched-credit2 --cap`
  /// analogue). Without caps the scheduler is fully work-conserving.
  bool enforce_caps = true;
};

class Credit2Scheduler final : public hv::Scheduler {
 public:
  explicit Credit2Scheduler(Credit2SchedulerConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "credit2"; }
  void add_vm(common::VmId id, const hv::VmConfig& config) override;
  [[nodiscard]] common::VmId pick(common::SimTime now,
                                  std::span<const common::VmId> runnable) override;
  void charge(common::VmId vm, common::SimTime busy) override;
  void account(common::SimTime now) override;
  [[nodiscard]] common::SimTime accounting_period() const override {
    return cfg_.accounting_period;
  }
  void set_cap(common::VmId vm, common::Percent cap_pct) override;
  [[nodiscard]] common::Percent cap(common::VmId vm) const override;
  [[nodiscard]] bool refill_settled() const override;
  [[nodiscard]] common::SimTime export_credit(common::VmId vm) const override {
    return common::usec(vms_.at(vm).balance_us);
  }
  void import_credit(common::VmId vm, common::SimTime balance) override {
    vms_.at(vm).balance_us = balance.us();
  }

  /// Weight of a VM (== its configured credit; diagnostics/tests).
  [[nodiscard]] double weight(common::VmId vm) const;
  /// Current vruntime in weighted microseconds (tests).
  [[nodiscard]] double vruntime(common::VmId vm) const;

 private:
  struct Entry {
    double weight = 1.0;         // proportional share
    common::Percent cap_pct = 0; // hard cap; 0 = uncapped
    double vruntime = 0.0;       // weighted virtual time, us / weight
    std::int64_t balance_us = 0; // cap budget (when enforce_caps)
    bool was_runnable = false;   // for wakeup clamping
  };

  [[nodiscard]] std::int64_t refill_us(const Entry& e) const;
  [[nodiscard]] bool cap_ok(const Entry& e) const;

  Credit2SchedulerConfig cfg_;
  std::vector<Entry> vms_;
  // Presence stamps for pick()'s sleep tracking: VMs whose stamp is not the
  // current epoch are absent from the runnable set. O(vms + runnable) per
  // pick instead of one linear search per VM.
  std::vector<std::uint64_t> runnable_stamp_;
  std::uint64_t stamp_epoch_ = 0;
};

}  // namespace pas::sched
