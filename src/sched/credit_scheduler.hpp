// Fixed-credit scheduler: the Xen Credit scheduler with caps (§3.1).
//
// Each VM holds a credit balance in microseconds of CPU time. The balance
// refills every accounting period at cap% of the period and is clamped so an
// idle VM cannot hoard bursts. A VM with a positive balance is UNDER and
// eligible; a VM with a non-positive balance is OVER and — this is the
// *fixed* credit semantics — not scheduled at all, even if the CPU would
// otherwise idle. The single exception is the Xen "null credit" case: a VM
// configured with credit 0 has no guarantee and no limit, and may consume
// any slack left by capped VMs.
//
// Priorities: higher priority strictly preempts (the paper runs Dom0 at the
// highest priority with 10 % credit). Equal-priority UNDER VMs are served
// round-robin.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "hypervisor/scheduler.hpp"

namespace pas::sched {

struct CreditSchedulerConfig {
  /// Xen's credit accounting runs every 30 ms.
  common::SimTime accounting_period = common::msec(30);
  /// Maximum hoardable balance, in accounting periods' worth of refill.
  /// The half-period of slack above one refill matters: scheduling quanta
  /// do not divide a VM's per-period slice evenly, so an unclamped
  /// fractional leftover must survive the refill or the VM permanently
  /// loses it (a 70 % VM would converge to 66.7 % with a tight clamp).
  double burst_periods = 1.5;
};

class CreditScheduler final : public hv::Scheduler {
 public:
  explicit CreditScheduler(CreditSchedulerConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "credit"; }
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
  /// A rotation while every runnable VM sits in one priority tier: pick()
  /// then takes the first UNDER VM at or after the cursor, which moves
  /// just past it. Eligible = UNDER (a null-credit or over-cap VM in turn
  /// ends the run, or refuses it; pick() would pass it over).
  [[nodiscard]] std::size_t rotation_start(
      std::span<const common::VmId> runnable) const override;
  [[nodiscard]] bool rotation_eligible(common::VmId vm) const override {
    return is_under(vms_[vm]);
  }
  void take_turn(common::VmId vm, common::SimTime busy) override {
    charge(vm, busy);
    rr_cursor_ = vm + 1;
  }
  [[nodiscard]] common::SimTime export_credit(common::VmId vm) const override;
  void import_credit(common::VmId vm, common::SimTime balance) override;

  /// Current balance (diagnostic / tests).
  [[nodiscard]] common::SimTime balance(common::VmId vm) const;

 private:
  struct Entry {
    common::Percent cap_pct = 0.0;  // 0 = uncapped (null credit)
    int priority = 0;
    std::int64_t balance_us = 0;  // as of accounting tick `epoch`
    std::uint64_t epoch = 0;
    // Cached refill/burst amounts, recomputed when the cap changes, so the
    // balance fold stays integer-only.
    std::int64_t refill_us = 0;
    std::int64_t burst_us = 0;
    std::size_t tier = 0;  // index into tier_prios_ (highest prio = 0)
  };

  /// The balance with the k accounting ticks since its epoch folded in.
  /// One refill is f(b) = min(b + r, burst), r >= 0, so f^k(b) is
  /// min(b + k*r, burst) (a hoard imported above burst drops at once) and
  /// null credit reads 0. k*r, about cap/100 times the simulated us since
  /// the last sync, overflows int64 only after ~2900 years at a 10000 % cap.
  [[nodiscard]] std::int64_t balance_now(const Entry& e) const {
    const std::uint64_t k = epoch_ - e.epoch;
    if (k == 0) return e.balance_us;
    if (e.cap_pct <= 0.0) return 0;
    return std::min(e.balance_us + static_cast<std::int64_t>(k) * e.refill_us, e.burst_us);
  }
  /// Stores vm's folded balance at epoch_; every write syncs first.
  Entry& sync(common::VmId vm);

  [[nodiscard]] bool is_under(const Entry& e) const {
    return e.cap_pct > 0.0 && balance_now(e) > 0;
  }

  /// Recomputes the cached refill/burst amounts from the current cap.
  void recompute_refill(Entry& e) const;

  /// Recomputes the priority-tier table and the per-tier null-credit
  /// counts (add_vm of a VM with a priority no earlier VM has).
  void rebuild_tiers();

  /// The one search shared by the UNDER and OVER passes: among the
  /// eligible VMs, the highest-priority one, ties broken by round-robin
  /// distance from `cursor` (already reduced modulo vm count). Because
  /// `runnable` ascends by id, the walk goes in round-robin order (ids at
  /// or after the cursor, then the ids before it), so the first eligible
  /// VM met in a tier is that tier's nearest; the walk stops once it meets
  /// one in tier `top`, which no eligible VM may precede.
  template <typename Eligible>
  [[nodiscard]] common::VmId nearest_eligible(std::span<const common::VmId> runnable,
                                              std::size_t cursor, std::size_t top,
                                              Eligible&& eligible) const {
    common::VmId best = common::kInvalidVm;
    std::size_t best_tier = tier_prios_.size();
    const auto visit = [&](common::VmId id) {
      const Entry& e = vms_[id];
      if (e.tier < best_tier && eligible(e)) {
        best = id;
        best_tier = e.tier;
      }
      return best_tier == top;
    };
    const auto mid = std::lower_bound(runnable.begin(), runnable.end(), cursor);
    for (auto it = mid; it != runnable.end(); ++it)
      if (visit(*it)) return best;
    for (auto it = runnable.begin(); it != mid; ++it)
      if (visit(*it)) return best;
    return best;
  }

  CreditSchedulerConfig cfg_;
  std::vector<Entry> vms_;
  std::vector<int> tier_prios_;               // distinct priorities, descending
  std::vector<std::uint32_t> null_per_tier_;  // null-credit VMs, per tier
  std::uint64_t epoch_ = 0;    // account() calls so far
  std::size_t rr_cursor_ = 0;  // rotates to break ties fairly
};

}  // namespace pas::sched
