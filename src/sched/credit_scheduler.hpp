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
  [[nodiscard]] bool work_conserving() const override { return false; }
  [[nodiscard]] bool refill_settled() const override;
  [[nodiscard]] common::SimTime export_credit(common::VmId vm) const override;
  void import_credit(common::VmId vm, common::SimTime balance) override;

  /// Current balance (diagnostic / tests).
  [[nodiscard]] common::SimTime balance(common::VmId vm) const;

 private:
  struct Entry {
    common::Percent cap_pct = 0.0;  // 0 = uncapped (null credit)
    int priority = 0;
    std::int64_t balance_us = 0;
    // Cached refill/burst amounts, recomputed when the cap changes, so the
    // per-tick accounting loop stays integer-only.
    std::int64_t refill_us = 0;
    std::int64_t burst_us = 0;
    std::size_t tier = 0;        // index into tier_prios_ (highest prio = 0)
    bool counted_under = false;  // mirrored into under_per_tier_
  };

  [[nodiscard]] static bool is_under(const Entry& e) {
    return e.cap_pct > 0.0 && e.balance_us > 0;
  }

  /// Recomputes the cached refill/burst amounts from the current cap.
  void recompute_refill(Entry& e) const;

  /// Recomputes the priority-tier table and per-tier counts (add_vm of a
  /// VM with a priority no earlier VM has).
  void rebuild_tiers();
  /// Adds `e` to its tier's under-credit and null-credit counts.
  void count_in_tier(Entry& e);
  /// Re-syncs `e`'s under-credit membership after a balance/cap change.
  void update_under(Entry& e);

  /// The one search shared by the UNDER and OVER passes: among the
  /// eligible VMs, the highest-priority one, ties broken by round-robin
  /// distance from `cursor` (already reduced modulo vm count).
  /// `per_tier[t]` counts tier t's eligible VMs, runnable or not. Because
  /// `runnable` ascends by id, the walk goes in round-robin order (ids at
  /// or after the cursor, then the ids before it), so the first eligible
  /// VM met in a tier is that tier's nearest; the walk stops once it meets
  /// one in the highest tier that has any eligible VM at all.
  template <typename Eligible>
  [[nodiscard]] common::VmId nearest_eligible(std::span<const common::VmId> runnable,
                                              std::size_t cursor,
                                              const std::vector<std::uint32_t>& per_tier,
                                              Eligible&& eligible) const {
    const auto top = static_cast<std::size_t>(
        std::find_if(per_tier.begin(), per_tier.end(), [](std::uint32_t c) { return c > 0; }) -
        per_tier.begin());
    if (top == per_tier.size()) return common::kInvalidVm;  // no eligible VM anywhere
    common::VmId best = common::kInvalidVm;
    std::size_t best_tier = per_tier.size();
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
  std::vector<int> tier_prios_;                 // distinct priorities, descending
  std::vector<std::uint32_t> under_per_tier_;   // VMs holding credit, per tier
  std::vector<std::uint32_t> null_per_tier_;    // null-credit VMs, per tier
  std::size_t rr_cursor_ = 0;  // rotates to break ties fairly
};

}  // namespace pas::sched
