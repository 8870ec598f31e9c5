#include "sched/credit2_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace pas::sched {

Credit2Scheduler::Credit2Scheduler(Credit2SchedulerConfig config) : cfg_(config) {
  if (cfg_.accounting_period.us() <= 0)
    throw std::invalid_argument("Credit2Scheduler: accounting period must be positive");
}

std::int64_t Credit2Scheduler::refill_us(const Entry& e) const {
  return static_cast<std::int64_t>(
      std::llround(e.cap_pct / 100.0 * static_cast<double>(cfg_.accounting_period.us())));
}

bool Credit2Scheduler::cap_ok(const Entry& e) const {
  if (!cfg_.enforce_caps || e.cap_pct <= 0.0) return true;
  return e.balance_us > 0;
}

void Credit2Scheduler::add_vm(common::VmId id, const hv::VmConfig& config) {
  if (id != vms_.size()) throw std::invalid_argument("Credit2Scheduler: VM ids must be dense");
  Entry e;
  // Weight == configured credit; a zero-credit VM gets a token weight so it
  // can still consume slack (the null-credit semantics).
  e.weight = config.credit > 0.0 ? config.credit : 1.0;
  e.cap_pct = config.credit;
  e.balance_us = refill_us(e);
  vms_.push_back(e);
  runnable_stamp_.push_back(0);
}

common::VmId Credit2Scheduler::pick(common::SimTime /*now*/,
                                    std::span<const common::VmId> runnable) {
  assert(!runnable.empty());
  // Sleep tracking: VMs absent from the runnable set lose their runnable
  // mark, so their next appearance is a wakeup and gets clamped. Presence
  // is marked with an epoch stamp to avoid a linear search per VM.
  ++stamp_epoch_;
  for (const common::VmId id : runnable) runnable_stamp_.at(id) = stamp_epoch_;
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    if (runnable_stamp_[i] != stamp_epoch_) vms_[i].was_runnable = false;
  }
  // Wakeup clamp: a VM that just became runnable must not replay idle time.
  // Its vruntime is raised to at least
  // (min runnable vruntime - kBurstAllowance/weight).
  constexpr common::SimTime kBurstAllowance = common::msec(30);
  double min_vrt = 0.0;
  bool have_min = false;
  for (const common::VmId id : runnable) {
    const Entry& e = vms_.at(id);
    if (e.was_runnable) {
      if (!have_min || e.vruntime < min_vrt) {
        min_vrt = e.vruntime;
        have_min = true;
      }
    }
  }
  for (const common::VmId id : runnable) {
    Entry& e = vms_.at(id);
    if (!e.was_runnable) {
      if (have_min) {
        const double allowance = static_cast<double>(kBurstAllowance.us()) / e.weight;
        e.vruntime = std::max(e.vruntime, min_vrt - allowance);
      }
      e.was_runnable = true;
    }
  }

  common::VmId best = common::kInvalidVm;
  double best_vrt = 0.0;
  for (const common::VmId id : runnable) {
    const Entry& e = vms_.at(id);
    if (!cap_ok(e)) continue;
    if (best == common::kInvalidVm || e.vruntime < best_vrt) {
      best = id;
      best_vrt = e.vruntime;
    }
  }
  return best;
}

void Credit2Scheduler::charge(common::VmId vm, common::SimTime busy) {
  Entry& e = vms_.at(vm);
  e.vruntime += static_cast<double>(busy.us()) / e.weight;
  e.balance_us -= busy.us();
}

void Credit2Scheduler::account(common::SimTime /*now*/) {
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    Entry& e = vms_[i];
    // Same fractional-leftover rule as the credit scheduler: 1.5 periods.
    const std::int64_t burst =
        static_cast<std::int64_t>(std::llround(1.5 * static_cast<double>(refill_us(e))));
    e.balance_us = std::min(e.balance_us + refill_us(e), burst);
  }
}

bool Credit2Scheduler::refill_settled() const {
  // Fixed point of account()'s per-entry assignment (unclamped imports can
  // sit above the burst limit, so test the assignment, not balance==burst).
  // vruntime/was_runnable are pick()/charge() state and never move inside
  // account(), so they don't enter the predicate.
  for (const Entry& e : vms_) {
    const std::int64_t burst =
        static_cast<std::int64_t>(std::llround(1.5 * static_cast<double>(refill_us(e))));
    if (std::min(e.balance_us + refill_us(e), burst) != e.balance_us) return false;
  }
  return true;
}

void Credit2Scheduler::set_cap(common::VmId vm, common::Percent cap_pct) {
  if (cap_pct < 0.0) throw std::invalid_argument("Credit2Scheduler: negative cap");
  Entry& e = vms_.at(vm);
  e.cap_pct = cap_pct;
  const std::int64_t burst =
      static_cast<std::int64_t>(std::llround(1.5 * static_cast<double>(refill_us(e))));
  e.balance_us = std::min(e.balance_us, burst);
}

common::Percent Credit2Scheduler::cap(common::VmId vm) const { return vms_.at(vm).cap_pct; }

double Credit2Scheduler::weight(common::VmId vm) const { return vms_.at(vm).weight; }

double Credit2Scheduler::vruntime(common::VmId vm) const { return vms_.at(vm).vruntime; }

}  // namespace pas::sched
