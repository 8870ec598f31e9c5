#include "sched/credit_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace pas::sched {

CreditScheduler::CreditScheduler(CreditSchedulerConfig config) : cfg_(config) {
  if (cfg_.accounting_period.us() <= 0)
    throw std::invalid_argument("CreditScheduler: accounting period must be positive");
  if (cfg_.burst_periods <= 0.0)
    throw std::invalid_argument("CreditScheduler: burst_periods must be positive");
}

void CreditScheduler::recompute_refill(Entry& e) const {
  e.refill_us = static_cast<std::int64_t>(
      std::llround(e.cap_pct / 100.0 * static_cast<double>(cfg_.accounting_period.us())));
  e.burst_us = static_cast<std::int64_t>(std::llround(
      cfg_.burst_periods * e.cap_pct / 100.0 *
      static_cast<double>(cfg_.accounting_period.us())));
}

void CreditScheduler::rebuild_tiers() {
  tier_prios_.clear();
  for (const Entry& e : vms_) tier_prios_.push_back(e.priority);
  std::sort(tier_prios_.begin(), tier_prios_.end(), std::greater<>());
  tier_prios_.erase(std::unique(tier_prios_.begin(), tier_prios_.end()),
                    tier_prios_.end());
  under_per_tier_.assign(tier_prios_.size(), 0);
  null_per_tier_.assign(tier_prios_.size(), 0);
  for (Entry& e : vms_) {
    e.tier = static_cast<std::size_t>(
        std::lower_bound(tier_prios_.begin(), tier_prios_.end(), e.priority,
                         std::greater<>()) -
        tier_prios_.begin());
    count_in_tier(e);
  }
}

void CreditScheduler::count_in_tier(Entry& e) {
  e.counted_under = is_under(e);
  if (e.counted_under) ++under_per_tier_[e.tier];
  if (e.cap_pct <= 0.0) ++null_per_tier_[e.tier];
}

void CreditScheduler::update_under(Entry& e) {
  const bool under = is_under(e);
  if (under == e.counted_under) return;
  if (under)
    ++under_per_tier_[e.tier];
  else
    --under_per_tier_[e.tier];
  e.counted_under = under;
}

void CreditScheduler::add_vm(common::VmId id, const hv::VmConfig& config) {
  if (id != vms_.size())
    throw std::invalid_argument("CreditScheduler: VM ids must be dense");
  if (config.credit < 0.0)
    throw std::invalid_argument("CreditScheduler: negative credit");
  Entry e;
  e.cap_pct = config.credit;
  e.priority = config.priority;
  recompute_refill(e);
  // Start with one refill so a VM can run before the first accounting tick.
  e.balance_us = e.refill_us;
  const auto tier = std::lower_bound(tier_prios_.begin(), tier_prios_.end(), e.priority,
                                     std::greater<>());
  vms_.push_back(e);
  if (tier == tier_prios_.end() || *tier != e.priority) {
    rebuild_tiers();  // a new priority renumbers every tier
    return;
  }
  vms_.back().tier = static_cast<std::size_t>(tier - tier_prios_.begin());
  count_in_tier(vms_.back());
}

common::VmId CreditScheduler::pick(common::SimTime /*now*/,
                                   std::span<const common::VmId> runnable) {
  assert(!runnable.empty());
  assert(std::adjacent_find(runnable.begin(), runnable.end(), std::greater_equal<>()) ==
         runnable.end());  // ascending by id: the Scheduler::pick contract
  const std::size_t cursor = rr_cursor_ % vms_.size();  // one modulo per pick
  // Pass 1 (UNDER): highest-priority VM holding positive balance,
  // round-robin within a tier. Pass 2 (OVER): only null-credit VMs may
  // soak up slack, again highest priority first. The incrementally
  // maintained per-tier counts let each pass skip a search that cannot
  // succeed and stop at the first VM of the best tier that can.
  common::VmId best = nearest_eligible(runnable, cursor, under_per_tier_, is_under);
  if (best == common::kInvalidVm)
    best = nearest_eligible(runnable, cursor, null_per_tier_,
                            [](const Entry& e) { return e.cap_pct <= 0.0; });
  if (best != common::kInvalidVm) rr_cursor_ = best + 1;
  return best;
}

void CreditScheduler::charge(common::VmId vm, common::SimTime busy) {
  Entry& e = vms_.at(vm);
  e.balance_us -= busy.us();
  update_under(e);
}

void CreditScheduler::account(common::SimTime /*now*/) {
  for (auto& e : vms_) {
    if (e.cap_pct <= 0.0) {
      e.balance_us = 0;  // null credit: runs only in the OVER pass
    } else {
      e.balance_us = std::min(e.balance_us + e.refill_us, e.burst_us);
    }
    update_under(e);
  }
}

bool CreditScheduler::refill_settled() const {
  // account()'s exact per-entry assignment, phrased as a fixed-point test.
  // NOT `balance == burst`: import_credit is unclamped, so a migrated-in
  // hoard can sit above the burst limit — the next account() would pull it
  // down, which is an observable change.
  for (const Entry& e : vms_) {
    if (e.cap_pct <= 0.0) {
      if (e.balance_us != 0) return false;
    } else {
      if (std::min(e.balance_us + e.refill_us, e.burst_us) != e.balance_us) return false;
    }
  }
  return true;
}

void CreditScheduler::set_cap(common::VmId vm, common::Percent cap_pct) {
  if (cap_pct < 0.0) throw std::invalid_argument("CreditScheduler: negative cap");
  Entry& e = vms_.at(vm);
  if (e.cap_pct <= 0.0) --null_per_tier_[e.tier];
  e.cap_pct = cap_pct;
  if (e.cap_pct <= 0.0) ++null_per_tier_[e.tier];
  recompute_refill(e);
  // Clamp an existing hoard to the new burst limit so a cap *reduction*
  // (frequency went up) takes effect within one accounting period.
  e.balance_us = std::min(e.balance_us, e.burst_us);
  update_under(e);
}

common::Percent CreditScheduler::cap(common::VmId vm) const { return vms_.at(vm).cap_pct; }

common::SimTime CreditScheduler::export_credit(common::VmId vm) const {
  return common::usec(vms_.at(vm).balance_us);
}

void CreditScheduler::import_credit(common::VmId vm, common::SimTime balance) {
  Entry& e = vms_.at(vm);
  // The imported balance replaces whatever the (previously idle) slot
  // accrued; it is NOT clamped to the burst limit — a migrating VM must not
  // lose credit in flight.
  e.balance_us = balance.us();
  update_under(e);
}

common::SimTime CreditScheduler::balance(common::VmId vm) const {
  return common::usec(vms_.at(vm).balance_us);
}

}  // namespace pas::sched
