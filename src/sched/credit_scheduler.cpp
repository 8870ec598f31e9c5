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
  null_per_tier_.assign(tier_prios_.size(), 0);
  for (Entry& e : vms_) {
    e.tier = static_cast<std::size_t>(
        std::lower_bound(tier_prios_.begin(), tier_prios_.end(), e.priority,
                         std::greater<>()) -
        tier_prios_.begin());
    if (e.cap_pct <= 0.0) ++null_per_tier_[e.tier];
  }
}

CreditScheduler::Entry& CreditScheduler::sync(common::VmId vm) {
  Entry& e = vms_.at(vm);
  e.balance_us = balance_now(e);
  e.epoch = epoch_;
  return e;
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
  e.epoch = epoch_;
  const auto tier = std::lower_bound(tier_prios_.begin(), tier_prios_.end(), e.priority,
                                     std::greater<>());
  vms_.push_back(e);
  if (tier == tier_prios_.end() || *tier != e.priority) {
    rebuild_tiers();  // a new priority renumbers every tier
    return;
  }
  vms_.back().tier = static_cast<std::size_t>(tier - tier_prios_.begin());
  if (e.cap_pct <= 0.0) ++null_per_tier_[vms_.back().tier];
}

common::VmId CreditScheduler::pick(common::SimTime /*now*/,
                                   std::span<const common::VmId> runnable) {
  assert(!runnable.empty());
  assert(std::adjacent_find(runnable.begin(), runnable.end(), std::greater_equal<>()) ==
         runnable.end());  // ascending by id: the Scheduler::pick contract
  const std::size_t cursor = rr_cursor_ % vms_.size();  // one modulo per pick
  // Pass 1 (UNDER): highest-priority VM holding positive balance,
  // round-robin within a tier. Pass 2 (OVER): only null-credit VMs may
  // soak up slack, again highest priority first. The per-tier null-credit
  // counts let pass 2 skip a search that cannot succeed and stop at the
  // first VM of the best tier that can.
  common::VmId best = nearest_eligible(runnable, cursor, 0,
                                       [this](const Entry& e) { return is_under(e); });
  const auto null_top = std::find_if(null_per_tier_.begin(), null_per_tier_.end(),
                                     [](std::uint32_t c) { return c > 0; });
  if (best == common::kInvalidVm && null_top != null_per_tier_.end())
    best = nearest_eligible(runnable, cursor,
                            static_cast<std::size_t>(null_top - null_per_tier_.begin()),
                            [](const Entry& e) { return e.cap_pct <= 0.0; });
  if (best != common::kInvalidVm) rr_cursor_ = best + 1;
  return best;
}

std::size_t CreditScheduler::rotation_start(std::span<const common::VmId> runnable) const {
  if (runnable.empty()) return 0;
  const auto mid =
      std::lower_bound(runnable.begin(), runnable.end(), rr_cursor_ % vms_.size());
  const std::size_t first =
      mid == runnable.end() ? 0 : static_cast<std::size_t>(mid - runnable.begin());
  // The tier scan is the costly part: an ineligible VM in turn refuses
  // the run before it.
  if (!is_under(vms_[runnable[first]])) return runnable.size();
  if (tier_prios_.size() > 1) {
    const std::size_t tier = vms_[runnable.front()].tier;
    for (const common::VmId id : runnable)
      if (vms_[id].tier != tier) return runnable.size();
  }
  return first;
}

void CreditScheduler::charge(common::VmId vm, common::SimTime busy) {
  sync(vm).balance_us -= busy.us();
}

void CreditScheduler::account(common::SimTime /*now*/) {
  ++epoch_;  // each balance folds the refill in when next touched
}

bool CreditScheduler::refill_settled() const {
  // One more refill, phrased as a fixed-point test on the folded balance.
  // NOT `balance == burst`: import_credit is unclamped, so a migrated-in
  // hoard can sit above the burst limit — the next account() would pull it
  // down, which is an observable change.
  for (const Entry& e : vms_) {
    const std::int64_t b = balance_now(e);
    if (e.cap_pct <= 0.0) {
      if (b != 0) return false;  // null credit: runs only in the OVER pass
    } else {
      if (std::min(b + e.refill_us, e.burst_us) != b) return false;
    }
  }
  return true;
}

void CreditScheduler::set_cap(common::VmId vm, common::Percent cap_pct) {
  if (cap_pct < 0.0) throw std::invalid_argument("CreditScheduler: negative cap");
  Entry& e = sync(vm);  // pending refills fold at the old cap's rate
  if (e.cap_pct <= 0.0) --null_per_tier_[e.tier];
  e.cap_pct = cap_pct;
  if (e.cap_pct <= 0.0) ++null_per_tier_[e.tier];
  recompute_refill(e);
  // Clamp an existing hoard to the new burst limit so a cap *reduction*
  // (frequency went up) takes effect within one accounting period.
  e.balance_us = std::min(e.balance_us, e.burst_us);
}

common::Percent CreditScheduler::cap(common::VmId vm) const { return vms_.at(vm).cap_pct; }

common::SimTime CreditScheduler::export_credit(common::VmId vm) const {
  return common::usec(balance_now(vms_.at(vm)));
}

void CreditScheduler::import_credit(common::VmId vm, common::SimTime balance) {
  // The imported balance replaces whatever the (previously idle) slot
  // accrued; it is NOT clamped to the burst limit — a migrating VM must not
  // lose credit in flight.
  sync(vm).balance_us = balance.us();
}

common::SimTime CreditScheduler::balance(common::VmId vm) const {
  return common::usec(balance_now(vms_.at(vm)));
}

}  // namespace pas::sched
