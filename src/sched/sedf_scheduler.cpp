#include "sched/sedf_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace pas::sched {

SedfScheduler::SedfScheduler(SedfSchedulerConfig config) : cfg_(config) {
  if (cfg_.extra_work_efficiency <= 0.0 || cfg_.extra_work_efficiency > 1.0)
    throw std::invalid_argument("SedfScheduler: extra_work_efficiency must be in (0,1]");
}

void SedfScheduler::add_vm(common::VmId id, const hv::VmConfig& config) {
  if (id != vms_.size()) throw std::invalid_argument("SedfScheduler: VM ids must be dense");
  Entry e;
  e.cap_pct = config.credit;
  /// Default period p when the VmConfig does not override it.
  constexpr common::SimTime kDefaultPeriod = common::msec(100);
  e.period_us = (config.sedf_period.us() > 0 ? config.sedf_period : kDefaultPeriod).us();
  e.slice_us = static_cast<std::int64_t>(
      std::llround(e.cap_pct / 100.0 * static_cast<double>(e.period_us)));
  e.extra = config.sedf_extra;
  e.deadline_us = e.period_us;
  e.remain_us = e.slice_us;
  vms_.push_back(e);
}

void SedfScheduler::refresh_period(Entry& e, std::int64_t now_us) const {
  if (now_us < e.deadline_us) return;
  // Jump over all fully elapsed periods (a long-idle VM must not replay
  // them one by one).
  const std::int64_t periods_past = (now_us - e.deadline_us) / e.period_us + 1;
  e.deadline_us += periods_past * e.period_us;
  e.remain_us = e.slice_us;
}

common::VmId SedfScheduler::pick(common::SimTime now, std::span<const common::VmId> runnable) {
  assert(!runnable.empty());
  const std::int64_t now_us = now.us();
  for (auto& e : vms_) refresh_period(e, now_us);

  // EDF pass over VMs with guaranteed slice remaining.
  common::VmId best = common::kInvalidVm;
  std::int64_t best_deadline = 0;
  for (const common::VmId id : runnable) {
    Entry& e = vms_.at(id);
    if (e.remain_us <= 0) continue;
    if (best == common::kInvalidVm || e.deadline_us < best_deadline) {
      best = id;
      best_deadline = e.deadline_us;
    }
  }
  if (best != common::kInvalidVm) {
    vms_.at(best).last_pick_was_extra = false;
    return best;
  }

  // Extra-time pass: round-robin among extra-eligible VMs. Work-conserving:
  // the CPU never idles while anyone is runnable and extra-eligible.
  const std::size_t n = vms_.size();
  const std::size_t cursor = rr_cursor_ % n;  // hoisted: one modulo per pick
  std::size_t best_rank = 0;
  for (const common::VmId id : runnable) {
    Entry& e = vms_.at(id);
    if (!e.extra) continue;
    const std::size_t rank = id >= cursor ? id - cursor : id + n - cursor;
    if (best == common::kInvalidVm || rank < best_rank) {
      best = id;
      best_rank = rank;
    }
  }
  if (best != common::kInvalidVm) {
    vms_.at(best).last_pick_was_extra = true;
    rr_cursor_ = best + 1;
  }
  return best;
}

double SedfScheduler::work_efficiency(common::VmId vm) const {
  return vms_.at(vm).last_pick_was_extra ? cfg_.extra_work_efficiency : 1.0;
}

void SedfScheduler::charge(common::VmId vm, common::SimTime busy) {
  Entry& e = vms_.at(vm);
  std::int64_t remaining_charge = busy.us();
  if (!e.last_pick_was_extra && e.remain_us > 0) {
    const std::int64_t guaranteed = std::min(e.remain_us, remaining_charge);
    e.remain_us -= guaranteed;
    remaining_charge -= guaranteed;
  }
  extra_granted_us_ += remaining_charge;
}

void SedfScheduler::account(common::SimTime /*now*/) {
  // Period refill is handled lazily in pick(); nothing to do here.
}

void SedfScheduler::set_cap(common::VmId vm, common::Percent cap_pct) {
  if (cap_pct < 0.0) throw std::invalid_argument("SedfScheduler: negative cap");
  Entry& e = vms_.at(vm);
  e.cap_pct = cap_pct;
  const std::int64_t new_slice = static_cast<std::int64_t>(
      std::llround(cap_pct / 100.0 * static_cast<double>(e.period_us)));
  // Apply the delta to the current period too, so compensation acts within
  // one period rather than one period late.
  e.remain_us = std::max<std::int64_t>(0, e.remain_us + (new_slice - e.slice_us));
  e.slice_us = new_slice;
}

common::Percent SedfScheduler::cap(common::VmId vm) const { return vms_.at(vm).cap_pct; }

common::SimTime SedfScheduler::remaining_slice(common::VmId vm) const {
  return common::usec(vms_.at(vm).remain_us);
}

}  // namespace pas::sched
