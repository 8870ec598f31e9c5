#include "consolidation/host_book.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pas::consolidation {

HostBook::HostBook(FfdOptions options) : opt_(options) {}

bool HostBook::has_host(std::size_t id) const {
  return id < host_alive_.size() && host_alive_[id] != 0;
}

bool HostBook::has_vm(std::size_t id) const {
  return id < vm_alive_.size() && vm_alive_[id] != 0;
}

void HostBook::grow_host_arrays(std::size_t id) {
  if (id < host_alive_.size()) return;
  const std::size_t n = id + 1;
  host_alive_.resize(n, 0);
  host_mem_.resize(n, 0.0);
  host_cap_.resize(n, 0.0);
  host_penalty_.resize(n, 0.0);
  host_cost_.resize(n, 0.0);
  host_nodes_.resize(n, 1);
  host_dense_.resize(n, kUnplaced);
  old_mem_.resize(n, 0.0);
  old_cap_.resize(n, 0.0);
  new_mem_.resize(n, 0.0);
  new_cap_.resize(n, 0.0);
  div_flag_.resize(n, 0);
}

void HostBook::grow_vm_arrays(std::size_t id) {
  if (id < vm_alive_.size()) return;
  const std::size_t n = id + 1;
  vm_alive_.resize(n, 0);
  vm_mem_.resize(n, 0.0);
  vm_credit_.resize(n, 0.0);
  vm_dirty_.resize(n, 0);
  last_in_.resize(n, 0);
  last_mem_.resize(n, 0.0);
  last_credit_eff_.resize(n, 0.0);
  last_assign_.resize(n, kUnplaced);
  new_assign_.resize(n, kUnplaced);
  new_credit_.resize(n, 0.0);
}

void HostBook::add_host(std::size_t id, const HostSpec& spec) {
  if (spec.numa_nodes == 0)
    throw std::invalid_argument("HostBook: host needs at least one NUMA node");
  if (spec.numa_spill_penalty < 0)
    throw std::invalid_argument("HostBook: negative NUMA spill penalty");
  if (has_host(id)) throw std::invalid_argument("HostBook: add_host on a live host id");
  grow_host_arrays(id);
  host_alive_[id] = 1;
  host_mem_[id] = spec.memory_mb;
  host_cap_[id] = spec.cpu_capacity_pct;
  host_penalty_[id] = spec.numa_spill_penalty;
  host_nodes_[id] = spec.numa_nodes;
  host_cost_[id] = packing_cost(spec);
  host_rank_.emplace(host_cost_[id], id);
  active_hosts_.insert(
      std::lower_bound(active_hosts_.begin(), active_hosts_.end(), id), id);
  hosts_dirty_ = true;
}

void HostBook::remove_host(std::size_t id) {
  if (!has_host(id)) throw std::invalid_argument("HostBook: remove_host on unknown id");
  host_rank_.erase({host_cost_[id], id});
  active_hosts_.erase(
      std::lower_bound(active_hosts_.begin(), active_hosts_.end(), id));
  host_alive_[id] = 0;
  hosts_dirty_ = true;
}

void HostBook::update_host(std::size_t id, const HostSpec& spec) {
  if (!has_host(id)) throw std::invalid_argument("HostBook: update_host on unknown id");
  if (spec.numa_nodes == 0)
    throw std::invalid_argument("HostBook: host needs at least one NUMA node");
  if (spec.numa_spill_penalty < 0)
    throw std::invalid_argument("HostBook: negative NUMA spill penalty");
  host_rank_.erase({host_cost_[id], id});
  host_mem_[id] = spec.memory_mb;
  host_cap_[id] = spec.cpu_capacity_pct;
  host_penalty_[id] = spec.numa_spill_penalty;
  host_nodes_[id] = spec.numa_nodes;
  host_cost_[id] = packing_cost(spec);
  host_rank_.emplace(host_cost_[id], id);
  hosts_dirty_ = true;
}

void HostBook::mark_vm_dirty(std::size_t id) {
  if (vm_dirty_[id]) {
    ++stats_.coalesced_marks;
    return;
  }
  vm_dirty_[id] = 1;
  dirty_vms_.push_back(id);
}

void HostBook::add_vm(std::size_t id, const VmSpec& spec) {
  if (spec.memory_mb < 0 || spec.credit < 0 || spec.cpu_demand_pct < 0)
    throw std::invalid_argument("HostBook: negative VM resource");
  if (has_vm(id)) throw std::invalid_argument("HostBook: add_vm on a live VM id");
  grow_vm_arrays(id);
  vm_alive_[id] = 1;
  vm_mem_[id] = spec.memory_mb;
  vm_credit_[id] = spec.credit;
  active_vms_.insert(std::lower_bound(active_vms_.begin(), active_vms_.end(), id),
                     id);
  order_.insert(std::lower_bound(order_.begin(), order_.end(), id,
                                 [&](std::size_t elem, std::size_t vm) {
                                   return ffd_before(vm_mem_[elem], elem,
                                                     vm_mem_[vm], vm);
                                 }),
                id);
  mark_vm_dirty(id);
}

void HostBook::remove_vm(std::size_t id) {
  if (!has_vm(id)) throw std::invalid_argument("HostBook: remove_vm on unknown id");
  auto pos = std::lower_bound(order_.begin(), order_.end(), id,
                              [&](std::size_t elem, std::size_t vm) {
                                return ffd_before(vm_mem_[elem], elem,
                                                  vm_mem_[vm], vm);
                              });
  assert(pos != order_.end() && *pos == id);
  order_.erase(pos);
  active_vms_.erase(std::lower_bound(active_vms_.begin(), active_vms_.end(), id));
  vm_alive_[id] = 0;
  mark_vm_dirty(id);
}

void HostBook::update_vm(std::size_t id, const VmSpec& spec) {
  if (spec.memory_mb < 0 || spec.credit < 0 || spec.cpu_demand_pct < 0)
    throw std::invalid_argument("HostBook: negative VM resource");
  if (!has_vm(id)) throw std::invalid_argument("HostBook: update_vm on unknown id");
  // Re-key order_ under the OLD memory before the arena is overwritten.
  auto pos = std::lower_bound(order_.begin(), order_.end(), id,
                              [&](std::size_t elem, std::size_t vm) {
                                return ffd_before(vm_mem_[elem], elem,
                                                  vm_mem_[vm], vm);
                              });
  assert(pos != order_.end() && *pos == id);
  order_.erase(pos);
  vm_mem_[id] = spec.memory_mb;
  vm_credit_[id] = spec.credit;
  order_.insert(std::lower_bound(order_.begin(), order_.end(), id,
                                 [&](std::size_t elem, std::size_t vm) {
                                   return ffd_before(vm_mem_[elem], elem,
                                                     vm_mem_[vm], vm);
                                 }),
                id);
  mark_vm_dirty(id);
}

std::vector<std::size_t> HostBook::packing_order() const {
  std::vector<std::size_t> out;
  out.reserve(host_rank_.size());
  for (const auto& [cost, id] : host_rank_) out.push_back(id);
  return out;
}

bool HostBook::vm_spills(std::size_t vm, std::size_t host) const {
  if (host_nodes_[host] <= 1) return false;
  return vm_mem_[vm] > host_mem_[host] / static_cast<double>(host_nodes_[host]);
}

std::pair<std::size_t, double> HostBook::scan(std::size_t vm) const {
  const double mem = vm_mem_[vm];
  for (const std::size_t h : scan_order_) {
    const double needed =
        vm_credit_[vm] * (1.0 + (vm_spills(vm, h) ? host_penalty_[h] : 0.0));
    if (mem <= new_mem_[h] && needed <= new_cap_[h]) return {h, needed};
  }
  return {kUnplaced, 0.0};
}

void HostBook::touch(std::size_t h) {
  const bool div = old_mem_[h] != new_mem_[h] || old_cap_[h] != new_cap_[h];
  if (div == (div_flag_[h] != 0)) return;
  div_flag_[h] = div ? 1 : 0;
  if (div)
    ++diverged_;
  else
    --diverged_;
}

void HostBook::replay_old(std::size_t vm) {
  ++stats_.vms_walked;
  assert(last_in_[vm]);
  const std::size_t h = last_assign_[vm];
  if (h == kUnplaced) return;
  old_mem_[h] -= last_mem_[vm];
  old_cap_[h] -= last_credit_eff_[vm];
  touch(h);
}

void HostBook::place_new(std::size_t vm) {
  ++stats_.vms_walked;
  ++stats_.vms_scanned;
  const auto [h, needed] = scan(vm);
  new_assign_[vm] = h;
  new_credit_[vm] = needed;
  if (h == kUnplaced) return;
  new_mem_[h] -= vm_mem_[vm];
  new_cap_[h] -= needed;
  touch(h);
}

void HostBook::rebuild_scan_order() {
  if (opt_.efficient_first) {
    scan_order_.clear();
    scan_order_.reserve(host_rank_.size());
    for (const auto& [cost, id] : host_rank_) scan_order_.push_back(id);
  } else {
    scan_order_ = active_hosts_;
  }
  for (std::size_t d = 0; d < active_hosts_.size(); ++d)
    host_dense_[active_hosts_[d]] = d;
}

void HostBook::full_replay() {
  rebuild_scan_order();
  for (const std::size_t h : active_hosts_) {
    new_mem_[h] = host_mem_[h];
    new_cap_[h] = host_cap_[h];
  }
  for (const std::size_t vm : order_) {
    ++stats_.vms_walked;
    ++stats_.vms_scanned;
    const auto [h, needed] = scan(vm);
    new_assign_[vm] = h;
    new_credit_[vm] = needed;
    if (h == kUnplaced) continue;
    new_mem_[h] -= vm_mem_[vm];
    new_cap_[h] -= needed;
  }
}

void HostBook::delta_replay() {
  for (const std::size_t h : active_hosts_) {
    old_mem_[h] = new_mem_[h] = host_mem_[h];
    old_cap_[h] = new_cap_[h] = host_cap_[h];
    div_flag_[h] = 0;
  }
  diverged_ = 0;

  // Merge the old and the new FFD sequences in key order. Clean entries
  // appear in both with the same key, so clean heads always pair up; a key
  // present on only one side belongs to a dirty (added/removed/re-specced)
  // VM, whose replay is what seeds — and later heals — divergence.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < last_order_.size() || j < order_.size()) {
    if (i == last_order_.size()) {
      place_new(order_[j++]);
      continue;
    }
    if (j == order_.size()) {
      replay_old(last_order_[i++]);
      continue;
    }
    const std::size_t a = last_order_[i];
    const std::size_t b = order_[j];
    const bool clean_a = vm_alive_[a] != 0 && vm_dirty_[a] == 0;
    const bool clean_b = vm_dirty_[b] == 0;
    if (clean_a && clean_b) {
      assert(a == b && "clean heads of the old and new FFD orders must pair");
      ++stats_.vms_walked;
      if (diverged_ == 0) {
        // Every host's old and new capacities are bit-equal and the scan is
        // deterministic, so the previous answer is the new answer — copy it
        // and advance both images by the same subtraction, preserving
        // equality without a scan.
        const std::size_t h = last_assign_[a];
        new_assign_[a] = h;
        new_credit_[a] = last_credit_eff_[a];
        if (h != kUnplaced) {
          old_mem_[h] -= last_mem_[a];
          old_cap_[h] -= last_credit_eff_[a];
          new_mem_[h] -= last_mem_[a];
          new_cap_[h] -= last_credit_eff_[a];
        }
      } else {
        replay_old(a);
        place_new(b);
      }
      ++i;
      ++j;
      continue;
    }
    if (ffd_before(last_mem_[a], a, vm_mem_[b], b)) {
      // Old-only key: a clean VM would also be in the new sequence ahead of
      // b, contradicting the sort — so this head is dirty or removed.
      assert(!clean_a);
      replay_old(a);
      ++i;
    } else if (ffd_before(vm_mem_[b], b, last_mem_[a], a)) {
      assert(!clean_b);
      place_new(b);
      ++j;
    } else {
      // Equal keys share the id: the same dirty VM, re-specced with its
      // memory unchanged. Retire its old subtraction, then re-place it.
      assert(a == b);
      replay_old(a);
      place_new(b);
      ++i;
      ++j;
    }
  }
}

void HostBook::snapshot_and_clear_dirty() {
  for (const std::size_t id : dirty_vms_) {
    vm_dirty_[id] = 0;
    if (vm_alive_[id] == 0) {
      last_in_[id] = 0;
      last_assign_[id] = kUnplaced;
    }
  }
  dirty_vms_.clear();
  last_order_ = order_;
  for (const std::size_t id : order_) {
    last_in_[id] = 1;
    last_mem_[id] = vm_mem_[id];
    last_assign_[id] = new_assign_[id];
    last_credit_eff_[id] = new_credit_[id];
  }
  hosts_dirty_ = false;
  have_plan_ = true;
}

void HostBook::build_placement() {
  placement_.assignment.assign(active_vms_.size(), kUnplaced);
  placement_.unplaced = 0;
  placement_.hosts_used = 0;
  for (std::size_t d = 0; d < active_vms_.size(); ++d) {
    const std::size_t h = new_assign_[active_vms_[d]];
    if (h == kUnplaced)
      ++placement_.unplaced;
    else
      placement_.assignment[d] = host_dense_[h];
  }
  for (const std::size_t h : active_hosts_) {
    if (new_mem_[h] < host_mem_[h] || new_cap_[h] < host_cap_[h])
      ++placement_.hosts_used;
  }
}

const Placement& HostBook::plan() {
  ++stats_.plans;
  if (have_plan_ && !dirty()) {
    ++stats_.cached_plans;
    return placement_;
  }
  if (!have_plan_ || hosts_dirty_) {
    ++stats_.full_rebuilds;
    full_replay();
  } else {
    ++stats_.delta_plans;
    delta_replay();
  }
  snapshot_and_clear_dirty();
  build_placement();
  return placement_;
}

}  // namespace pas::consolidation
