#include "consolidation/host_book.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace pas::consolidation {

HostBook::HostBook(FfdOptions options) : opt_(options) {}

bool HostBook::has_host(std::size_t id) const {
  return id < host_alive_.size() && host_alive_[id] != 0;
}

bool HostBook::has_vm(std::size_t id) const {
  return id < vm_alive_.size() && vm_alive_[id] != 0;
}

void HostBook::add_host(std::size_t id, const platform::HostClass& host) {
  platform::validate_class(host);
  if (has_host(id)) throw std::invalid_argument("HostBook: add_host on a live host id");
  if (id >= host_alive_.size()) {
    const std::size_t n = id + 1;
    host_alive_.resize(n, 0);
    host_mem_.resize(n, 0.0);
    host_cap_.resize(n, 0.0);
    host_penalty_.resize(n, 0.0);
    host_cost_.resize(n, 0.0);
    host_nodes_.resize(n, 1);
  }
  host_alive_[id] = 1;
  host_mem_[id] = host.memory_mb;
  host_cap_[id] = host.cpu_capacity_pct;
  host_penalty_[id] = host.numa_spill_penalty;
  host_nodes_[id] = host.numa_nodes;
  host_cost_[id] = packing_cost(host);
  hosts_dirty_ = true;
}

void HostBook::remove_host(std::size_t id) {
  if (!has_host(id)) throw std::invalid_argument("HostBook: remove_host on unknown id");
  host_alive_[id] = 0;
  hosts_dirty_ = true;
}

void HostBook::add_vm(std::size_t id, const VmSpec& spec) {
  if (spec.memory_mb < 0 || spec.credit < 0 || spec.cpu_demand_pct < 0)
    throw std::invalid_argument("HostBook: negative VM resource");
  if (has_vm(id)) throw std::invalid_argument("HostBook: add_vm on a live VM id");
  if (id >= vm_alive_.size()) {
    const std::size_t n = id + 1;
    vm_alive_.resize(n, 0);
    vm_mem_.resize(n, 0.0);
    vm_credit_.resize(n, 0.0);
  }
  vm_alive_[id] = 1;
  vm_mem_[id] = spec.memory_mb;
  vm_credit_[id] = spec.credit;
  vms_dirty_ = true;
}

void HostBook::remove_vm(std::size_t id) {
  if (!has_vm(id)) throw std::invalid_argument("HostBook: remove_vm on unknown id");
  vm_alive_[id] = 0;
  vms_dirty_ = true;
}

double HostBook::needed_credit(std::size_t v, std::size_t h) const {
  const std::size_t vm = active_vms_[v];
  const std::size_t host = active_hosts_[h];
  const bool spills = host_nodes_[host] > 1 &&
                      vm_mem_[vm] > host_mem_[host] / static_cast<double>(host_nodes_[host]);
  return vm_credit_[vm] * (1.0 + (spills ? host_penalty_[host] : 0.0));
}

std::size_t HostBook::first_fit(std::size_t node, std::size_t v) {
  ++stats_.hosts_visited;
  const std::size_t vm = active_vms_[v];
  // Raw credit is a lower bound on the credit any host below needs.
  if (vm_mem_[vm] > free_mem_[node] || vm_credit_[vm] > free_cap_[node]) return kUnplaced;
  if (node < leaves_) {
    const std::size_t left = first_fit(2 * node, v);
    return left != kUnplaced ? left : first_fit(2 * node + 1, v);
  }
  const std::size_t pos = node - leaves_;
  return needed_credit(v, scan_order_[pos]) <= free_cap_[node] ? pos : kUnplaced;
}

void HostBook::replay() {
  active_hosts_.clear();
  for (std::size_t id = 0; id < host_alive_.size(); ++id)
    if (host_alive_[id]) active_hosts_.push_back(id);
  active_vms_.clear();
  for (std::size_t id = 0; id < vm_alive_.size(); ++id)
    if (vm_alive_[id]) active_vms_.push_back(id);

  // Dense indices ascend with ids, so the stable sort breaks cost ties by
  // ascending id and the explicit FFD tie-break is by ascending id too.
  const std::size_t hosts = active_hosts_.size();
  scan_order_.resize(hosts);
  std::iota(scan_order_.begin(), scan_order_.end(), 0);
  if (opt_.efficient_first) {
    std::stable_sort(scan_order_.begin(), scan_order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return host_cost_[active_hosts_[a]] < host_cost_[active_hosts_[b]];
                     });
  }
  ffd_order_.resize(active_vms_.size());
  std::iota(ffd_order_.begin(), ffd_order_.end(), 0);
  std::sort(ffd_order_.begin(), ffd_order_.end(), [&](std::size_t a, std::size_t b) {
    const double ma = vm_mem_[active_vms_[a]];
    const double mb = vm_mem_[active_vms_[b]];
    if (ma != mb) return ma > mb;
    return a < b;
  });

  leaves_ = std::bit_ceil(std::max<std::size_t>(hosts, 1));
  constexpr double kNone = -std::numeric_limits<double>::infinity();
  free_mem_.assign(2 * leaves_, kNone);
  free_cap_.assign(2 * leaves_, kNone);
  for (std::size_t pos = 0; pos < hosts; ++pos) {
    const std::size_t id = active_hosts_[scan_order_[pos]];
    free_mem_[leaves_ + pos] = host_mem_[id];
    free_cap_[leaves_ + pos] = host_cap_[id];
  }
  for (std::size_t node = leaves_ - 1; node >= 1; --node) {
    free_mem_[node] = std::max(free_mem_[2 * node], free_mem_[2 * node + 1]);
    free_cap_[node] = std::max(free_cap_[2 * node], free_cap_[2 * node + 1]);
  }

  placement_.assignment.assign(active_vms_.size(), kUnplaced);
  placement_.unplaced = 0;
  for (const std::size_t v : ffd_order_) {
    ++stats_.vms_scanned;
    const std::size_t pos = first_fit(1, v);
    if (pos == kUnplaced) {
      ++placement_.unplaced;
      continue;
    }
    const std::size_t h = scan_order_[pos];
    placement_.assignment[v] = h;
    std::size_t node = leaves_ + pos;
    free_mem_[node] -= vm_mem_[active_vms_[v]];
    free_cap_[node] -= needed_credit(v, h);
    while (node > 1) {
      node /= 2;
      free_mem_[node] = std::max(free_mem_[2 * node], free_mem_[2 * node + 1]);
      free_cap_[node] = std::max(free_cap_[2 * node], free_cap_[2 * node + 1]);
    }
  }

  placement_.hosts_used = 0;
  for (std::size_t pos = 0; pos < hosts; ++pos) {
    const std::size_t id = active_hosts_[scan_order_[pos]];
    if (free_mem_[leaves_ + pos] < host_mem_[id] || free_cap_[leaves_ + pos] < host_cap_[id])
      ++placement_.hosts_used;
  }
}

const Placement& HostBook::plan() {
  ++stats_.plans;
  if (!dirty()) {
    ++stats_.cached_plans;
    return placement_;
  }
  ++(hosts_dirty_ ? stats_.full_rebuilds : stats_.delta_plans);
  replay();
  hosts_dirty_ = false;
  vms_dirty_ = false;
  return placement_;
}

}  // namespace pas::consolidation
