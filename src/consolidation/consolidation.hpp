// Server consolidation model — the paper's §2.3 argument, executable.
//
// "Ideally, a consolidation system should gather all the VMs on a reduced
// set of machines which should have a high CPU load, and DVFS would
// therefore be useless. However ... an important bottleneck of such
// consolidation systems is memory. ... Consequently, DVFS is complementary
// to consolidation."
//
// This module packs VMs onto hosts first-fit-decreasing by memory (the
// binding resource), powers unused hosts off (VOVO), and then evaluates the
// cluster's power draw twice: with every active host pinned at the maximum
// frequency, and with each host at the PAS-chosen frequency (the lowest
// state whose capacity covers the host's absolute load). The gap between
// the two is exactly the energy PAS can reclaim *on top of* consolidation —
// and it grows with the memory-per-VM footprint, which is the paper's
// point. The conclusion's "main perspective" (coordinating VM scheduling,
// frequency scaling and memory management) starts here.
//
// A placement can FAIL to hold every VM (the fleet is too small for the
// purchased credits or memory), and that failure is an explicit, typed
// outcome — never silently-free capacity: place_ffd marks such VMs
// kUnplaced, and evaluate() refuses the placement (throws) unless the
// caller opts into degraded operation with allow_unplaced and consumes
// ClusterOutcome::unplaced_vms + the unplaced_* aggregates. The online
// ClusterManager does exactly that: it leaves unplaced VMs resident where
// they are and reports them via last_plan_unplaced().
//
// Heterogeneous fleets: hosts need not be clones. The planner reads each
// host's platform::HostClass — its own ladder, power model, capacity,
// memory and NUMA layout — and reacts in two ways:
//
//   * efficient-first packing (FfdOptions::efficient_first, the default):
//     candidate hosts are tried in ascending packing_cost() order — idle
//     watts per MB of memory. Powering a host on commits its idle draw for
//     as long as it stays on (PAS suppresses the utilization term by
//     ratio^3), and memory is the binding resource (§2.3), so the fleet
//     energy bill is minimized by buying memory from the hosts that charge
//     the least standby power for it; VOVO retires the rest. On a uniform
//     fleet every cost ties and the order degrades to index order,
//     reproducing the classic FFD placement exactly.
//   * NUMA spill penalty: a VM whose memory footprint exceeds one NUMA
//     node's capacity (memory_mb / numa_nodes) cannot be node-local; its
//     cross-node traffic costs numa_spill_penalty extra CPU, so both the
//     credit the planner reserves and the demand evaluate() charges are
//     inflated by (1 + penalty). Single-node hosts never spill.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "platform/host_class.hpp"

namespace pas::consolidation {

/// Kept for perfbench/src/probes.cpp, which still names it; the planner
/// takes platform::HostClass.
using HostSpec = platform::HostClass;

/// Idle watts per MB of memory — the key efficient-first packing sorts
/// hosts by: what a host charges in committed standby power per unit of
/// the binding resource it contributes. Identical classes yield identical
/// costs, so uniform fleets keep index order.
[[nodiscard]] double packing_cost(const platform::HostClass& host);

struct VmSpec {
  std::string name;
  /// Purchased credit (absolute %, the SLA) — consolidation must reserve it.
  common::Percent credit = 0.0;
  double memory_mb = 512.0;
  /// Actual absolute CPU demand (<= credit for honest customers).
  double cpu_demand_pct = 0.0;
};

/// True if the VM cannot be node-local on this host: its footprint exceeds
/// one NUMA node's share of the host memory. Single-node hosts never spill.
[[nodiscard]] bool numa_spills(const VmSpec& vm, const platform::HostClass& host);

/// The credit the planner must reserve for this VM on this host: the
/// purchased credit, inflated by the NUMA spill penalty when the VM's
/// footprint crosses node capacity.
[[nodiscard]] double effective_credit_pct(const VmSpec& vm,
                                           const platform::HostClass& host);

inline constexpr std::size_t kUnplaced = std::numeric_limits<std::size_t>::max();

struct Placement {
  /// assignment[vm] = host index, or kUnplaced.
  std::vector<std::size_t> assignment;
  std::size_t hosts_used = 0;
  std::size_t unplaced = 0;
};

struct FfdOptions {
  /// Try candidate hosts in ascending packing_cost() order instead of index
  /// order. Degrades to index order (today's behavior) on uniform fleets,
  /// where every cost ties and the index breaks the tie.
  bool efficient_first = true;
};

/// First-fit decreasing by memory footprint. A VM fits a host if both its
/// memory and its *effective credit* (not merely its demand — SLAs must be
/// honorable, and a NUMA-spilled VM reserves its penalty too) fit the
/// remaining capacity. Throws std::invalid_argument on a negative VM
/// resource or a host that fails platform::validate_class.
[[nodiscard]] Placement place_ffd(const std::vector<VmSpec>& vms,
                                  const std::vector<platform::HostClass>& hosts,
                                  const FfdOptions& options = {});

struct HostOutcome {
  bool powered_on = false;
  double cpu_load_pct = 0.0;    // sum of placed demands (absolute, NUMA-inflated)
  double credit_reserved_pct = 0.0;
  double memory_used_mb = 0.0;
  /// Resident VMs whose footprint crosses a NUMA node (demand and credit
  /// above include their spill penalty).
  std::size_t numa_spills = 0;
  /// PAS frequency choice for this load (Listing 1.1).
  std::size_t freq_index = 0;
  double power_watts = 0.0;         // at the PAS operating point
  double power_max_freq_watts = 0.0;  // frequency pinned at max
};

struct ClusterOutcome {
  std::vector<HostOutcome> hosts;
  std::size_t hosts_on = 0;
  double total_power_watts = 0.0;          // consolidation + DVFS (PAS)
  double total_power_max_freq_watts = 0.0; // consolidation only
  /// Mean CPU load of powered-on hosts — §2.3 predicts this stays well
  /// below 100 % once memory binds first.
  double mean_active_load_pct = 0.0;
  /// VMs the placement left without a host, with the resources the cluster
  /// is therefore NOT providing. A VM in this list is demand the outcome's
  /// power and load figures do not cover — callers must surface it (degrade
  /// the SLA report, buy hosts, shed the customer), never ignore it.
  std::vector<std::size_t> unplaced_vms;
  double unplaced_credit_pct = 0.0;
  double unplaced_demand_pct = 0.0;
  double unplaced_memory_mb = 0.0;
  /// Total NUMA-spilled VMs across the fleet.
  std::size_t numa_spills = 0;
  [[nodiscard]] bool all_placed() const { return unplaced_vms.empty(); }
  /// Watts reclaimed by DVFS on top of consolidation.
  [[nodiscard]] double dvfs_saving_watts() const {
    return total_power_max_freq_watts - total_power_watts;
  }
};

/// Evaluates a placement: per-host loads, PAS frequency choice, power with
/// and without DVFS. Powered-off hosts draw nothing (VOVO).
///
/// Unplaced VMs are an *explicit* outcome, not silently free capacity: by
/// default a placement with unplaced VMs throws std::invalid_argument.
/// Callers that can genuinely degrade (report the shortfall, run partial)
/// pass `allow_unplaced = true` and must consume `ClusterOutcome::
/// unplaced_vms` / the unplaced_* aggregates — those VMs' demand is NOT in
/// the outcome's power or load figures.
///
/// Example — a fleet too small for the tenant book (this snippet is
/// compiled and executed by tests/consolidation/consolidation_doc_example_
/// test.cpp; keep the two in sync):
///
///     auto placement = place_ffd(vms, hosts);
///     if (placement.unplaced > 0) {
///       // evaluate(placement, vms, hosts) would throw here.
///       auto out = evaluate(placement, vms, hosts, /*allow_unplaced=*/true);
///       for (std::size_t vi : out.unplaced_vms)
///         alert_capacity_shortfall(vms[vi].name);
///       // out.unplaced_credit_pct / unplaced_memory_mb quantify what the
///       // cluster is not providing; out.total_power_watts covers only
///       // the placed VMs.
///     } else {
///       auto out = evaluate(placement, vms, hosts);  // all placed: strict
///       report(out.total_power_watts, out.dvfs_saving_watts());
///     }
[[nodiscard]] ClusterOutcome evaluate(const Placement& placement,
                                      const std::vector<VmSpec>& vms,
                                      const std::vector<platform::HostClass>& hosts,
                                      bool allow_unplaced = false);

}  // namespace pas::consolidation
