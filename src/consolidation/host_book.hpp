// Persistent consolidation planning: a book of host classes and VM specs,
// keyed by caller-chosen ids, whose plan() is byte-identical to a
// from-scratch place_ffd over the same inputs.
//
// Why a book: ClusterManager mutates the planner's inputs a few ids at a
// time (a crash removes a host, a recovery re-adds a VM), and most planning
// ticks change nothing at all. The book keeps the specs resident in
// struct-of-arrays arenas indexed by id, so a mutation is one write, and
// serves each plan() from one of two paths:
//
//   * cached — nothing changed since the last plan: return it verbatim;
//   * replay — anything changed: derive the two FFD orders by sorting and
//     place every VM through a first-fit max-index over the hosts.
//
// HostBookStats still tells replays apart by what triggered them — a host
// change or the first plan (full_rebuilds) versus VM changes only
// (delta_plans) — because the cluster bench and perfbench report both.
//
// ── The equivalence contract ────────────────────────────────────────────
// plan() is BYTE-identical to place_ffd(vms, hosts, options) where
// vms/hosts are the dense spec lists over planned_vms()/planned_hosts()
// (active ids ascending). A replay uses place_ffd's orders exactly:
//
//   * scan order: hosts by ascending packing_cost(), ties by ascending id
//     (efficient_first), or ascending id;
//   * FFD order: VMs by memory decreasing, ties by ascending id.
//
// The index is a binary tree over the scan order. Each node holds the max
// free memory and the max free credit of the hosts below it. A VM descends
// leftmost-first and prunes a node that cannot hold its memory or its raw
// credit; the NUMA spill penalty only raises the credit a host needs, so
// no fitting host is ever pruned. At a leaf the exact place_ffd predicate,
// spill penalty included, decides. The leftmost fitting leaf is therefore
// the host place_ffd's linear scan returns, and the leaf subtracts the same
// memory and credit in the same order, so the residual capacities — and
// hosts_used, which place_ffd derives from them — are bit-equal too.
// tests/consolidation/consolidation_delta_test.cpp replays seeded mutation
// corpora and index edge cases against place_ffd to pin this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "consolidation/consolidation.hpp"

namespace pas::consolidation {

/// Plan-path and work counters. The tests use them to prove which path ran
/// and to bound the index's work; the benches report them next to the
/// planner-time gate.
struct HostBookStats {
  std::size_t plans = 0;          ///< plan() calls
  std::size_t cached_plans = 0;   ///< served verbatim (no mutations since)
  std::size_t delta_plans = 0;    ///< replays triggered by VM changes only
  std::size_t full_rebuilds = 0;  ///< replays after a host change or the first plan
  std::size_t vms_scanned = 0;    ///< first-fit queries
  std::size_t hosts_visited = 0;  ///< index nodes the queries visited
};

/// Persistent planner state. Ids are caller-chosen (the cluster uses
/// GlobalVmId / HostId); they need not be dense, but plan() output is dense
/// over the ACTIVE ids in ascending order — planned_vms()/planned_hosts()
/// give the mapping.
class HostBook {
 public:
  explicit HostBook(FfdOptions options = {});

  // --- mutations (validation mirrors place_ffd) ---
  void add_host(std::size_t id, const platform::HostClass& host);
  void remove_host(std::size_t id);
  void add_vm(std::size_t id, const VmSpec& spec);
  void remove_vm(std::size_t id);

  [[nodiscard]] bool has_host(std::size_t id) const;
  [[nodiscard]] bool has_vm(std::size_t id) const;
  /// True if plan() has pending work: mutations since the last plan, or
  /// no plan yet.
  [[nodiscard]] bool dirty() const { return hosts_dirty_ || vms_dirty_; }

  /// The placement, equivalent to place_ffd over the dense active lists.
  /// The reference stays valid (and unchanged) until the next plan().
  [[nodiscard]] const Placement& plan();
  /// The placement the last plan() served (empty before the first).
  [[nodiscard]] const Placement& last_plan() const { return placement_; }

  /// Dense index -> id maps for the last plan(): active VM/host ids in
  /// ascending order. Valid after plan().
  [[nodiscard]] const std::vector<std::size_t>& planned_vms() const {
    return active_vms_;
  }
  [[nodiscard]] const std::vector<std::size_t>& planned_hosts() const {
    return active_hosts_;
  }

  [[nodiscard]] const HostBookStats& stats() const { return stats_; }

 private:
  /// The credit VM `v` reserves on host `h` (both dense), as
  /// effective_credit_pct computes it.
  [[nodiscard]] double needed_credit(std::size_t v, std::size_t h) const;
  /// Leftmost leaf under `node` whose host fits dense VM `v`, or kUnplaced.
  [[nodiscard]] std::size_t first_fit(std::size_t node, std::size_t v);
  void replay();

  FfdOptions opt_;

  // Host arenas, indexed by host id.
  std::vector<std::uint8_t> host_alive_;
  std::vector<double> host_mem_, host_cap_, host_penalty_, host_cost_;
  std::vector<std::size_t> host_nodes_;
  bool hosts_dirty_ = true;  // true until the first plan

  // VM arenas, indexed by VM id.
  std::vector<std::uint8_t> vm_alive_;
  std::vector<double> vm_mem_, vm_credit_;
  bool vms_dirty_ = false;

  // Replay state, rebuilt by every replay.
  std::vector<std::size_t> active_hosts_;  // dense host -> id, ascending
  std::vector<std::size_t> active_vms_;    // dense VM -> id, ascending
  std::vector<std::size_t> scan_order_;    // leaf position -> dense host
  std::vector<std::size_t> ffd_order_;     // dense VMs in FFD order
  /// The max-index: node 1 is the root, node n's children are 2n and 2n+1,
  /// leaf i is node leaves_ + i and holds the free capacity of the host at
  /// scan position i. Padding leaves hold -infinity and never fit.
  std::size_t leaves_ = 1;
  std::vector<double> free_mem_, free_cap_;

  Placement placement_;
  HostBookStats stats_;
};

}  // namespace pas::consolidation
