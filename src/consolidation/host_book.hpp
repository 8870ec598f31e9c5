// Delta-driven consolidation planning: a persistent book of hosts and VMs
// that replays only what changed since the last plan, yet produces a
// Placement byte-identical to a from-scratch place_ffd over the same
// inputs.
//
// Why a book: ClusterManager used to rebuild every HostSpec/VmSpec vector
// and re-run full FFD each planning tick — O(V·H) fit checks at every tick,
// the dominant planner cost at fleet scale (~10k hosts / 100k VMs). The
// HostBook keeps the planner's inputs resident in struct-of-arrays arenas
// (no per-tick spec vectors, no per-tick sort), keeps hosts in packing
// order with O(log n) insert/remove/update, and serves each plan() from
// one of three paths:
//
//   * cached  — nothing changed since the last plan: return it verbatim;
//   * delta   — only VM membership/specs changed: a merge walk over the
//     old and the new FFD orders re-scans just the changed entries and
//     the entries whose candidate-host state diverged, copying every
//     other assignment straight from the previous plan;
//   * full    — the host set changed (host added/removed/updated, e.g. a
//     crash or a class flip), or no prior plan exists: the degenerate
//     fallback replays classic FFD over the arenas. Host changes reshape
//     the scan order itself, so no per-VM invariant survives them — the
//     book does not try.
//
// ── The equivalence contract ────────────────────────────────────────────
// plan() is BYTE-identical to place_ffd(vms, hosts, options) where
// vms/hosts are the dense spec lists over planned_vms()/planned_hosts()
// (active ids ascending). "Byte" includes the floating-point residue:
// hosts_used is defined by place_ffd as `mem_left < total || credit_left <
// total` after the full subtraction sequence, so the delta walk replays
// the complete per-rank arithmetic (subtractions only — no scans for
// clean, non-diverged entries) to land on bit-equal residual capacities.
//
// How the delta walk stays exact: the previous plan's subtraction sequence
// is replayed against an "old" capacity image while the new plan builds a
// "new" image, merged in FFD key order (memory desc, id asc — the same
// deterministic tie-break place_ffd uses). A per-host divergence flag set
// tracks where the two images differ. When a clean VM's turn comes and NO
// host diverges, the first-fit scan provably reproduces the old answer
// (same candidate order, bit-equal capacities, same fit predicate), so the
// old assignment is copied and both images advance by the same subtraction
// — equality is preserved without scanning. Any divergence (a changed VM
// placed elsewhere, a removed VM's hole) flips the affected hosts' flags
// and clean VMs are re-scanned until the images re-converge. Equivalence
// is therefore structural, not heuristic; the differential suite
// (tests/consolidation/consolidation_delta_test.cpp) replays seeded
// mutation corpora to pin it.
//
// Iteration order of hosts (the property the book's O(log n) rank index
// maintains, and tests/consolidation/host_book_property_test.cpp checks
// against a re-sorted oracle): ascending packing_cost(), ties broken by
// ascending host id — deterministic and total, exactly place_ffd's
// efficient-first order with dense indices replaced by ids. With
// FfdOptions::efficient_first off the scan order is ascending id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "consolidation/consolidation.hpp"

namespace pas::consolidation {

/// Plan-path and work counters — how the book earned its keep. The tests
/// use them to prove the intended path ran (delta vs fallback); the bench
/// reports them next to the planner-time gate.
struct HostBookStats {
  std::size_t plans = 0;          ///< plan() calls
  std::size_t cached_plans = 0;   ///< served verbatim (no pending deltas)
  std::size_t delta_plans = 0;    ///< served by the merge walk
  std::size_t full_rebuilds = 0;  ///< fallback: host change or first plan
  std::size_t vms_walked = 0;     ///< merge-walk ranks processed
  std::size_t vms_scanned = 0;    ///< first-fit host scans actually run
  std::size_t coalesced_marks = 0;///< dirty marks folded into a pending one
};

/// Persistent planner state. Ids are caller-chosen (the cluster uses
/// GlobalVmId / HostId); they need not be dense, but plan() output is dense
/// over the ACTIVE ids in ascending order — planned_vms()/planned_hosts()
/// give the mapping.
class HostBook {
 public:
  explicit HostBook(FfdOptions options = {});

  // --- host mutations (each forces the next plan onto the full-rebuild
  // fallback; the rank index itself updates in O(log n)) ---
  void add_host(std::size_t id, const HostSpec& spec);
  void remove_host(std::size_t id);
  void update_host(std::size_t id, const HostSpec& spec);

  // --- VM mutations (delta-planned; validation mirrors place_ffd) ---
  void add_vm(std::size_t id, const VmSpec& spec);
  void remove_vm(std::size_t id);
  void update_vm(std::size_t id, const VmSpec& spec);

  [[nodiscard]] bool has_host(std::size_t id) const;
  [[nodiscard]] bool has_vm(std::size_t id) const;
  [[nodiscard]] std::size_t host_count() const { return active_hosts_.size(); }
  [[nodiscard]] std::size_t vm_count() const { return active_vms_.size(); }
  /// True if plan() has pending work (mutations since the last plan).
  [[nodiscard]] bool dirty() const { return hosts_dirty_ || !dirty_vms_.empty(); }

  /// Host ids in packing order: ascending packing_cost(), ties by
  /// ascending id (the documented deterministic tie-break). Independent of
  /// FfdOptions — this is the rank index the book maintains.
  [[nodiscard]] std::vector<std::size_t> packing_order() const;

  /// The placement, equivalent to place_ffd over the dense active lists.
  /// The reference stays valid (and unchanged) until the next mutation.
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
  /// FFD key order: memory decreasing, id ascending on ties.
  [[nodiscard]] bool ffd_before(double mem_a, std::size_t a, double mem_b,
                                std::size_t b) const {
    if (mem_a != mem_b) return mem_a > mem_b;
    return a < b;
  }
  [[nodiscard]] bool vm_spills(std::size_t vm, std::size_t host) const;
  /// First-fit scan over scan_order_ against the `new` capacity image.
  /// Returns the host id (kUnplaced if none) and the effective credit the
  /// fit reserved there.
  [[nodiscard]] std::pair<std::size_t, double> scan(std::size_t vm) const;
  void place_new(std::size_t vm);
  void replay_old(std::size_t vm);
  void touch(std::size_t host);
  void mark_vm_dirty(std::size_t id);
  void grow_vm_arrays(std::size_t id);
  void grow_host_arrays(std::size_t id);
  void rebuild_scan_order();
  void full_replay();
  void delta_replay();
  void snapshot_and_clear_dirty();
  void build_placement();

  FfdOptions opt_;

  // Host arenas, indexed by host id.
  std::vector<std::uint8_t> host_alive_;
  std::vector<double> host_mem_, host_cap_, host_penalty_, host_cost_;
  std::vector<std::size_t> host_nodes_;
  std::vector<std::size_t> host_dense_;  // id -> dense index (last plan)
  /// (packing_cost, id): the O(log n) rank index behind packing_order().
  std::set<std::pair<double, std::size_t>> host_rank_;
  std::vector<std::size_t> scan_order_;   // ids in first-fit candidate order
  std::vector<std::size_t> active_hosts_; // ids ascending
  bool hosts_dirty_ = true;

  // VM arenas, indexed by VM id.
  std::vector<std::uint8_t> vm_alive_;
  std::vector<double> vm_mem_, vm_credit_;
  std::vector<std::size_t> active_vms_;  // ids ascending
  std::vector<std::size_t> order_;       // ids in FFD key order
  std::vector<std::uint8_t> vm_dirty_;
  std::vector<std::size_t> dirty_vms_;

  // Previous-plan snapshot, indexed by VM id. Strictly read-only during a
  // replay — the walk writes into the new_* arrays and the snapshot step
  // folds them back, so an old-order event can never read a value the new
  // order already overwrote.
  bool have_plan_ = false;
  std::vector<std::size_t> last_order_;   // FFD order at the last plan
  std::vector<std::uint8_t> last_in_;     // was in the last plan
  std::vector<double> last_mem_;          // memory as last planned
  std::vector<double> last_credit_eff_;   // effective credit last reserved
  std::vector<std::size_t> last_assign_;  // vm id -> host id (or kUnplaced)

  // Replay scratch. Per VM id: the assignment being built. Per host id:
  // the old and new capacity images and the divergence flags of the merge
  // walk.
  std::vector<std::size_t> new_assign_;
  std::vector<double> new_credit_;
  std::vector<double> old_mem_, old_cap_, new_mem_, new_cap_;
  std::vector<std::uint8_t> div_flag_;
  std::size_t diverged_ = 0;

  Placement placement_;
  HostBookStats stats_;
};

}  // namespace pas::consolidation
