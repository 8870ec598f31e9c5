// Online cluster reconfiguration: the paper's §2.3 loop made dynamic.
//
// Every period the manager re-runs the consolidation planner from
// src/consolidation/ against the fleet's purchased credits and memory
// footprints (reservations, not demand: SLAs must be honorable whatever
// the guests do), and converges the cluster toward the plan with a bounded
// number of live migrations per tick (mass reshuffles are how real
// consolidation systems melt down). It then applies the paper's two knobs per powered-on
// host: VOVO — hosts left without residents are powered off, hosts the plan
// needs are powered on — and PAS-style DVFS: each host drops to the lowest
// P-state whose capacity covers its observed absolute load plus a margin,
// with every resident VM's credit re-compensated for the chosen state
// (eq. 4), so frequency scaling never silently shrinks what a customer
// bought. Disabling the DVFS step (kPinnedMax) gives the
// consolidation-only baseline the cluster bench compares against — the gap
// is the paper's "DVFS is complementary to consolidation", measured on a
// running fleet instead of a frozen placement.
//
// The planner's inputs (credits, memory) are static, so the plan is stable
// between ticks: once the fleet matches it, the manager issues no further
// migrations until demand moves the DVFS step.
//
// Planning reads fleet membership: the manager keeps a persistent
// consolidation::HostBook and, on every tick that plans, reconciles it with
// the cluster in one pass — live hosts and running VMs in, crashed hosts
// and every other VM out, each walked in ascending id. The book serves its
// last plan when that pass changed nothing and otherwise replays FFD
// through a first-fit max-index, and its plan is byte-identical to a
// from-scratch place_ffd over the live fleet — the equivalence
// tests/cluster/cluster_incremental_test.cpp checks at every tick through
// book(). On ticks where nothing changed at all — the topology version is
// stable and the fleet already matches the plan — the consolidation pass
// is skipped outright (plans_skipped()); VOVO and DVFS still run, as they
// track live load.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "consolidation/host_book.hpp"

namespace pas::cluster {

struct ClusterManagerConfig {
  common::SimTime period = common::seconds(60);
  /// Live-migration budget per tick.
  std::size_t max_migrations_per_tick = 4;
  enum class Dvfs {
    kPinnedMax,  // consolidation only: every powered-on host at max frequency
    kPas,        // per-host PAS frequency choice + eq. 4 credit compensation
  };
  Dvfs dvfs = Dvfs::kPas;
  /// Issue migrations at all (off = DVFS-only / static-placement baseline).
  bool consolidate = true;
  /// Power empty hosts off / needed hosts on.
  bool vovo = true;
  /// Heterogeneity-aware packing: the planner tries hosts in ascending
  /// idle-watts-per-MB order (consolidation::packing_cost), so VMs
  /// consolidate onto the machines that charge the least standby power for
  /// the binding resource and VOVO retires the expensive ones. No-op on
  /// uniform fleets (every cost ties — index order); turning it off on a
  /// mixed fleet gives the naive index-order baseline the cluster bench
  /// prices the feature against.
  bool efficient_first = true;
  /// Crash recovery: how often to retry restarting an orphaned VM before
  /// abandoning it as lost. Attempt k (1-based) failing schedules the next
  /// try backoff·2^(k−1) later — exponential backoff, evaluated at tick
  /// granularity (a retry due mid-period waits for the next tick).
  std::size_t max_restart_attempts = 5;
  common::SimTime restart_backoff = common::seconds(20);
};

class ClusterManager {
 public:
  explicit ClusterManager(ClusterManagerConfig config = {});

  [[nodiscard]] common::SimTime period() const { return cfg_.period; }
  [[nodiscard]] const ClusterManagerConfig& config() const { return cfg_; }

  /// One reconfiguration pass; invoked by the Cluster on its event queue.
  void on_tick(common::SimTime now, Cluster& cluster);

  /// Declares a planner brownout: every tick with from ≤ now < until is
  /// skipped outright (counted in ticks_skipped()), and the first tick
  /// after the window re-plans from whatever state the fleet drifted into
  /// — the graceful-recovery property the chaos tests pin. Callable any
  /// time (the fault injector calls it at arm time).
  void add_brownout(common::SimTime from, common::SimTime until);

  // --- external control (the ctl::ControlPlane's policy gate) ---
  enum class ExternalAdmission : std::uint8_t {
    kAdmitted = 0,
    kBrownout,  // the planner is browned out at `now`; nothing may migrate
    kNoBudget,  // this period's migration budget is already spent
  };

  /// Admission control for an externally-commanded migration: external
  /// commands obey the same rules as planner decisions — browned-out
  /// periods issue nothing, and planner + operator share ONE
  /// max_migrations_per_tick budget per period (kAdmitted decrements it,
  /// so an admitted command must be followed by the migrate call).
  [[nodiscard]] ExternalAdmission admit_external_migration(common::SimTime now);

  // --- diagnostics ---
  [[nodiscard]] std::size_t ticks() const { return ticks_; }
  [[nodiscard]] std::size_t ticks_skipped() const { return ticks_skipped_; }
  [[nodiscard]] std::size_t migrations_issued() const { return migrations_issued_; }
  /// Crash-recovery restarts issued / orphans abandoned after
  /// max_restart_attempts failures.
  [[nodiscard]] std::size_t restarts_issued() const { return restarts_issued_; }
  [[nodiscard]] std::size_t restarts_abandoned() const { return restarts_abandoned_; }
  /// VMs the *last* plan could not place (left resident where they were —
  /// the explicit-unplaced contract of consolidation::place_ffd).
  [[nodiscard]] std::size_t last_plan_unplaced() const { return last_plan_unplaced_; }
  /// Consolidation passes skipped by the unchanged-tick early-out.
  [[nodiscard]] std::size_t plans_skipped() const { return plans_skipped_; }
  /// Ticks that actually ran the consolidation pass, and the total wall
  /// time they spent in it (spec sync + plan + issuance) — the scale
  /// bench's planner-ns-per-tick gate divides these.
  [[nodiscard]] std::size_t planning_ticks() const { return planning_ticks_; }
  [[nodiscard]] std::uint64_t planner_ns() const { return planner_ns_; }
  [[nodiscard]] const consolidation::HostBookStats& book_stats() const {
    return book_.stats();
  }
  /// The planner book, read-only: last_plan() is the placement the last
  /// planning tick served, planned_vms()/planned_hosts() map its dense
  /// indices back to GlobalVmId/HostId.
  [[nodiscard]] const consolidation::HostBook& book() const { return book_; }

  /// The planner's view of a host (its class, with the hypervisor agent's
  /// credit reserved) and of a VM (purchased credit + memory) — what the
  /// book is fed, and what a from-scratch place_ffd oracle over the live
  /// fleet must be fed to reproduce its plan.
  [[nodiscard]] static platform::HostClass plan_host_spec(const Cluster& cluster,
                                                          HostId host);
  [[nodiscard]] static consolidation::VmSpec plan_vm_spec(const Cluster& cluster,
                                                          GlobalVmId vm);

 private:
  void recover_orphans(common::SimTime now, Cluster& cluster);
  void apply_dvfs(Cluster& cluster);
  /// Reconciles the book's membership with the fleet: hosts then VMs,
  /// ascending id, each added or removed by liveness.
  void sync_book(const Cluster& cluster);

  struct RetryState {
    std::size_t attempts = 0;
    common::SimTime next_attempt{};  // earliest tick allowed to retry
  };

  [[nodiscard]] bool browned_out(common::SimTime now) const;

  ClusterManagerConfig cfg_;
  std::vector<std::pair<common::SimTime, common::SimTime>> brownouts_;
  /// Remaining migrations this period — planner issuance and external
  /// admissions both draw it down; every live tick resets it.
  std::size_t migration_budget_left_ = 0;
  std::map<GlobalVmId, RetryState> retry_;  // ordered: deterministic iteration
  std::size_t ticks_ = 0;
  std::size_t ticks_skipped_ = 0;
  std::size_t migrations_issued_ = 0;
  std::size_t restarts_issued_ = 0;
  std::size_t restarts_abandoned_ = 0;
  std::size_t last_plan_unplaced_ = 0;

  // Planner state.
  consolidation::HostBook book_;
  std::uint64_t last_version_ = 0;
  bool have_version_ = false;
  bool converged_ = false;
  std::size_t plans_skipped_ = 0;
  std::size_t planning_ticks_ = 0;
  std::uint64_t planner_ns_ = 0;
};

}  // namespace pas::cluster
