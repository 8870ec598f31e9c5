#include "cluster/cluster_manager.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "consolidation/consolidation.hpp"
#include "core/compensation.hpp"
#include "platform/host_class.hpp"

namespace pas::cluster {

namespace {

consolidation::FfdOptions ffd_options(const ClusterManagerConfig& cfg) {
  consolidation::FfdOptions ffd;
  ffd.efficient_first = cfg.efficient_first;
  return ffd;
}

}  // namespace

ClusterManager::ClusterManager(ClusterManagerConfig config)
    : cfg_(config), migration_budget_left_(config.max_migrations_per_tick),
      book_(ffd_options(config)) {
  if (cfg_.period.us() <= 0)
    throw std::invalid_argument("ClusterManager: period must be positive");
  if (cfg_.restart_backoff.us() <= 0)
    throw std::invalid_argument("ClusterManager: restart backoff must be positive");
}

bool ClusterManager::browned_out(common::SimTime now) const {
  for (const auto& [from, until] : brownouts_)
    if (now >= from && now < until) return true;
  return false;
}

ClusterManager::ExternalAdmission ClusterManager::admit_external_migration(
    common::SimTime now) {
  if (browned_out(now)) return ExternalAdmission::kBrownout;
  if (migration_budget_left_ == 0) return ExternalAdmission::kNoBudget;
  --migration_budget_left_;
  return ExternalAdmission::kAdmitted;
}

void ClusterManager::add_brownout(common::SimTime from, common::SimTime until) {
  if (until <= from)
    throw std::invalid_argument("ClusterManager: empty brownout window");
  brownouts_.emplace_back(from, until);
}

consolidation::HostSpec ClusterManager::plan_host_spec(const Cluster& cluster,
                                                       HostId host) {
  // Host specs come from each host's *actual* platform class — ladder,
  // power model, memory and NUMA layout per machine, not one template —
  // so the plan sees the fleet the paper's Table 2 describes: machines
  // that differ.
  const platform::HostClass& cls = cluster.host_class(host);
  consolidation::HostSpec spec = platform::to_host_spec(cls);
  spec.name += '-';
  spec.name += std::to_string(host);
  // Reserve the hypervisor agent's credit out of the schedulable
  // capacity, like Dom0 in the paper's single-host budget.
  spec.cpu_capacity_pct = cls.cpu_capacity_pct - cluster.config().agent_credit;
  return spec;
}

consolidation::VmSpec ClusterManager::plan_vm_spec(const Cluster& cluster,
                                                   GlobalVmId vm) {
  const ClusterVmConfig& vc = cluster.vm_config(vm);
  consolidation::VmSpec spec;
  spec.name = vc.vm.name;
  spec.credit = vc.vm.credit;
  spec.memory_mb = vc.memory_mb;
  return spec;
}

void ClusterManager::sync_book(const Cluster& cluster) {
  // Membership: live hosts and running VMs are planned; crashed hosts and
  // orphaned, lost, stopped, inbound or departed VMs are not. Specs are
  // static (class, purchased credit, memory), so a member already on the
  // right side of that line needs nothing — a residency change is worked
  // off by the issuance pass against the (unchanged) plan. On an empty
  // book this pass is the seeding.
  for (HostId h = 0; h < cluster.host_count(); ++h) {
    const bool live = !cluster.crashed(h);
    if (live && !book_.has_host(h))
      book_.add_host(h, plan_host_spec(cluster, h));
    else if (!live && book_.has_host(h))
      book_.remove_host(h);
  }
  for (GlobalVmId vm = 0; vm < cluster.vm_count(); ++vm) {
    const bool live = cluster.vm_state(vm) == VmState::kRunning;
    if (live && !book_.has_vm(vm))
      book_.add_vm(vm, plan_vm_spec(cluster, vm));
    else if (!live && book_.has_vm(vm))
      book_.remove_vm(vm);
  }
}

void ClusterManager::recover_orphans(common::SimTime now, Cluster& cluster) {
  for (const GlobalVmId vm : cluster.orphaned_vms()) {
    RetryState& retry = retry_[vm];
    if (now < retry.next_attempt) continue;

    // First-fit over live hosts by *reservations* (memory + purchased
    // credit of running residents), the same static inputs the planner
    // packs by. Deliberate simplification: destinations of in-flight
    // migrations are not reserved — an overshoot is corrected by the next
    // consolidation pass, exactly like any other drift.
    const ClusterVmConfig& vc = cluster.vm_config(vm);
    std::vector<HostId> order;
    for (HostId h = 0; h < cluster.host_count(); ++h)
      if (!cluster.crashed(h)) order.push_back(h);
    if (cfg_.efficient_first) {
      std::stable_sort(order.begin(), order.end(), [&](HostId a, HostId b) {
        return consolidation::packing_cost(platform::to_host_spec(cluster.host_class(a))) <
               consolidation::packing_cost(platform::to_host_spec(cluster.host_class(b)));
      });
    }
    HostId target = 0;
    bool found = false;
    for (const HostId h : order) {
      double free_mem = cluster.host_memory_mb(h);
      double free_cpu =
          cluster.host_class(h).cpu_capacity_pct - cluster.config().agent_credit;
      // Only VMs with a slot on h can be resident there, and host_slots is
      // ascending by VM id — the same accumulation order as a full id scan
      // restricted to residents, so the sums are bit-identical.
      for (const auto& entry : cluster.host_slots(h)) {
        const GlobalVmId other = entry.first;
        if (cluster.vm_state(other) != VmState::kRunning) continue;
        if (cluster.residence(other) != h) continue;
        free_mem -= cluster.vm_config(other).memory_mb;
        free_cpu -= cluster.vm_config(other).vm.credit;
      }
      if (vc.memory_mb <= free_mem && vc.vm.credit <= free_cpu) {
        target = h;
        found = true;
        break;
      }
    }

    if (found && cluster.start_vm(vm, target)) {
      ++restarts_issued_;
      retry_.erase(vm);
      continue;
    }
    ++retry.attempts;
    if (retry.attempts >= cfg_.max_restart_attempts) {
      cluster.mark_lost(vm);
      ++restarts_abandoned_;
      retry_.erase(vm);
    } else {
      // Exponential backoff: attempt k failing waits backoff·2^(k−1).
      retry.next_attempt =
          now + common::usec(cfg_.restart_backoff.us() << (retry.attempts - 1));
    }
  }
}

void ClusterManager::on_tick(common::SimTime now, Cluster& cluster) {
  if (browned_out(now)) {
    // Browned out: the planner is simply absent this period. No partial
    // work — the next live tick re-plans from the drifted state. The
    // budget stays frozen too: external commands are rejected outright
    // inside the window (admit_external_migration), not billed against a
    // phantom period.
    ++ticks_skipped_;
    return;
  }
  ++ticks_;
  // A fresh period, a fresh migration budget — shared between this tick's
  // issuance loop and any external migrate commands that fire before the
  // next tick (admit_external_migration draws the same counter down).
  migration_budget_left_ = cfg_.max_migrations_per_tick;

  // Crash recovery runs before consolidation so a restarted VM is placed
  // by reservation fit now and re-packed by the very plan computed below.
  recover_orphans(now, cluster);

  if (cfg_.consolidate) {
    const std::uint64_t version = cluster.topology_version();
    const bool can_skip = have_version_ && version == last_version_ && converged_;
    if (can_skip) {
      // Provably unchanged tick: no residency/power/lifecycle change since
      // the last pass (the topology version is stable — every membership
      // change bumps it), and the last plan was fully worked off. The
      // planner's inputs are static, so a re-plan would recompute the
      // identical placement and the issuance loop would find every VM
      // already on target — skipping the whole pass is observationally
      // identical and O(1).
      ++plans_skipped_;
    } else {
      const auto wall0 = std::chrono::steady_clock::now();
      // Plan with FFD by memory with credit reservation, exactly the
      // static §2.3 planner — what changed is that the "current placement"
      // now disagrees with it, and the disagreement is worked off by live
      // migrations. Placement is reservation-driven (memory + purchased
      // credit, both static): SLAs must be honorable whatever the demand
      // does, and static inputs keep the plan stable between ticks.
      // Observed load enters below, in the DVFS step.
      // Plan over the *live* fleet only: running VMs (orphaned/lost ones
      // have no slot to pack) onto non-crashed hosts. The book reconciles
      // its membership with the fleet and serves its cached plan when that
      // changed nothing; its plan is dense over the survivors —
      // planned_vms/planned_hosts map it back.
      sync_book(cluster);
      const consolidation::Placement& plan = book_.plan();
      const std::vector<std::size_t>& plan_vms = book_.planned_vms();
      const std::vector<std::size_t>& plan_hosts = book_.planned_hosts();
      // Unplaced VMs are an explicit outcome: they stay where they are, and
      // the count is surfaced so operators see unserved reservations.
      last_plan_unplaced_ = plan.unplaced;

      std::size_t disagree = 0;
      for (std::size_t i = 0; i < plan_vms.size(); ++i) {
        const auto gid = static_cast<GlobalVmId>(plan_vms[i]);
        const std::size_t target = plan.assignment[i];
        if (target == consolidation::kUnplaced) continue;
        const auto target_host = static_cast<HostId>(plan_hosts[target]);
        if (target_host == cluster.residence(gid)) continue;
        // Off-plan: issue in plan order within the tick's budget; the count
        // feeds the convergence flag the early-out needs.
        ++disagree;
        if (migration_budget_left_ == 0) continue;
        if (cluster.migrating(gid)) continue;
        if (cluster.migrate(gid, target_host)) {
          ++migrations_issued_;
          --migration_budget_left_;
        }
      }
      // Converged = the fleet already matched the plan before this pass
      // issued anything. Recording the version AFTER issuance means our
      // own migrations don't force a re-plan — their completions bump the
      // version again and do.
      converged_ = disagree == 0;
      last_version_ = cluster.topology_version();
      have_version_ = true;
      ++planning_ticks_;
      planner_ns_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - wall0)
              .count());
    }
  }

  if (cfg_.vovo) {
    for (HostId h = 0; h < cluster.host_count(); ++h) {
      if (cluster.crashed(h)) continue;  // already off, and not revivable
      if (cluster.host_in_use(h))
        cluster.set_powered(h, true);
      else
        cluster.set_powered(h, false);
    }
  }

  apply_dvfs(cluster);
}

void ClusterManager::apply_dvfs(Cluster& cluster) {
  for (HostId h = 0; h < cluster.host_count(); ++h) {
    if (cluster.crashed(h)) continue;  // nothing left to scale or re-cap
    hv::Host& host = cluster.host(h);
    const cpu::FrequencyLadder& ladder = host.cpu().ladder();

    std::size_t target = ladder.max_index();
    if (cfg_.dvfs == ClusterManagerConfig::Dvfs::kPas && cluster.powered_on(h)) {
      // Listing 1.1 against the smoothed absolute load, with headroom so a
      // saturated-at-capacity host escalates instead of flapping.
      const double load = host.monitor().avg_absolute_load_pct() + cfg_.load_margin_pct;
      target = core::compute_new_freq_index(ladder, load);
    }
    const std::size_t applied = host.cpufreq().request(target);

    // Eq. 4: whatever the state, resident VMs keep the computing capacity
    // they purchased. (At max frequency the compensated credit equals the
    // purchased credit, so this also undoes stale compensation.) Only VMs
    // holding a slot here can be resident — host_slots walks them in
    // ascending VM id, the order the dense id scan used.
    for (const auto& entry : cluster.host_slots(h)) {
      const GlobalVmId gid = entry.first;
      if (cluster.residence(gid) != h) continue;
      if (cluster.vm_state(gid) != VmState::kRunning) continue;
      // A VM in its stop-and-copy pause has been drained from this slot
      // (cap 0, balance 0); re-capping it would mint credit into an empty
      // slot. The attach re-establishes the destination cap.
      if (cluster.engine().detached(gid)) continue;
      const common::Percent credit = cluster.vm_config(gid).vm.credit;
      host.scheduler().set_cap(entry.second,
                               core::compensated_credit(credit, ladder, applied));
    }
    host.scheduler().set_cap(0, core::compensated_credit(cluster.config().agent_credit,
                                                         ladder, applied));
  }
}

}  // namespace pas::cluster
