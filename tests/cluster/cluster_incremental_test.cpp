// Equivalence suite for delta-driven planning: at every manager tick, the
// plan the manager served from its persistent HostBook must equal a
// from-scratch place_ffd over the live fleet (running VMs onto non-crashed
// hosts), and on ticks the unchanged-tick early-out skipped, every planned
// VM must already sit on its target — so skipping is invisible. The
// diagnostics prove the cheap paths actually ran (plans skipped, delta
// plans served, full rebuilds confined to host-set changes).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster_fuzz_common.hpp"
#include "consolidation/consolidation.hpp"
#include "platform/host_class.hpp"
#include "workload/synthetic.hpp"

namespace pas::cluster {
namespace {

using common::seconds;
using common::SimTime;
using fuzz::build_cluster;
using fuzz::draw_scenario;
using fuzz::ScenarioSpec;

/// The oracle: place_ffd over the cluster's live fleet, fed exactly what the
/// book is fed, must reproduce the plan the manager last served. A skipped
/// tick additionally claims the fleet already sits on that plan.
void expect_served_plan_is_ffd(const Cluster& cluster, bool skipped, const std::string& ctx) {
  const ClusterManager& mgr = *cluster.manager();
  std::vector<consolidation::VmSpec> vms;
  std::vector<std::size_t> vm_ids;
  for (GlobalVmId g = 0; g < cluster.vm_count(); ++g) {
    if (cluster.vm_state(g) != VmState::kRunning) continue;
    vms.push_back(ClusterManager::plan_vm_spec(cluster, g));
    vm_ids.push_back(g);
  }
  std::vector<consolidation::HostSpec> hosts;
  std::vector<std::size_t> host_ids;
  for (HostId h = 0; h < cluster.host_count(); ++h) {
    if (cluster.crashed(h)) continue;
    hosts.push_back(ClusterManager::plan_host_spec(cluster, h));
    host_ids.push_back(h);
  }
  consolidation::FfdOptions opt;
  opt.efficient_first = mgr.config().efficient_first;
  const consolidation::Placement want = consolidation::place_ffd(vms, hosts, opt);

  const consolidation::HostBook& book = mgr.book();
  ASSERT_EQ(book.planned_vms(), vm_ids) << ctx;
  ASSERT_EQ(book.planned_hosts(), host_ids) << ctx;
  ASSERT_EQ(book.last_plan().assignment, want.assignment) << ctx;
  ASSERT_EQ(book.last_plan().hosts_used, want.hosts_used) << ctx;
  ASSERT_EQ(book.last_plan().unplaced, want.unplaced) << ctx;
  for (std::size_t i = 0; skipped && i < vm_ids.size(); ++i) {
    if (want.assignment[i] == consolidation::kUnplaced) continue;
    EXPECT_EQ(cluster.residence(static_cast<GlobalVmId>(vm_ids[i])),
              host_ids[want.assignment[i]])
        << ctx << " vm " << vm_ids[i];
  }
}

/// Drives `cluster` to `horizon`, stopping right after every manager tick
/// (no step spans two) to check the contract. `actions` (time-sorted) run
/// once the cluster reaches their instant — after that instant's tick, as
/// run_spec applies scripted moves.
void run_checking_every_tick(
    Cluster& cluster, SimTime horizon,
    const std::vector<std::pair<SimTime, std::function<void()>>>& actions,
    const std::string& ctx) {
  const ClusterManager& mgr = *cluster.manager();
  std::size_t next_action = 0;
  SimTime next_tick = mgr.period();
  for (;;) {
    SimTime t = std::min(next_tick, horizon);
    if (next_action < actions.size()) t = std::min(t, actions[next_action].first);
    const std::size_t planned = mgr.planning_ticks();
    const std::size_t skipped = mgr.plans_skipped();
    cluster.run_until(t);
    if (mgr.planning_ticks() > planned || mgr.plans_skipped() > skipped)
      expect_served_plan_is_ffd(cluster, mgr.plans_skipped() > skipped,
                                ctx + " t=" + std::to_string(t.us()) + "us");
    if (::testing::Test::HasFatalFailure()) return;
    if (t == next_tick) next_tick = next_tick + mgr.period();
    while (next_action < actions.size() && actions[next_action].first == t)
      actions[next_action++].second();
    if (t == horizon) return;
  }
}

TEST(ClusterIncrementalTest, ServedPlanIsFromScratchFfdAtEveryTick) {
  std::size_t total_migrations = 0;
  std::size_t total_planned = 0;
  std::size_t total_skipped = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    ScenarioSpec s = draw_scenario(seed, /*hetero=*/seed % 2 == 0);
    if (!s.use_manager) {
      s.use_manager = true;  // the contract is about the manager
      s.mgr = ClusterManagerConfig{};
      s.mgr.period = seconds(15);
    }
    auto cluster = build_cluster(s, /*fast_path=*/true);
    std::vector<std::pair<SimTime, std::function<void()>>> moves;
    for (const fuzz::ScriptedMove& mv : s.script)
      moves.emplace_back(mv.at, [c = cluster.get(), mv] { (void)c->migrate(mv.vm, mv.to); });
    run_checking_every_tick(*cluster, s.horizon, moves, "seed " + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
    total_migrations += cluster->manager()->migrations_issued();
    total_planned += cluster->manager()->planning_ticks();
    total_skipped += cluster->manager()->plans_skipped();
  }
  // Vacuity guards: the sweep exercised real consolidation AND the
  // early-out earned its keep somewhere.
  EXPECT_GT(total_migrations, 10u);
  EXPECT_GT(total_planned, 25u);
  EXPECT_GT(total_skipped, 0u);
}

TEST(ClusterIncrementalTest, CrashAndRecoveryDriveFallbackAndDeltaPaths) {
  // A host crash must fall the book back to a full rebuild (the host set
  // changed); a later successful restart is a pure VM-membership change
  // and must be served by the delta merge walk. Timeline engineering: the
  // tick-5 plan consolidates midB onto host 1 over a slow link (100 MB/s →
  // ~6 s in flight), host 0 crashes at t=7, so at the tick-10 crash
  // fallback no host has 1800 MB free (midB still counts on host 2 until
  // its attach at ~11 s) and the orphan's first restart attempt fails. The
  // backoff retry at t=15 lands on the now-empty host 2 — a VM-only
  // mutation on a tick with no host changes, i.e. the delta path.
  platform::HostClass small = platform::optiplex_755();
  small.memory_mb = 2048.0;

  ClusterConfig cc;
  cc.host_classes = {small, small, small};
  cc.migration.link_mb_per_s = 100.0;
  ClusterVmConfig giant;
  giant.vm.name = "giant";
  giant.vm.credit = 10.0;
  giant.memory_mb = 1800.0;
  giant.dirty_mb_per_s = 1.0;
  ClusterVmConfig mid = giant;
  mid.vm.name = "mid";
  mid.memory_mb = 600.0;
  Cluster cluster{std::move(cc)};
  cluster.add_vm(giant, std::make_unique<wl::IdleGuest>(), 0);
  cluster.add_vm(mid, std::make_unique<wl::IdleGuest>(), 1);
  cluster.add_vm(mid, std::make_unique<wl::IdleGuest>(), 2);
  ClusterManagerConfig mc;
  mc.period = seconds(5);
  mc.max_restart_attempts = 3;
  mc.restart_backoff = seconds(5);
  cluster.install_manager(std::make_unique<ClusterManager>(mc));

  const std::vector<std::pair<SimTime, std::function<void()>>> crash = {
      {seconds(7), [&cluster] { ASSERT_TRUE(cluster.crash_host(0, /*restart_orphans=*/true)); }}};
  run_checking_every_tick(cluster, seconds(60), crash, "crash recovery");
  if (::testing::Test::HasFatalFailure()) return;

  // The recovery actually happened.
  ASSERT_EQ(cluster.recoveries().size(), 1u);
  EXPECT_EQ(cluster.vm_state(0), VmState::kRunning);

  const consolidation::HostBookStats& st = cluster.manager()->book_stats();
  EXPECT_GE(st.full_rebuilds, 2u) << "seed plan + the crash fallback";
  EXPECT_GE(st.delta_plans, 1u) << "the restart tick must delta-plan";
  EXPECT_GT(cluster.manager()->plans_skipped(), 0u) << "quiet tail must skip";
}

}  // namespace
}  // namespace pas::cluster
