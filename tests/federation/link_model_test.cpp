// Per-link migration pricing: the federation's LinkModel tiers must order
// costs the way the hardware does (intra-rack < cross-rack < WAN), apply
// the class-aware surcharges only to cross-class flights, and keep a
// runtime bandwidth change scoped to ONE link — each link owns its own
// MigrationEngine, so a degraded WAN circuit must never re-plan a flight
// on a different pair's link. A flight's endpoint hosts cannot crash until
// it resolves, and a shard's control plane rejects commands on a guest the
// federation owns before they cost the manager's migration budget.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "cluster/migration.hpp"
#include "common/units.hpp"
#include "control/control_plane.hpp"
#include "control/task.hpp"
#include "federation/federation.hpp"
#include "federation/link_model.hpp"
#include "platform/host_class.hpp"
#include "workload/synthetic.hpp"

namespace pas::fed {
namespace {

using common::seconds;
using common::SimTime;

TEST(LinkModelTest, PresetsPriceTiersInOrder) {
  // The same guest costs strictly more on each slower tier — both phases.
  // A shard's own MigrationConfig defaults are the intra-rack tier.
  const cluster::MigrationPlan intra =
      cluster::plan_migration(1024.0, 40.0, cluster::MigrationConfig{});
  const cluster::MigrationPlan cross =
      cluster::plan_migration(1024.0, 40.0, cross_rack_link().migration);
  const cluster::MigrationPlan wan =
      cluster::plan_migration(1024.0, 40.0, wan_link().migration);
  EXPECT_LT(intra.precopy_duration, cross.precopy_duration);
  EXPECT_LT(cross.precopy_duration, wan.precopy_duration);
  EXPECT_LT(intra.downtime, cross.downtime);
  EXPECT_LT(cross.downtime, wan.downtime);
}

TEST(LinkModelTest, ClassSurchargesApplyOnlyAcrossClasses) {
  platform::HostClass xeon;
  xeon.name = "xeon";
  platform::HostClass optiplex;
  optiplex.name = "optiplex";
  const LinkModel wan = wan_link();
  EXPECT_DOUBLE_EQ(wan.dirty_factor(xeon, xeon), 1.0);
  EXPECT_EQ(wan.switch_penalty(xeon, xeon), SimTime{});
  EXPECT_DOUBLE_EQ(wan.dirty_factor(xeon, optiplex), wan.cross_class_dirty_factor);
  EXPECT_EQ(wan.switch_penalty(xeon, optiplex), wan.cross_class_switch_latency);
  // Direction-blind: the surcharge models crossing classes, not which way.
  EXPECT_DOUBLE_EQ(wan.dirty_factor(optiplex, xeon), wan.cross_class_dirty_factor);
}

// --- federation-level flight pricing -----------------------------------

/// A minimal shard: two hosts of one class, one 512 MB guest (idle unless
/// given) homed on host 0, no manager — every flight below is scripted, so
/// the recorded schedule is exactly the pure cost model's.
std::unique_ptr<cluster::Cluster> mini_shard(
    const char* class_name,
    std::unique_ptr<wl::Workload> guest = std::make_unique<wl::IdleGuest>()) {
  cluster::ClusterConfig cc;
  platform::HostClass hc;
  hc.name = class_name;
  hc.memory_mb = 8192.0;
  cc.host_classes = {hc, hc};
  cc.host.trace_stride = SimTime{};  // pure accounting
  auto shard = std::make_unique<cluster::Cluster>(std::move(cc));
  cluster::ClusterVmConfig vc;
  vc.vm.name = "guest";
  vc.vm.credit = 10.0;
  vc.memory_mb = 512.0;
  vc.dirty_mb_per_s = 30.0;
  shard->add_vm(std::move(vc), std::move(guest), 0);
  return shard;
}

Federation two_shard_fed(const char* class_a, const char* class_b) {
  std::vector<std::unique_ptr<cluster::Cluster>> shards;
  shards.push_back(mini_shard(class_a));
  shards.push_back(mini_shard(class_b));
  return Federation{FederationConfig{}, std::move(shards)};
}

TEST(FederationLinkTest, SameClassWanFlightMatchesPurePlan) {
  Federation fed = two_shard_fed("host", "host");
  EXPECT_EQ(fed.link(0, 1).kind, LinkKind::kWan) << "empty racks = all-WAN";
  fed.run_until(seconds(5));
  ASSERT_TRUE(fed.migrate(0, 0, 1, 1));
  EXPECT_TRUE(fed.in_cross_shard_flight(0));
  fed.run_until(seconds(60));

  const cluster::MigrationPlan plan =
      cluster::plan_migration(512.0, 30.0, wan_link().migration);
  ASSERT_EQ(fed.cross_shard_records().size(), 1u);
  const FedMigrationRecord& rec = fed.cross_shard_records().front();
  EXPECT_EQ(rec.link, LinkKind::kWan);
  EXPECT_EQ(rec.from_shard, 0u);
  EXPECT_EQ(rec.to_shard, 1u);
  EXPECT_EQ(rec.record.start, seconds(5));
  EXPECT_EQ(rec.record.stop, seconds(5) + plan.precopy_duration);
  // Same platform class on both ends: the pure plan, no surcharge.
  EXPECT_EQ(rec.record.downtime, plan.downtime);
  EXPECT_EQ(rec.record.end, rec.record.stop + plan.downtime);
  EXPECT_EQ(rec.record.outcome, cluster::MigrationOutcome::kCompleted);
  // Global host ids on the record: shard 1's host 1 is federation host 3.
  EXPECT_EQ(rec.record.from, fed.global_host_id(0, 0));
  EXPECT_EQ(rec.record.to, fed.global_host_id(1, 1));

  // The guest actually moved: departed at the source, running at the
  // destination, the registry pointing at its new shard, and the pause
  // charged to the destination's SLA.
  EXPECT_EQ(fed.shard(0).vm_state(0), cluster::VmState::kDeparted);
  const FedVmRef loc = fed.locate(0);
  EXPECT_EQ(loc.shard, 1u);
  EXPECT_EQ(fed.shard(1).vm_state(loc.vm), cluster::VmState::kRunning);
  EXPECT_EQ(fed.shard(1).residence(loc.vm), 1u);
  EXPECT_EQ(fed.shard(1).sla().violation_time(loc.vm), plan.downtime);
  EXPECT_FALSE(fed.in_cross_shard_flight(0));
}

TEST(FederationLinkTest, CrossClassFlightPaysDirtyAndSwitchSurcharge) {
  Federation fed = two_shard_fed("xeon", "optiplex");
  const LinkModel& wan = fed.link(0, 1);
  fed.run_until(seconds(5));
  ASSERT_TRUE(fed.migrate(0, 0, 1, 1));
  fed.run_until(seconds(60));

  // The engine saw the stretched dirty rate AND the extra switch pause.
  const cluster::MigrationPlan plan = cluster::plan_migration(
      512.0, 30.0 * wan.cross_class_dirty_factor, wan.migration);
  ASSERT_EQ(fed.cross_shard_records().size(), 1u);
  const cluster::MigrationRecord& rec = fed.cross_shard_records().front().record;
  EXPECT_EQ(rec.stop, seconds(5) + plan.precopy_duration);
  EXPECT_EQ(rec.downtime, plan.downtime + wan.cross_class_switch_latency);
  EXPECT_EQ(rec.end, rec.stop + rec.downtime);

  // Strictly dearer than the same move between same-class shards: more
  // bytes on the wire and a later hand-over. (Downtime alone is NOT
  // monotone in the dirty rate — an extra pre-copy round can shrink the
  // residue — so the cost claim is total transfer and completion time.)
  Federation same = two_shard_fed("xeon", "xeon");
  same.run_until(seconds(5));
  ASSERT_TRUE(same.migrate(0, 0, 1, 1));
  same.run_until(seconds(60));
  ASSERT_EQ(same.cross_shard_records().size(), 1u);
  const cluster::MigrationRecord& cheap = same.cross_shard_records().front().record;
  EXPECT_GT(rec.transferred_mb, cheap.transferred_mb);
  EXPECT_GT(rec.end, cheap.end);
}

TEST(FederationLinkTest, RacksSelectCrossRackVersusWan) {
  std::vector<std::unique_ptr<cluster::Cluster>> shards;
  shards.push_back(mini_shard("host"));
  shards.push_back(mini_shard("host"));
  shards.push_back(mini_shard("host"));
  FederationConfig cfg;
  cfg.racks = {0, 0, 1};  // shards 0 and 1 share a rack; shard 2 is remote
  Federation fed{cfg, std::move(shards)};
  EXPECT_EQ(fed.link(0, 1).kind, LinkKind::kCrossRack);
  EXPECT_EQ(fed.link(0, 2).kind, LinkKind::kWan);
  EXPECT_EQ(fed.link(2, 1).kind, LinkKind::kWan) << "order must not matter";
  EXPECT_THROW((void)fed.link(1, 1), std::invalid_argument);
}

TEST(FederationLinkTest, BandwidthChangeIsScopedToOneLink) {
  // Two concurrent WAN flights out of shard 0, one per link. Degrading
  // link (0,1) mid-flight must lengthen ITS flight and leave the (0,2)
  // flight byte-identical to an undisturbed control federation.
  const auto build = [] {
    std::vector<std::unique_ptr<cluster::Cluster>> shards;
    shards.push_back(mini_shard("host"));
    shards.push_back(mini_shard("host"));
    shards.push_back(mini_shard("host"));
    // A second guest on shard 0 so both flights share a source shard.
    cluster::ClusterVmConfig vc;
    vc.vm.name = "guest2";
    vc.vm.credit = 10.0;
    vc.memory_mb = 512.0;
    vc.dirty_mb_per_s = 30.0;
    shards[0]->add_vm(std::move(vc), std::make_unique<wl::IdleGuest>(), 1);
    return Federation{FederationConfig{}, std::move(shards)};
  };

  Federation degraded = build();
  Federation control = build();
  for (Federation* fed : {&degraded, &control}) {
    fed->run_until(seconds(5));
    ASSERT_TRUE(fed->migrate(0, 0, 1, 0));  // guest 0 over link (0,1)
    ASSERT_TRUE(fed->migrate(0, 1, 2, 0));  // guest 1 over link (0,2)
    fed->run_until(seconds(6));
  }
  // Mid pre-copy (512 MB at 100 MB/s spans [5, 10.12]): halve ONE link.
  degraded.set_link_bandwidth(0, 1, 50.0);
  degraded.run_until(seconds(120));
  control.run_until(seconds(120));

  ASSERT_EQ(degraded.cross_shard_records().size(), 2u);
  ASSERT_EQ(control.cross_shard_records().size(), 2u);
  const auto find = [](const Federation& fed, ShardId to) {
    for (const FedMigrationRecord& r : fed.cross_shard_records())
      if (r.to_shard == to) return r;
    throw std::logic_error("record not found");
  };
  // The degraded link's flight stretched…
  EXPECT_GT(find(degraded, 1).record.end, find(control, 1).record.end);
  // …and the other link's flight did not move by a single microsecond.
  const cluster::MigrationRecord& a = find(degraded, 2).record;
  const cluster::MigrationRecord& b = find(control, 2).record;
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.downtime, b.downtime);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_DOUBLE_EQ(a.transferred_mb, b.transferred_mb);
}

TEST(FederationLinkTest, SelfLinkBandwidthReachesTheShardEngine) {
  Federation fed = two_shard_fed("host", "host");
  fed.set_link_bandwidth(0, 0, 123.0);
  EXPECT_DOUBLE_EQ(fed.shard(0).link_bandwidth(), 123.0);
  EXPECT_DOUBLE_EQ(fed.shard(1).link_bandwidth(),
                   cluster::MigrationConfig{}.link_mb_per_s)
      << "the other shard's internal link is untouched";
}

TEST(FederationLinkTest, FlightGuardsRefuseConflictingMoves) {
  Federation fed = two_shard_fed("host", "host");
  fed.run_until(seconds(5));
  ASSERT_TRUE(fed.migrate(0, 0, 1, 1));
  // In flight: neither tier may touch the VM until the link is done.
  EXPECT_FALSE(fed.migrate(0, 0, 1, 0)) << "double cross-shard move";
  EXPECT_FALSE(fed.shard(0).migrate(0, 1)) << "shard-local move of a fed-locked VM";
  EXPECT_TRUE(fed.shard(0).federation_locked(0));
  fed.run_until(seconds(60));
  // Completed: the source-side id is departed — also not migratable.
  EXPECT_FALSE(fed.migrate(0, 0, 1, 0));
}

// --- crashes at flight endpoints ---------------------------------------
//
// A flight from shard 0 host 0 to shard 1 host 1 starts at t = 5 s; its
// WAN pre-copy of 512 MB takes several seconds, so t = 6 s is mid pre-copy
// on both ends. A crash of either endpoint is refused (like a crash of the
// last live host) until the flight resolves, then succeeds.

/// Starts the scripted flight and stops the clock one second into its
/// pre-copy.
void start_flight_and_enter_precopy(Federation& fed) {
  fed.run_until(seconds(5));
  ASSERT_TRUE(fed.migrate(0, 0, 1, 1));
  fed.run_until(seconds(6));
  ASSERT_GT(cluster::plan_migration(512.0, 30.0, wan_link().migration).precopy_duration,
            seconds(1))
      << "vacuous: the flight must still be in pre-copy at t = 6 s";
  ASSERT_TRUE(fed.in_cross_shard_flight(0));
}

TEST(FederationLinkTest, SourceCrashMidPrecopyIsRefusedUntilTheFlightResolves) {
  Federation fed = two_shard_fed("host", "host");
  ASSERT_NO_FATAL_FAILURE(start_flight_and_enter_precopy(fed));

  EXPECT_FALSE(fed.shard(0).crash_host(0, /*restart_orphans=*/false))
      << "the source slot belongs to the link until detach";
  EXPECT_FALSE(fed.shard(0).crashed(0));
  EXPECT_EQ(fed.shard(0).vm_state(0), cluster::VmState::kRunning);

  // The flight completes as if nothing happened: detach finds the guest
  // it expects and departs it.
  ASSERT_NO_THROW(fed.run_until(seconds(60)));
  ASSERT_EQ(fed.cross_shard_records().size(), 1u);
  EXPECT_EQ(fed.cross_shard_records().front().record.outcome,
            cluster::MigrationOutcome::kCompleted);
  EXPECT_EQ(fed.shard(0).vm_state(0), cluster::VmState::kDeparted);

  // Resolved: host 0 is an ordinary host again.
  EXPECT_TRUE(fed.shard(0).crash_host(0, /*restart_orphans=*/false));
  EXPECT_TRUE(fed.shard(0).crashed(0));
}

TEST(FederationLinkTest, SourceCrashCannotOrphanAFlyingGuest) {
  // A guest with real demand, so the test can tell it apart from the
  // IdleGuest a drained slot parks.
  std::vector<std::unique_ptr<cluster::Cluster>> shards;
  shards.push_back(mini_shard("host", std::make_unique<wl::BusyLoop>()));
  shards.push_back(mini_shard("host"));
  Federation fed{FederationConfig{}, std::move(shards)};
  ASSERT_NO_FATAL_FAILURE(start_flight_and_enter_precopy(fed));

  EXPECT_FALSE(fed.shard(0).crash_host(0, /*restart_orphans=*/true));
  EXPECT_TRUE(fed.shard(0).orphaned_vms().empty());
  EXPECT_FALSE(fed.shard(0).start_vm(0, 1)) << "nothing held: the guest never orphaned";

  ASSERT_NO_THROW(fed.run_until(seconds(60)));
  // The guest itself landed on shard 1 and keeps working there; shard 0
  // runs nothing.
  const FedVmRef loc = fed.locate(0);
  ASSERT_EQ(loc.shard, 1u);
  EXPECT_EQ(fed.shard(1).vm_state(loc.vm), cluster::VmState::kRunning);
  const common::Work landed = fed.shard(1).vm_stats(loc.vm).total_work;
  fed.run_until(seconds(80));
  EXPECT_GT(fed.shard(1).vm_stats(loc.vm).total_work, landed);
  EXPECT_EQ(fed.shard(0).running_vm_count(), 0u);

  EXPECT_TRUE(fed.shard(0).crash_host(0, /*restart_orphans=*/true));
  EXPECT_TRUE(fed.shard(0).orphaned_vms().empty()) << "a departed ghost is not a resident";
}

TEST(FederationLinkTest, DestinationCrashMidPrecopyIsRefusedUntilTheGuestLands) {
  Federation fed = two_shard_fed("host", "host");
  ASSERT_NO_FATAL_FAILURE(start_flight_and_enter_precopy(fed));
  const cluster::GlobalVmId inbound = 1;  // shard 1's own guest holds id 0
  ASSERT_EQ(fed.shard(1).vm_state(inbound), cluster::VmState::kInbound);

  EXPECT_FALSE(fed.shard(1).crash_host(1, /*restart_orphans=*/true))
      << "the landing slot belongs to the link until attach";
  EXPECT_FALSE(fed.shard(1).crashed(1));
  EXPECT_TRUE(fed.shard(1).powered_on(1));

  ASSERT_NO_THROW(fed.run_until(seconds(60)));
  EXPECT_EQ(fed.shard(1).vm_state(inbound), cluster::VmState::kRunning);
  EXPECT_EQ(fed.locate(0).vm, inbound);

  // Landed: the guest is an ordinary resident, orphaned by a crash.
  EXPECT_TRUE(fed.shard(1).crash_host(1, /*restart_orphans=*/true));
  EXPECT_EQ(fed.shard(1).vm_state(inbound), cluster::VmState::kOrphaned);
}

// --- a shard's control plane next to a federation flight ----------------

/// Two shards; shard 0 holds guest 0 (flown to shard 1 host 1 at t = 5 s)
/// and guest 1 on host 0, a manager that only owns the budget (one
/// migration per 20 s period, no consolidation, no VOVO) and the operator
/// stream `tasks`. Runs to t = 40 s.
std::unique_ptr<Federation> fed_with_control(const char* tasks) {
  auto src = mini_shard("host");
  cluster::ClusterVmConfig vc;
  vc.vm.name = "stay";
  vc.vm.credit = 10.0;
  vc.memory_mb = 512.0;
  src->add_vm(std::move(vc), std::make_unique<wl::IdleGuest>(), 0);
  cluster::ClusterManagerConfig mc;
  mc.period = seconds(20);
  mc.max_migrations_per_tick = 1;
  mc.consolidate = false;
  mc.vovo = false;
  src->install_manager(std::make_unique<cluster::ClusterManager>(mc));
  src->install_control(std::make_unique<ctl::ControlPlane>(
      ctl::parse_tasks(tasks, "ops.json", {src->host_count(), src->vm_count()})));
  std::vector<std::unique_ptr<cluster::Cluster>> shards;
  shards.push_back(std::move(src));
  shards.push_back(mini_shard("host"));
  auto fed = std::make_unique<Federation>(FederationConfig{}, std::move(shards));
  fed->run_until(seconds(5));
  EXPECT_TRUE(fed->migrate(0, 0, 1, 1));
  fed->run_until(seconds(40));
  return fed;
}

TEST(FederationLinkTest, ControlPlaneRejectsFederationOwnedGuestsBeforeAdmission) {
  const auto fed = fed_with_control(R"([
{"id": 1, "at_s": 6.0, "task": "migrate", "vm": 0, "host": 1},
{"id": 2, "at_s": 30.0, "task": "migrate", "vm": 0, "host": 1},
{"id": 3, "at_s": 31.0, "task": "migrate", "vm": 1, "host": 1}
])");
  // Task 1 fires mid pre-copy (guest 0 fed-locked) in the first budget
  // period; tasks 2 and 3 share the second, after the flight resolved
  // (guest 0 departed).
  ASSERT_EQ(fed->shard(0).vm_state(0), cluster::VmState::kDeparted);
  const std::vector<ctl::TaskResult>& results = fed->shard(0).control()->results();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, ctl::TaskStatus::kRejected);
  EXPECT_EQ(results[0].reason, "vm 0 is in a cross-cluster flight");
  EXPECT_EQ(results[1].status, ctl::TaskStatus::kRejected);
  EXPECT_EQ(results[1].reason, "vm 0 departed to another cluster");
  // The rejected migrate did not draw the period's single budget unit.
  EXPECT_EQ(results[2].status, ctl::TaskStatus::kOk) << results[2].reason;
  EXPECT_EQ(fed->shard(0).residence(1), 1u);
}

TEST(FederationLinkTest, ControlPlaneNamesTheFlightWhenACrashIsRefused) {
  const auto fed = fed_with_control(R"([
{"id": 1, "at_s": 6.0, "task": "crash_host", "host": 0, "restart": true}
])");
  const std::vector<ctl::TaskResult>& results = fed->shard(0).control()->results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, ctl::TaskStatus::kRejected);
  EXPECT_EQ(results[0].reason, "host 0 is a cross-cluster flight endpoint")
      << "not the last live host: host 1 is alive";
  EXPECT_FALSE(fed->shard(0).crashed(0));
  EXPECT_EQ(fed->shard(0).vm_state(0), cluster::VmState::kDeparted);
}

}  // namespace
}  // namespace pas::fed
