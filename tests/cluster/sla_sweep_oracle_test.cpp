// SLA sweep oracle: the cluster's per-window SLA sample must charge every
// VM exactly what a full scan over all VMs would. At each monitor-window
// instant a pair of schedule_at hooks brackets the cluster's SLA task: the
// first fires just before it (a pre-start hook holds an older queue seq
// than the re-armed periodic task) and replays the full scan — every
// running, non-detached VM's last-window reading at its residence slot —
// into a reference SlaChecker; the second fires 1 µs later and asserts the
// cluster checker moved by exactly the reference's increments, VM by VM.
// A window in which anything else could touch the counters or the scan's
// inputs (a migration record, a recovery, a lifecycle, residence or
// detach change, a new VM) is skipped and counted; the guards below keep
// the skipped share under 5 % and require that detached, federation-locked,
// inbound and orphaned VMs, saturated windows and violations all occurred
// in checked windows. A last case adds a saturating slot behind the
// cluster's back and checks it charges no VM.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "cluster_fuzz_common.hpp"
#include "fault/fault.hpp"
#include "federation/federation.hpp"
#include "metrics/sla_checker.hpp"
#include "platform/host_class.hpp"
#include "scenario/federation_scenario.hpp"
#include "workload/synthetic.hpp"

namespace pas::cluster {
namespace {

using common::SimTime;

/// What the checked windows covered, summed over every oracle of a test.
struct Coverage {
  std::size_t checked = 0;
  std::size_t skipped = 0;
  std::size_t saturated = 0;  // VM-windows the scan charged as observed
  std::size_t violated = 0;   // ... and as violated
  std::size_t detached = 0;
  std::size_t fed_locked = 0;
  std::size_t inbound = 0;
  std::size_t orphaned = 0;
};

class SlaSweepOracle {
 public:
  SlaSweepOracle(Cluster& cluster, SimTime horizon, Coverage& coverage)
      : cluster_(cluster), coverage_(coverage) {
    const SimTime window = cluster.config().host.monitor_window;
    // From the second window on: at the first, the task armed at start
    // still holds the older seq and fires before any hook.
    for (SimTime t = window * 2; t <= horizon; t += window) {
      cluster.schedule_at(t, [this](SimTime) { before(); });
      cluster.schedule_at(t + common::usec(1), [this](SimTime) { after(); });
    }
  }

 private:
  struct Snapshot {
    VmState state;
    HostId residence;
    bool detached;
    SimTime observed, violation, ref_observed, ref_violation;
  };

  void before() {
    const Cluster& c = cluster_;
    while (registered_ < c.vm_count()) {
      ref_.register_vm(static_cast<GlobalVmId>(registered_),
                       c.vm_config(static_cast<GlobalVmId>(registered_)).vm.credit);
      ++registered_;
    }
    migrations_ = c.migrations().size();
    recoveries_ = c.recoveries().size();
    seen_.clear();
    window_ = Coverage{};
    const SimTime window = c.config().host.monitor_window;
    for (GlobalVmId g = 0; g < c.vm_count(); ++g) {
      const Snapshot s{c.vm_state(g),        c.residence(g),
                       c.engine().detached(g), c.sla().observed_time(g),
                       c.sla().violation_time(g), ref_.observed_time(g),
                       ref_.violation_time(g)};
      seen_.push_back(s);
      if (s.state == VmState::kInbound) ++window_.inbound;
      if (s.state == VmState::kOrphaned) ++window_.orphaned;
      if (s.state != VmState::kRunning) continue;
      if (c.federation_locked(g)) ++window_.fed_locked;
      if (s.detached) {
        ++window_.detached;
        continue;
      }
      // The full scan: the VM's reading at its residence slot.
      const hv::Host& h = c.host(s.residence);
      const common::VmId slot = c.home_slot(g);
      ref_.record_window(g, window, h.monitor().vm_absolute_load_pct(slot),
                         std::ranges::binary_search(h.saturated_slots(), slot));
      if (ref_.observed_time(g) != s.ref_observed) ++window_.saturated;
      if (ref_.violation_time(g) != s.ref_violation) ++window_.violated;
    }
  }

  void after() {
    const Cluster& c = cluster_;
    bool quiet = c.vm_count() == seen_.size() && c.migrations().size() == migrations_ &&
                 c.recoveries().size() == recoveries_;
    for (GlobalVmId g = 0; quiet && g < seen_.size(); ++g)
      quiet = c.vm_state(g) == seen_[g].state && c.residence(g) == seen_[g].residence &&
              c.engine().detached(g) == seen_[g].detached;
    if (!quiet) {
      ++coverage_.skipped;
      return;
    }
    for (GlobalVmId g = 0; g < seen_.size(); ++g) {
      const Snapshot& s = seen_[g];
      ASSERT_EQ(c.sla().observed_time(g) - s.observed, ref_.observed_time(g) - s.ref_observed)
          << "vm " << g << " at " << c.now().us() << " us";
      ASSERT_EQ(c.sla().violation_time(g) - s.violation,
                ref_.violation_time(g) - s.ref_violation)
          << "vm " << g << " at " << c.now().us() << " us";
    }
    ++coverage_.checked;
    coverage_.saturated += window_.saturated;
    coverage_.violated += window_.violated;
    coverage_.detached += window_.detached;
    coverage_.fed_locked += window_.fed_locked;
    coverage_.inbound += window_.inbound;
    coverage_.orphaned += window_.orphaned;
  }

  Cluster& cluster_;
  Coverage& coverage_;
  metrics::SlaChecker ref_;
  std::size_t registered_ = 0;
  std::size_t migrations_ = 0;
  std::size_t recoveries_ = 0;
  std::vector<Snapshot> seen_;
  Coverage window_;
};

void expect_mostly_checked(const Coverage& cov) {
  EXPECT_GT(cov.checked, 0u);
  EXPECT_LT(cov.skipped * 20, cov.checked) << "more than 5 % of the windows were skipped";
  EXPECT_GT(cov.saturated, 0u);
}

TEST(SlaSweepOracleTest, ChaosAndMigrationsChargeTheFullScan) {
  // The chaos suite's corpus: host crashes with orphan restarts, aborted
  // and lost flights, plus manager and scripted intra-cluster migrations
  // over a link slow enough to hold guests detached across windows.
  fault::FaultConfig chaos;
  chaos.max_crashes = 2;
  chaos.max_migration_aborts = 2;
  chaos.max_link_degrades = 2;
  chaos.max_brownouts = 1;
  chaos.restart_probability = 0.75;
  Coverage cov;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    fuzz::ScenarioSpec spec = fuzz::draw_scenario(seed);
    spec.migration.link_mb_per_s = 25.0;
    auto cluster = fuzz::build_cluster(spec, /*fast_path=*/true);
    cluster->install_faults(std::make_unique<fault::FaultInjector>(
        fault::draw_fault_plan(chaos, seed, spec.hosts, spec.horizon)));
    SlaSweepOracle oracle(*cluster, spec.horizon, cov);
    fuzz::run_spec(*cluster, spec);
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_mostly_checked(cov);
  EXPECT_GT(cov.violated, 0u);
  EXPECT_GT(cov.detached, 0u);
  EXPECT_GT(cov.orphaned, 0u);
}

TEST(SlaSweepOracleTest, FederationChargesTheFullScanInEveryShard) {
  // K = 2 with host crashes: cross-shard flights leave federation-locked
  // guests on the source shard and kInbound slots on the destination.
  scenario::FederationScenarioConfig cfg;
  cfg.base.hosts = 4;
  cfg.base.vms = 24;
  cfg.base.horizon = common::seconds(600);
  cfg.base.seed = 17;
  cfg.base.chaos_seed = 7;
  cfg.base.chaos.max_crashes = 2;
  cfg.shards = 2;
  std::unique_ptr<fed::Federation> federation = scenario::build_federation(cfg);
  Coverage cov;
  std::vector<std::unique_ptr<SlaSweepOracle>> oracles;
  for (fed::ShardId s = 0; s < federation->shard_count(); ++s)
    oracles.push_back(
        std::make_unique<SlaSweepOracle>(federation->shard(s), cfg.base.horizon, cov));
  federation->run_until(cfg.base.horizon);
  ASSERT_GE(federation->cross_shard_records().size(), 1u);
  expect_mostly_checked(cov);
  EXPECT_GT(cov.fed_locked, 0u);
  EXPECT_GT(cov.inbound, 0u);
}

TEST(SlaSweepOracleTest, SlotAddedBehindTheClusterChargesNoVm) {
  // A slot added straight through Cluster::host() belongs to no cluster VM
  // and lies past the end of the cluster's slot-owner table: its saturated
  // windows must charge nobody.
  ClusterConfig cc;
  cc.host_classes = platform::uniform_fleet_classes(1, {});
  Cluster cluster(std::move(cc));
  ClusterVmConfig vc;
  vc.vm.name = "idle";
  vc.vm.credit = 50.0;
  const GlobalVmId idle = cluster.add_vm(std::move(vc), std::make_unique<wl::IdleGuest>(), 0);
  hv::VmConfig stray;
  stray.name = "stray";
  stray.credit = 20.0;
  const common::VmId slot = cluster.host(0).add_vm(stray, std::make_unique<wl::BusyLoop>());
  cluster.run_until(common::seconds(5));
  ASSERT_TRUE(std::ranges::binary_search(cluster.host(0).saturated_slots(), slot));
  EXPECT_EQ(cluster.sla().observed_time(idle), SimTime{});
  EXPECT_EQ(cluster.sla().violation_time(idle), SimTime{});
}

}  // namespace
}  // namespace pas::cluster
