// Heterogeneous-fleet determinism: mixed platform classes (different
// ladders, power models, memory sizes, NUMA layouts per host) must not
// cost a single byte of reproducibility. Same harness as the uniform
// suites, with draw_scenario(seed, /*hetero=*/true) assigning each host a
// class from the platform catalog:
//
//   * parallel ≡ serial at threads in {1, 2, 4, hardware} (contract 3),
//   * fast path ≡ reference slow-stepped loop (contract 1),
//
// both swept over seeded random mixed fleets with managers (efficient-
// first FFD against per-host classes), live migrations between hosts of
// DIFFERENT classes, VOVO and per-host PAS on per-class ladders — the xeon
// class's cf < 1 states included.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster_fuzz_common.hpp"
#include "common/thread_pool.hpp"
#include "consolidation/consolidation.hpp"

namespace pas::cluster {
namespace {

using fuzz::build_cluster;
using fuzz::draw_scenario;
using fuzz::expect_identical;
using fuzz::run_spec;
using fuzz::ScenarioSpec;

std::vector<std::size_t> sweep_thread_counts() {
  std::vector<std::size_t> counts{2, 4, common::ThreadPool::hardware_threads()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  counts.erase(std::remove(counts.begin(), counts.end(), std::size_t{1}), counts.end());
  return counts;
}

void run_seed_range(std::uint64_t first, std::uint64_t count) {
  const std::vector<std::size_t> thread_counts = sweep_thread_counts();
  std::size_t total_migrations = 0;
  std::size_t mixed_scenarios = 0;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    const ScenarioSpec spec = draw_scenario(seed, /*hetero=*/true);
    ASSERT_EQ(spec.classes.size(), spec.hosts) << "seed " << seed;
    std::set<std::string> class_names;
    for (const auto& c : spec.classes) class_names.insert(c.name);
    if (class_names.size() > 1) ++mixed_scenarios;

    auto serial = build_cluster(spec, /*fast_path=*/true, /*threads=*/1);
    run_spec(*serial, spec);
    for (const std::size_t threads : thread_counts) {
      auto parallel = build_cluster(spec, /*fast_path=*/true, threads);
      run_spec(*parallel, spec);
      expect_identical(*serial, *parallel, seed,
                       "hetero serial vs " + std::to_string(threads) + " threads");
      if (::testing::Test::HasFatalFailure()) return;
    }
    total_migrations += serial->migrations().size();
  }
  // Vacuity guards: the sweep must exercise genuinely mixed fleets with
  // real migrations, not uniform or idle ones.
  EXPECT_GT(mixed_scenarios, count / 2) << "catalog draws barely mixed the fleets";
  EXPECT_GT(total_migrations, count / 2) << "too few migrations across seeds";
}

TEST(ClusterHeteroTest, ParallelIdenticalSeeds0to24) { run_seed_range(0, 25); }
TEST(ClusterHeteroTest, ParallelIdenticalSeeds25to49) { run_seed_range(25, 25); }

// Contract 1 on mixed fleets: the event-driven fast path reproduces the
// reference slow-stepped loop byte for byte when every host is a
// different machine.
TEST(ClusterHeteroTest, FastPathIdenticalSeeds0to14) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const ScenarioSpec spec = draw_scenario(seed, /*hetero=*/true);
    auto slow = build_cluster(spec, /*fast_path=*/false, /*threads=*/1);
    auto fast = build_cluster(spec, /*fast_path=*/true, /*threads=*/1);
    run_spec(*slow, spec);
    run_spec(*fast, spec);
    expect_identical(*slow, *fast, seed, "hetero slow vs fast");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The class list is the fleet: an empty one is refused loudly.
TEST(ClusterHeteroTest, RejectsContradictoryUniformScalars) {
  EXPECT_THROW((void)Cluster{ClusterConfig{}}, std::invalid_argument);
}

// The per-host classes really land on the hosts: ladders and memory match
// the drawn class, and the manager's planner sees the per-class memory
// (cluster.host_memory_mb) rather than one template scalar.
TEST(ClusterHeteroTest, HostsBuiltFromTheirClasses) {
  const ScenarioSpec spec = draw_scenario(7, /*hetero=*/true);
  auto cluster = build_cluster(spec, /*fast_path=*/true, /*threads=*/1);
  for (HostId h = 0; h < cluster->host_count(); ++h) {
    const platform::HostClass& cls = cluster->host_class(h);
    EXPECT_EQ(cls.name, spec.classes[h].name) << "host " << h;
    ASSERT_EQ(cluster->host(h).cpu().ladder().size(), cls.ladder.size()) << "host " << h;
    for (std::size_t i = 0; i < cls.ladder.size(); ++i) {
      EXPECT_EQ(cluster->host(h).cpu().ladder().at(i).freq, cls.ladder.at(i).freq)
          << "host " << h << " state " << i;
      EXPECT_EQ(cluster->host(h).cpu().ladder().at(i).cf, cls.ladder.at(i).cf)
          << "host " << h << " state " << i;
    }
    EXPECT_EQ(cluster->host_memory_mb(h), cls.memory_mb) << "host " << h;
  }
}

// Crash recovery is efficient-first too: an orphan restarts on the live
// host with the lowest packing_cost that has room for it — on the mixed
// catalog fleet (xeon, optiplex, elite, xeon) that is the elite-8300 —
// and, with efficient_first off, on the lowest-index host that fits.
// Returns where the VM homed on the crashed optiplex (host 1) restarted.
HostId restart_host_after_crash(bool efficient_first) {
  ClusterConfig cc;
  cc.host_classes = platform::mixed_fleet_classes(4);
  cc.host.trace_stride = common::SimTime{};  // pure accounting
  Cluster cluster{std::move(cc)};
  ClusterVmConfig vc;
  vc.vm.name = "tenant";
  vc.vm.credit = 10.0;
  vc.memory_mb = 1024.0;
  cluster.add_vm(std::move(vc), std::make_unique<wl::BusyLoop>(), 1);
  ClusterManagerConfig mc;
  mc.period = common::seconds(10);
  mc.consolidate = false;  // recovery alone decides where the VM lands
  mc.vovo = false;
  mc.efficient_first = efficient_first;
  cluster.install_manager(std::make_unique<ClusterManager>(mc));

  cluster.run_until(common::seconds(5));
  EXPECT_TRUE(cluster.crash_host(1, /*restart_orphans=*/true));
  EXPECT_EQ(cluster.vm_state(0), VmState::kOrphaned);
  cluster.run_until(common::seconds(30));
  EXPECT_EQ(cluster.vm_state(0), VmState::kRunning);
  EXPECT_EQ(cluster.recoveries().size(), 1u);
  return cluster.residence(0);
}

TEST(ClusterHeteroTest, RecoveryRestartsOnTheCheapestHostThatFits) {
  const std::vector<platform::HostClass> fleet = platform::mixed_fleet_classes(4);
  ASSERT_EQ(fleet[1].name, "optiplex-755") << "the crashed host";
  const HostId efficient = restart_host_after_crash(/*efficient_first=*/true);
  EXPECT_EQ(fleet[efficient].name, "elite-8300");
  for (HostId h = 0; h < fleet.size(); ++h) {
    if (h == 1) continue;  // crashed
    EXPECT_LE(consolidation::packing_cost(fleet[efficient]),
              consolidation::packing_cost(fleet[h]))
        << "host " << h;
  }
  EXPECT_EQ(restart_host_after_crash(/*efficient_first=*/false), 0u)
      << "index order: the lowest live host that fits";
}

}  // namespace
}  // namespace pas::cluster
