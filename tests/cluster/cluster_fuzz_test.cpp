// Randomized differential test: the cluster layer must keep PR 1's
// fast-path equivalence guarantee as scenarios grow hosts, migrations and
// an online manager. Each seeded scenario is built twice — once with the
// event-driven fast path, once with the reference slow-stepped loop — and
// every observable cluster::first_divergence covers must match: per-host
// traces (every row, every column), integer accounting (busy/work/wanting
// per slot, idle time, frequency transitions), migration records
// (timelines, rounds, credit carried), residencies and cluster SLA
// counters — energy within its low-bit tolerance. Scenario shapes
// cover random VM counts and workload mixes, random migration cadences
// (manager-driven and scripted), off-grid monitor/trace/manager periods,
// and all three schedulers.
//
// The scenario generator and comparison live in cluster_fuzz_common.hpp,
// shared with cluster_parallel_test.cpp (parallel ≡ serial over the same
// seeds).
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "cluster_fuzz_common.hpp"
#include "common/divergence.hpp"

namespace pas::cluster {
namespace {

using fuzz::build_cluster;
using fuzz::draw_scenario;
using fuzz::expect_identical;
using fuzz::run_spec;
using fuzz::ScenarioSpec;

void run_seed_range(std::uint64_t first, std::uint64_t count) {
  std::size_t total_migrations = 0;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    const ScenarioSpec spec = draw_scenario(seed);
    auto slow = build_cluster(spec, /*fast_path=*/false);
    auto fast = build_cluster(spec, /*fast_path=*/true);
    run_spec(*slow, spec);
    run_spec(*fast, spec);
    expect_identical(*slow, *fast, seed, "slow vs fast");
    if (::testing::Test::HasFatalFailure()) return;
    total_migrations += slow->migrations().size();
  }
  // Guard against a vacuous shard: the random scenarios must actually
  // exercise the machinery under test.
  EXPECT_GT(total_migrations, count / 2) << "too few migrations across seeds";
}

// 100 scenarios, sharded so a failure names a narrow seed range and ctest
// can parallelize the work.
TEST(ClusterFuzzTest, FastPathIdenticalSeeds0to24) { run_seed_range(0, 25); }
TEST(ClusterFuzzTest, FastPathIdenticalSeeds25to49) { run_seed_range(25, 25); }
TEST(ClusterFuzzTest, FastPathIdenticalSeeds50to74) { run_seed_range(50, 25); }
TEST(ClusterFuzzTest, FastPathIdenticalSeeds75to99) { run_seed_range(75, 25); }

// The comparator's negative paths: a gate that cannot fail pins nothing.
TEST(ClusterFuzzTest, FirstDivergenceNamesThePerturbation) {
  // Three hosts, each running a web tenant and an idle one; no manager, so
  // nothing couples the hosts unless a scripted migration does.
  ScenarioSpec s;
  s.hosts = 3;
  s.horizon = common::seconds(60);
  s.trace_stride = common::seconds(1);
  s.monitor_window = common::seconds(1);
  for (HostId h = 0; h < s.hosts; ++h) {
    fuzz::VmSpecF web;
    web.kind = fuzz::WlKind::kWeb;
    web.credit = 20.0;
    web.home = h;
    web.seed = 100 + h;
    web.rate = wl::WebApp::rate_for_demand(10.0, common::mf_usec(10'000));
    web.from = common::seconds(5);
    web.until = common::seconds(50);
    fuzz::VmSpecF idle;
    idle.home = h;
    s.vms.push_back(web);   // vm 2h
    s.vms.push_back(idle);  // vm 2h + 1
  }
  const auto run = [](const ScenarioSpec& spec) {
    auto c = build_cluster(spec, /*fast_path=*/true);
    run_spec(*c, spec);
    return c;
  };
  const auto ref = run(s);
  EXPECT_EQ(first_divergence(*ref, *ref), std::nullopt);

  ScenarioSpec reseeded = s;
  ++reseeded.vms[4].seed;  // host 2's web tenant
  const std::optional<std::string> d_seed = first_divergence(*ref, *run(reseeded));
  ASSERT_TRUE(d_seed.has_value());
  EXPECT_EQ(d_seed->rfind("host 2: trace row ", 0), 0u) << *d_seed;

  ScenarioSpec moved = s;
  moved.script.push_back({common::seconds(30), /*vm=*/3, /*to=*/2});  // host 1's idle tenant
  const auto extra = run(moved);
  EXPECT_EQ(first_divergence(*ref, *extra), "migrations: 0 vs 1");
  // Within the ledger, the record comparison names the field.
  ASSERT_EQ(extra->migrations().size(), 1u);
  MigrationRecord longer = extra->migrations()[0];
  ++longer.rounds;
  EXPECT_EQ(migration_divergence(longer, longer), std::nullopt);
  EXPECT_EQ(migration_divergence(extra->migrations()[0], longer), "rounds: 1 vs 2");
}

TEST(ClusterFuzzTest, EnergyLowBitDriftIsTolerated) {
  // Seed 1's slow and fast runs differ only in the last bits of energy
  // (the fast path sums bulk-skip chunks in another order): the one
  // tolerance the comparator grants.
  const ScenarioSpec s = draw_scenario(1);
  auto slow = build_cluster(s, /*fast_path=*/false);
  auto fast = build_cluster(s, /*fast_path=*/true);
  run_spec(*slow, s);
  run_spec(*fast, s);
  ASSERT_NE(slow->energy_joules(), fast->energy_joules())
      << "energy is bit-exact now: drop common::kEnergyRelTolerance";
  EXPECT_EQ(first_divergence(*slow, *fast), std::nullopt);
  EXPECT_TRUE(common::energy_matches(1000.0, 1000.0 * (1.0 + 1e-12)));
  EXPECT_FALSE(common::energy_matches(1000.0, 1000.0 * (1.0 + 1e-6)));
}

}  // namespace
}  // namespace pas::cluster
