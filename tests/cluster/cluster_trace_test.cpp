// Trace-replay determinism + the record→replay round trip at cluster
// scale.
//
// Identity: draw_scenario(seed, hetero, /*trace_mix=*/true) re-rolls about
// half of each scenario's VMs into wl::TraceReplay over random step-series
// (off-grid timestamps, zero-demand gaps, series past the horizon), and
// the two engine contracts must hold bytes-for-bytes with those tenants in
// the mix: fast path ≡ reference loop (contract 1) and parallel ≡ serial
// at threads ∈ {1, 2, 4, hardware} (contract 3), migrations of replaying
// VMs included.
//
// Round trip (the ISSUE's loop closure): a synthetic hosting-cluster run
// recorded at trace_stride == monitor_window, exported per VM column
// through metrics::vm_demand_trace, replayed alone on a fresh host with
// capacity headroom and re-exported, reproduces each demand series CSV
// byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster_fuzz_common.hpp"
#include "common/thread_pool.hpp"
#include "metrics/trace_export.hpp"
#include "scenario/hosting_cluster.hpp"
#include "sched/credit_scheduler.hpp"

namespace pas::cluster {
namespace {

using fuzz::build_cluster;
using fuzz::draw_scenario;
using fuzz::expect_identical;
using fuzz::run_spec;
using fuzz::ScenarioSpec;
using fuzz::WlKind;

std::size_t trace_vm_count(const ScenarioSpec& spec) {
  return static_cast<std::size_t>(
      std::count_if(spec.vms.begin(), spec.vms.end(),
                    [](const fuzz::VmSpecF& v) { return v.kind == WlKind::kTrace; }));
}

// The shared prefix really is shared: trace_mix must not disturb the
// historical draws (hosts, scheduler, the untouched VMs, the script).
TEST(ClusterTraceTest, TraceMixAppendsAfterTheSharedPrefix) {
  std::size_t converted = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const ScenarioSpec plain = draw_scenario(seed);
    const ScenarioSpec mixed = draw_scenario(seed, /*hetero=*/false, /*trace_mix=*/true);
    ASSERT_EQ(plain.hosts, mixed.hosts) << seed;
    ASSERT_EQ(plain.sched, mixed.sched) << seed;
    ASSERT_EQ(plain.horizon, mixed.horizon) << seed;
    ASSERT_EQ(plain.vms.size(), mixed.vms.size()) << seed;
    ASSERT_EQ(plain.script.size(), mixed.script.size()) << seed;
    for (std::size_t i = 0; i < plain.script.size(); ++i) {
      ASSERT_EQ(plain.script[i].at, mixed.script[i].at) << seed;
      ASSERT_EQ(plain.script[i].vm, mixed.script[i].vm) << seed;
    }
    for (std::size_t i = 0; i < plain.vms.size(); ++i) {
      if (mixed.vms[i].kind == WlKind::kTrace) {
        ++converted;
        ASSERT_GE(mixed.vms[i].trace_points.size(), 3u) << seed;
      } else {
        ASSERT_EQ(plain.vms[i].kind, mixed.vms[i].kind) << seed << " vm " << i;
      }
      ASSERT_EQ(plain.vms[i].credit, mixed.vms[i].credit) << seed << " vm " << i;
      ASSERT_EQ(plain.vms[i].home, mixed.vms[i].home) << seed << " vm " << i;
    }
  }
  EXPECT_GT(converted, 20u);  // ~half of ~6.5 VMs over 20 seeds
}

// Contract 1 with replaying tenants: fast path ≡ reference loop.
TEST(ClusterTraceTest, FastPathIdenticalSeeds0to14) {
  std::size_t replaying = 0;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const ScenarioSpec spec = draw_scenario(seed, /*hetero=*/false, /*trace_mix=*/true);
    replaying += trace_vm_count(spec);
    auto slow = build_cluster(spec, /*fast_path=*/false, /*threads=*/1);
    auto fast = build_cluster(spec, /*fast_path=*/true, /*threads=*/1);
    run_spec(*slow, spec);
    run_spec(*fast, spec);
    expect_identical(*slow, *fast, seed, "trace-mix slow vs fast");
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(replaying, 15u);  // vacuity: the sweep replayed real traces
}

// Contract 3 with replaying tenants, over mixed-class fleets too.
void run_parallel_seed_range(std::uint64_t first, std::uint64_t count, bool hetero) {
  std::vector<std::size_t> threads{2, 4, common::ThreadPool::hardware_threads()};
  std::sort(threads.begin(), threads.end());
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
  threads.erase(std::remove(threads.begin(), threads.end(), std::size_t{1}),
                threads.end());

  std::size_t replaying = 0;
  std::size_t migrations = 0;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    const ScenarioSpec spec = draw_scenario(seed, hetero, /*trace_mix=*/true);
    replaying += trace_vm_count(spec);
    auto serial = build_cluster(spec, /*fast_path=*/true, /*threads=*/1);
    run_spec(*serial, spec);
    migrations += serial->migrations().size();
    for (const std::size_t t : threads) {
      auto parallel = build_cluster(spec, /*fast_path=*/true, t);
      run_spec(*parallel, spec);
      expect_identical(*serial, *parallel, seed,
                       std::string{hetero ? "hetero " : ""} + "trace-mix serial vs " +
                           std::to_string(t) + " threads");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(replaying, count) << "too few trace VMs across seeds";
  EXPECT_GT(migrations, count / 2) << "too few migrations across seeds";
}

TEST(ClusterTraceTest, ParallelIdenticalSeeds0to14) {
  run_parallel_seed_range(0, 15, /*hetero=*/false);
}
TEST(ClusterTraceTest, ParallelIdenticalHeteroSeeds0to14) {
  run_parallel_seed_range(0, 15, /*hetero=*/true);
}

// --- the round trip at cluster scale --------------------------------------

TEST(ClusterTraceTest, RecordedClusterRunReplaysByteIdentical) {
  scenario::HostingClusterConfig cfg;
  cfg.hosts = 2;
  cfg.vms = 8;
  cfg.horizon = common::seconds(120);
  cfg.trace_stride = common::seconds(1);  // == monitor window: rows tile time
  cfg.install_manager = false;            // static fleet; demand is the story
  auto recorded = scenario::build_hosting_cluster(cfg);
  recorded->run_until(cfg.horizon);

  std::size_t live_columns = 0;
  for (HostId h = 0; h < recorded->host_count(); ++h) {
    const metrics::TraceRecorder& rec = recorded->host(h).trace();
    ASSERT_GT(rec.size(), 100u);
    for (common::VmId slot = 0; slot < rec.vm_count(); ++slot) {
      const wl::Trace exported = metrics::vm_demand_trace(rec, slot, "rt");
      if (exported.total_work() > common::Work{}) ++live_columns;

      hv::HostConfig hc;
      hc.monitor_window = common::seconds(1);
      hc.trace_stride = common::seconds(1);
      hv::Host replay{hc, std::make_unique<sched::CreditScheduler>()};
      hv::VmConfig vc;
      vc.name = "replay";
      vc.credit = 95.0;
      replay.add_vm(vc, std::make_unique<wl::TraceReplay>(exported));
      replay.run_until(cfg.horizon);

      const auto& w = dynamic_cast<const wl::TraceReplay&>(replay.workload(0));
      EXPECT_TRUE(w.finished()) << "host " << h << " slot " << slot;
      const wl::Trace re_exported = metrics::vm_demand_trace(replay.trace(), 0, "rt");
      ASSERT_EQ(re_exported.to_csv(), exported.to_csv())
          << "host " << h << " slot " << slot;
    }
  }
  // Vacuity: the run must have produced real demand to replay (web + hog +
  // batch tenants across both hosts).
  EXPECT_GE(live_columns, 6u);
}

// The scenario preset behind the bench's --trace flag: deterministic
// assignment, and the same build twice is byte-identical run-for-run.
TEST(ClusterTraceTest, TracePresetIsDeterministic) {
  const auto traces = wl::Trace::load_dir(std::string{PAS_SOURCE_DIR} + "/examples/traces");
  ASSERT_EQ(traces.size(), 3u);

  scenario::HostingClusterConfig cfg;
  cfg.hosts = 4;
  cfg.vms = 16;
  cfg.horizon = common::seconds(400);
  cfg.workload = scenario::WorkloadPreset::kTrace;
  cfg.traces = traces;

  auto a = scenario::build_hosting_cluster(cfg);
  auto b = scenario::build_hosting_cluster(cfg);
  a->run_until(cfg.horizon);
  b->run_until(cfg.horizon);
  expect_identical(*a, *b, 0, "trace preset build A vs build B");

  // Missing traces fail loudly, not silently as an idle fleet.
  scenario::HostingClusterConfig empty = cfg;
  empty.traces.clear();
  EXPECT_THROW((void)scenario::build_hosting_cluster(empty), std::invalid_argument);
}

}  // namespace
}  // namespace pas::cluster
