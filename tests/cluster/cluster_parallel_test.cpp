// The thread-count determinism harness: the cluster steps its hosts on a
// common::ThreadPool, and its results must be byte-identical — traces,
// migration records, SLA counters, energy totals — at ANY thread count,
// because worker threads only change *where* a host segment executes,
// never *what* it computes (the no-shared-state contract hv::Host
// enforces).
//
// Sweep: the same 100 seeded fuzz scenarios as cluster_fuzz_test.cpp, each
// run at threads = 1 (one executor, a plain loop: the reference) and
// re-run with threads in {2, 4, hardware}, deduplicated. Together with the
// fuzz test (slow ≡ fast at threads = 1) this closes the square: every
// (fast-path, thread-count) combination produces the one canonical result.
// A host that throws is the one outcome that is not a result: the lowest
// throwing host's exception surfaces, and every other host still finishes
// the segment, at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster_fuzz_common.hpp"
#include "common/thread_pool.hpp"
#include "workload/synthetic.hpp"

namespace pas::cluster {
namespace {

using fuzz::build_cluster;
using fuzz::draw_scenario;
using fuzz::expect_identical;
using fuzz::run_spec;
using fuzz::ScenarioSpec;

/// {2, 4, hardware} with duplicates and the one-executor case removed (on
/// a 2-core box hardware == 2; threads == 1 IS the reference run).
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
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    const ScenarioSpec spec = draw_scenario(seed);
    auto serial = build_cluster(spec, /*fast_path=*/true, /*threads=*/1);
    run_spec(*serial, spec);
    for (const std::size_t threads : thread_counts) {
      auto parallel = build_cluster(spec, /*fast_path=*/true, threads);
      run_spec(*parallel, spec);
      expect_identical(*serial, *parallel, seed,
                       "1 vs " + std::to_string(threads) + " threads");
      if (::testing::Test::HasFatalFailure()) return;
    }
    total_migrations += serial->migrations().size();
  }
  // Same vacuity guard as the fuzz test: the sweep must see real
  // migrations, manager ticks and SLA traffic, not idle fleets.
  EXPECT_GT(total_migrations, count / 2) << "too few migrations across seeds";
}

TEST(ClusterParallelTest, ParallelIdenticalSeeds0to24) { run_seed_range(0, 25); }
TEST(ClusterParallelTest, ParallelIdenticalSeeds25to49) { run_seed_range(25, 25); }
TEST(ClusterParallelTest, ParallelIdenticalSeeds50to74) { run_seed_range(50, 25); }
TEST(ClusterParallelTest, ParallelIdenticalSeeds75to99) { run_seed_range(75, 25); }

// The pool also reproduces the reference slow-stepped loop: fast path off
// + 4 threads vs the fuzz test's canonical slow one-thread run.
// A narrower sweep (first 10 seeds) — the full slow runs are the pricey
// side, and the fast-path equivalence is already pinned above.
TEST(ClusterParallelTest, SlowLoopParallelIdenticalSeeds0to9) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const ScenarioSpec spec = draw_scenario(seed);
    auto serial = build_cluster(spec, /*fast_path=*/false, /*threads=*/1);
    auto parallel = build_cluster(spec, /*fast_path=*/false, /*threads=*/4);
    run_spec(*serial, spec);
    run_spec(*parallel, spec);
    expect_identical(*serial, *parallel, seed, "slow 1-thread vs slow 4-thread");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// An always-runnable guest that throws from consume once its host's clock
/// reaches `at`, naming the host.
class ThrowingGuest final : public wl::Workload {
 public:
  ThrowingGuest(HostId host, common::SimTime at) : host_(host), at_(at) {}
  void advance_to(common::SimTime /*now*/) override {}
  [[nodiscard]] bool runnable() const override { return true; }
  common::Work consume(common::SimTime now, common::Work budget) override {
    if (now >= at_) throw std::runtime_error("guest on host " + std::to_string(host_));
    return budget;
  }
  [[nodiscard]] common::SimTime next_transition_time(common::SimTime /*now*/) override {
    return wl::kNoTransition;
  }

 private:
  HostId host_;
  common::SimTime at_;
};

// Guests on hosts 1 and 3 throw at t = 5 s. At every thread count the
// lowest throwing host's exception surfaces and host 2, between the two,
// still finishes the segment — one executor included.
TEST(ClusterParallelTest, ThrowingHostStopsNoOtherHost) {
  std::vector<common::SimTime> host2_reached;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ClusterConfig cc;
    cc.host_classes = platform::uniform_fleet_classes(4, {});
    cc.host.trace_stride = common::SimTime{};
    cc.execution.threads = threads;
    Cluster cluster{std::move(cc)};
    for (HostId h = 0; h < 4; ++h) {
      std::unique_ptr<wl::Workload> guest;
      if (h == 1 || h == 3)
        guest = std::make_unique<ThrowingGuest>(h, common::seconds(5));
      else
        guest = std::make_unique<wl::BusyLoop>();
      cluster.add_vm(ClusterVmConfig{}, std::move(guest), h);
    }
    std::string error;
    try {
      cluster.run_until(common::seconds(10));
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("host 1"), std::string::npos)
        << threads << " threads surfaced '" << error << "'";
    host2_reached.push_back(cluster.host(2).now());
  }
  EXPECT_GT(host2_reached.front().us(), common::seconds(5).us());
  for (const common::SimTime t : host2_reached)
    EXPECT_EQ(t.us(), host2_reached.front().us())
        << "host 2 stopped at a thread-dependent instant";
}

}  // namespace
}  // namespace pas::cluster
