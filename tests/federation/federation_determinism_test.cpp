// Federation determinism suite: the cluster's byte-identity contract,
// lifted to the sharded tier. A federated run must be byte-identical
// across the fast/slow host paths and every executor thread count (shards
// advance concurrently between federation events, but share no mutable
// state and every cross-shard event fires serially after the barrier;
// threads are wall-clock only), and a single-shard federation must degrade
// to EXACTLY the bare hosting cluster — same trace rows, same energy bits
// — because it schedules no federation events at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "../cluster/cluster_fuzz_common.hpp"
#include "cluster/cluster.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "fault/fault.hpp"
#include "federation/federation.hpp"
#include "scenario/federation_scenario.hpp"
#include "scenario/hosting_cluster.hpp"

namespace pas::fed {
namespace {

using common::seconds;

// With `chaos`, hosts crash inside shards that advance concurrently.
scenario::FederationScenarioConfig fed_config(std::size_t shards, bool fast_path,
                                              std::size_t threads, bool chaos = false) {
  scenario::FederationScenarioConfig cfg;
  // 24 VMs: the quarter-skew (6 tenants) opens a ~0.2 reserved-memory
  // utilization gap — comfortably above the planner's 0.10 threshold, so
  // the multi-shard suites exercise real cross-shard flights. (16 VMs
  // would leave the gap at ~0.094: a federation that never migrates.)
  cfg.base.hosts = 4;
  cfg.base.vms = 24;
  cfg.base.horizon = seconds(600);
  cfg.base.seed = 17;
  cfg.base.fast_path = fast_path;
  cfg.base.threads = threads;
  cfg.shards = shards;
  if (chaos) {
    cfg.base.chaos_seed = 7;
    cfg.base.chaos.max_crashes = 2;
  }
  return cfg;
}

TEST(FederationDeterminismTest, SingleShardDegradesToBareCluster) {
  // K = 1: the federation schedules nothing, so the run IS the bare
  // cluster's run — byte for byte, energy bits included.
  const scenario::FederationScenarioConfig cfg = fed_config(1, true, 1);
  std::unique_ptr<cluster::Cluster> bare = scenario::build_hosting_cluster(cfg.base);
  std::unique_ptr<Federation> fed = scenario::build_federation(cfg);
  bare->run_until(cfg.base.horizon);
  fed->run_until(cfg.base.horizon);
  EXPECT_EQ(fed->planner_ticks(), 0u);
  EXPECT_TRUE(fed->cross_shard_records().empty());
  cluster::fuzz::expect_identical(*bare, fed->shard(0), cfg.base.seed, "K=1 vs bare");
}

TEST(FederationDeterminismTest, ByteIdenticalAcrossPathsAndThreads) {
  // Every shard count, with and without chaos: the slow path, and the
  // shard-parallel engine at every executor budget (0 = hardware) — each
  // K > 1 budget splits differently between the federation pool and the
  // shard engines. Each run must match the serial fast-path reference.
  for (const bool chaos : {false, true}) {
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
      std::unique_ptr<Federation> ref =
          scenario::build_federation(fed_config(shards, true, 1, chaos));
      ref->run_until(seconds(600));
      if (chaos) {
        std::size_t crashes = 0;
        for (ShardId s = 0; s < ref->shard_count(); ++s)
          crashes += ref->shard(s).faults()->crashes_fired();
        ASSERT_GE(crashes, 1u) << "K=" << shards << ": chaos variant crashed nothing";
      }
      struct Variant {
        bool fast_path;
        std::size_t threads;
      };
      for (const Variant v : {Variant{false, 1}, Variant{true, 1}, Variant{true, 2},
                              Variant{true, 3}, Variant{true, 4}, Variant{true, 0}}) {
        std::unique_ptr<Federation> run =
            scenario::build_federation(fed_config(shards, v.fast_path, v.threads, chaos));
        run->run_until(seconds(600));
        ASSERT_EQ(first_divergence(*ref, *run), std::nullopt)
            << "K=" << shards << (v.fast_path ? " fast" : " slow")
            << " threads=" << v.threads << (chaos ? " chaos" : "");
      }
    }
  }
}

TEST(FederationDeterminismTest, LowestShardExceptionSurfacesAtEveryThreadCount) {
  // Shards 1 and 3 throw at the same instant, possibly on different
  // executors at once: the federation must surface shard 1's exception
  // whatever the interleaving, exactly as the serial loop would.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::unique_ptr<Federation> fed =
        scenario::build_federation(fed_config(4, true, threads));
    for (const ShardId s : {ShardId{1}, ShardId{3}})
      fed->shard(s).schedule_at(seconds(50), [s](common::SimTime) {
        throw std::runtime_error("shard " + std::to_string(s));
      });
    try {
      fed->run_until(seconds(100));
      FAIL() << "threads=" << threads << ": no exception surfaced";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 1") << "threads=" << threads;
    }
  }
}

TEST(FederationDeterminismTest, ThreadBudgetSplitsAcrossTiers) {
  // build_federation splits base.threads: the federation advances
  // min(threads, K) shards at once, each shard's engine gets the rest.
  struct Split {
    std::size_t shards;
    std::size_t threads;
    std::size_t federation;
    std::size_t per_shard;
  };
  for (const Split x : {Split{4, 2, 2, 1}, Split{2, 4, 2, 2}, Split{1, 4, 1, 4},
                        Split{4, 1, 1, 1}, Split{3, 4, 3, 1}}) {
    std::unique_ptr<Federation> fed =
        scenario::build_federation(fed_config(x.shards, true, x.threads));
    EXPECT_EQ(fed->execution_threads(), x.federation)
        << "K=" << x.shards << " t=" << x.threads;
    for (ShardId s = 0; s < fed->shard_count(); ++s)
      EXPECT_EQ(fed->shard(s).execution_threads(), x.per_shard)
          << "K=" << x.shards << " t=" << x.threads << " shard " << s;
  }
  // 0 = hardware: the federation never holds more executors than shards.
  const std::size_t hw = common::ThreadPool::hardware_threads();
  std::unique_ptr<Federation> fed = scenario::build_federation(fed_config(4, true, 0));
  EXPECT_EQ(fed->execution_threads(), std::min<std::size_t>(hw, 4));
  EXPECT_EQ(fed->shard(0).execution_threads(),
            std::max<std::size_t>(1, hw / fed->execution_threads()));
}

TEST(FederationDeterminismTest, FirstDivergenceNamesTheSlowedLink) {
  // K = 3: every flight of this scenario leaves shard 0 for shard 2.
  const auto run = [](ShardId a, ShardId b) {
    std::unique_ptr<Federation> fed = scenario::build_federation(fed_config(3, true, 1));
    if (a != b) fed->set_link_bandwidth(a, b, 10.0);
    fed->run_until(seconds(600));
    return fed;
  };
  const std::unique_ptr<Federation> ref = run(0, 0);
  ASSERT_FALSE(ref->cross_shard_records().empty());
  EXPECT_EQ(first_divergence(*ref, *ref), std::nullopt);
  // The slow path differs only in the energy's low bits: the one tolerance.
  std::unique_ptr<Federation> slow = scenario::build_federation(fed_config(3, false, 1));
  slow->run_until(seconds(600));
  ASSERT_NE(slow->shard(0).energy_joules(), ref->shard(0).energy_joules());
  EXPECT_EQ(first_divergence(*slow, *ref), std::nullopt);
  // Slowing the idle 1–2 link changes nothing; slowing 0–2 keeps its
  // flights from landing, changes both endpoints and never reaches shard 1.
  EXPECT_EQ(first_divergence(*ref, *run(1, 2)), std::nullopt);
  const std::unique_ptr<Federation> slowed = run(0, 2);
  const std::optional<std::string> d = first_divergence(*ref, *slowed);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->rfind("cross-shard records: ", 0), 0u) << *d;
  EXPECT_NE(cluster::first_divergence(ref->shard(0), slowed->shard(0)), std::nullopt);
  EXPECT_EQ(cluster::first_divergence(ref->shard(1), slowed->shard(1)), std::nullopt);
  EXPECT_NE(cluster::first_divergence(ref->shard(2), slowed->shard(2)), std::nullopt);
}

TEST(FederationDeterminismTest, SkewedFederationActuallyCrossesLinks) {
  // The scenario exists to exercise the global tier: a federation bench or
  // suite whose census is zero pins nothing. Guard the skew keeps working.
  std::unique_ptr<Federation> fed = scenario::build_federation(fed_config(2, true, 1));
  fed->run_until(seconds(600));
  EXPECT_GE(fed->planner_ticks(), 4u);  // 120 s period over a 600 s horizon
  ASSERT_GE(fed->cross_shard_records().size(), 1u);
  EXPECT_GE(fed->moves_issued(), fed->cross_shard_records().size());
  for (const FedMigrationRecord& rec : fed->cross_shard_records()) {
    EXPECT_EQ(rec.link, LinkKind::kWan) << "empty racks = every pair is WAN";
    EXPECT_EQ(rec.record.outcome, cluster::MigrationOutcome::kCompleted);
    EXPECT_GT(rec.record.downtime, common::SimTime{});
    // Source-side ghost and destination-side guest agree with the ledger
    // (the destination id may itself have departed on a later hop).
    EXPECT_EQ(fed->shard(rec.from_shard).vm_state(rec.src_vm),
              cluster::VmState::kDeparted);
    const cluster::VmState dst_state = fed->shard(rec.to_shard).vm_state(rec.dst_vm);
    EXPECT_TRUE(dst_state == cluster::VmState::kRunning ||
                dst_state == cluster::VmState::kDeparted);
  }
  // The planner moved load from the skewed shard toward the empty one.
  const Federation::ShardLoad l0 = fed->shard_load(0);
  const Federation::ShardLoad l1 = fed->shard_load(1);
  EXPECT_LT(l0.utilization() - l1.utilization(), 0.30)
      << "gap should have narrowed from the skewed start";
}

}  // namespace
}  // namespace pas::fed
