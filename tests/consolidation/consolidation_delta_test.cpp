// Differential-equivalence suite for the persistent planner.
//
// The HostBook's contract is structural: plan() must be BYTE-identical to a
// from-scratch place_ffd over the same dense inputs, whether the cache or a
// replay through the first-fit max-index served it. This suite replays
// seeded mutation sequences — add/remove/resize VM, crash and restore host,
// class flips — against a HostBook and a shadow spec map, asserting exact
// equality with the oracle after EVERY step, over uniform and heterogeneous
// fleets and with efficient-first packing both on and off. Uniform fleets
// tie on packing_cost everywhere, and restored hosts come back under their
// old ids, so the corpus also pins the scan order's id tie-break. The corpus
// is 120 sequences, plus index edge cases, a bound on the index's work, and
// targeted tests for the cached path, the plan-path counters and
// validation.

#include "consolidation/host_book.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "consolidation/consolidation.hpp"
#include "platform/host_class.hpp"

namespace pas::consolidation {
namespace {

VmSpec make_vm(std::mt19937& rng) {
  static const double kMems[] = {128, 256, 512, 512, 1024, 1024, 2048, 3072, 4096, 6144};
  VmSpec v;
  v.name = "vm";
  v.memory_mb = kMems[rng() % (sizeof(kMems) / sizeof(kMems[0]))];
  v.credit = 5.0 + static_cast<double>(rng() % 16) * 5.0;
  v.cpu_demand_pct = v.credit * 0.5;
  return v;
}

platform::HostClass make_host(std::mt19937& rng, bool hetero) {
  if (!hetero) return platform::optiplex_755();
  const auto catalog = platform::fleet_catalog();
  return catalog[rng() % catalog.size()];
}

/// The oracle: dense spec lists in ascending-id order, planned from
/// scratch. Asserts assignment, hosts_used and unplaced are exactly equal,
/// and that the book's dense maps are the ascending active ids.
void expect_matches_full(HostBook& book, const std::map<std::size_t, VmSpec>& vms,
                         const std::map<std::size_t, platform::HostClass>& hosts,
                         const FfdOptions& opt) {
  std::vector<VmSpec> dense_vms;
  std::vector<platform::HostClass> dense_hosts;
  std::vector<std::size_t> vm_ids;
  std::vector<std::size_t> host_ids;
  for (const auto& [id, spec] : vms) {
    vm_ids.push_back(id);
    dense_vms.push_back(spec);
  }
  for (const auto& [id, spec] : hosts) {
    host_ids.push_back(id);
    dense_hosts.push_back(spec);
  }
  const Placement want = place_ffd(dense_vms, dense_hosts, opt);
  const Placement& got = book.plan();
  ASSERT_EQ(got.assignment, want.assignment);
  ASSERT_EQ(got.hosts_used, want.hosts_used);
  ASSERT_EQ(got.unplaced, want.unplaced);
  ASSERT_EQ(book.planned_vms(), vm_ids);
  ASSERT_EQ(book.planned_hosts(), host_ids);
}

struct SequenceTally {
  std::size_t delta_plans = 0;
  std::size_t full_rebuilds = 0;
  std::size_t cached_plans = 0;
};

/// Loads dense spec lists into `book` under ids equal to their indices and
/// checks its plan against place_ffd.
void load_and_match(HostBook& book, const std::vector<VmSpec>& vms,
                    const std::vector<platform::HostClass>& hosts, const FfdOptions& opt) {
  std::map<std::size_t, VmSpec> vm_map;
  std::map<std::size_t, platform::HostClass> host_map;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    book.add_host(i, hosts[i]);
    host_map.emplace(i, hosts[i]);
  }
  for (std::size_t i = 0; i < vms.size(); ++i) {
    book.add_vm(i, vms[i]);
    vm_map.emplace(i, vms[i]);
  }
  expect_matches_full(book, vm_map, host_map, opt);
}

VmSpec vm_of(double memory_mb, double credit) {
  VmSpec v;
  v.memory_mb = memory_mb;
  v.credit = credit;
  return v;
}

SequenceTally run_sequence(std::uint32_t seed, bool hetero, bool efficient_first) {
  std::mt19937 rng(seed);
  FfdOptions opt;
  opt.efficient_first = efficient_first;
  HostBook book(opt);
  std::map<std::size_t, VmSpec> vms;
  std::map<std::size_t, platform::HostClass> hosts;
  std::map<std::size_t, platform::HostClass> crashed;  // removed hosts, restorable
  std::size_t next_vm = 0;
  std::size_t next_host = 0;

  const std::size_t host_n = 6 + rng() % 7;
  const std::size_t vm_n = 15 + rng() % 26;
  for (std::size_t i = 0; i < host_n; ++i) {
    const platform::HostClass spec = make_host(rng, hetero);
    hosts.emplace(next_host, spec);
    book.add_host(next_host, spec);
    ++next_host;
  }
  for (std::size_t i = 0; i < vm_n; ++i) {
    const VmSpec spec = make_vm(rng);
    vms.emplace(next_vm, spec);
    book.add_vm(next_vm, spec);
    ++next_vm;
  }
  expect_matches_full(book, vms, hosts, opt);

  auto random_live = [&](const auto& live) {
    auto it = live.begin();
    std::advance(it, rng() % live.size());
    return it->first;
  };
  auto mutate_vm_once = [&] {
    const std::uint32_t op = rng() % 3;
    if (op == 0 || vms.empty()) {
      const VmSpec spec = make_vm(rng);
      vms.emplace(next_vm, spec);
      book.add_vm(next_vm, spec);
      ++next_vm;
    } else if (op == 1) {
      const std::size_t id = random_live(vms);
      vms.erase(id);
      book.remove_vm(id);
    } else {
      const std::size_t id = random_live(vms);
      // Resize (remove + re-add under the same id); occasionally to the
      // identical spec (dirty but unchanged).
      const VmSpec spec = (rng() % 5 == 0) ? vms.at(id) : make_vm(rng);
      vms.at(id) = spec;
      book.remove_vm(id);
      book.add_vm(id, spec);
    }
  };

  for (std::size_t step = 0; step < 32; ++step) {
    const std::uint32_t roll = rng() % 100;
    if (roll < 55) {
      mutate_vm_once();
    } else if (roll < 70) {
      // A burst of VM churn between plans: one replay absorbs it all.
      const std::size_t burst = 2 + rng() % 3;
      for (std::size_t k = 0; k < burst; ++k) mutate_vm_once();
    } else if (roll < 78) {
      // Crash a host (forces the full-rebuild fallback next plan).
      if (hosts.size() > 1) {
        const std::size_t id = random_live(hosts);
        crashed.emplace(id, hosts.at(id));
        hosts.erase(id);
        book.remove_host(id);
      }
    } else if (roll < 86) {
      // Restore a crashed host, or grow the fleet.
      if (!crashed.empty()) {
        const std::size_t id = random_live(crashed);
        hosts.emplace(id, crashed.at(id));
        book.add_host(id, crashed.at(id));
        crashed.erase(id);
      } else {
        const platform::HostClass spec = make_host(rng, hetero);
        hosts.emplace(next_host, spec);
        book.add_host(next_host, spec);
        ++next_host;
      }
    } else if (roll < 92) {
      // Class flip: re-spec a live host under the same id.
      const std::size_t id = random_live(hosts);
      const platform::HostClass spec = make_host(rng, hetero);
      hosts.at(id) = spec;
      book.remove_host(id);
      book.add_host(id, spec);
    }
    // else: no mutation — the plan below must come from the cache.
    expect_matches_full(book, vms, hosts, opt);
  }
  const HostBookStats& st = book.stats();
  return {st.delta_plans, st.full_rebuilds, st.cached_plans};
}

TEST(ConsolidationDeltaTest, UniformCorpus) {
  SequenceTally total;
  for (std::uint32_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    const SequenceTally t = run_sequence(seed, /*hetero=*/false,
                                         /*efficient_first=*/seed % 4 != 0);
    total.delta_plans += t.delta_plans;
    total.full_rebuilds += t.full_rebuilds;
    total.cached_plans += t.cached_plans;
  }
  // The corpus must have exercised every plan path, or the equivalence
  // claim is vacuous.
  EXPECT_GT(total.delta_plans, 0u);
  EXPECT_GT(total.full_rebuilds, 0u);
  EXPECT_GT(total.cached_plans, 0u);
}

TEST(ConsolidationDeltaTest, HeteroCorpus) {
  SequenceTally total;
  for (std::uint32_t seed = 61; seed <= 120; ++seed) {
    SCOPED_TRACE(seed);
    const SequenceTally t = run_sequence(seed, /*hetero=*/true,
                                         /*efficient_first=*/seed % 4 != 0);
    total.delta_plans += t.delta_plans;
    total.full_rebuilds += t.full_rebuilds;
    total.cached_plans += t.cached_plans;
  }
  EXPECT_GT(total.delta_plans, 0u);
  EXPECT_GT(total.full_rebuilds, 0u);
  EXPECT_GT(total.cached_plans, 0u);
}

TEST(ConsolidationDeltaTest, IndexWithNoLiveHosts) {
  const std::vector<VmSpec> vms = {vm_of(512, 10), vm_of(1024, 20), vm_of(0, 0)};
  HostBook book;
  load_and_match(book, vms, {}, FfdOptions{});
  EXPECT_EQ(book.last_plan().unplaced, vms.size());

  // A fleet that existed and is gone again: stale arenas, no live leaf.
  book.add_host(4, platform::optiplex_755());
  ASSERT_EQ(book.plan().unplaced, 0u);
  book.remove_host(4);
  const Placement want = place_ffd(vms, {});
  const Placement& got = book.plan();
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.hosts_used, 0u);
  EXPECT_EQ(got.unplaced, vms.size());
  EXPECT_TRUE(book.planned_hosts().empty());
}

TEST(ConsolidationDeltaTest, IndexOverNonPowerOfTwoFleets) {
  for (const std::size_t n : {1u, 5u, 7u}) {
    for (const bool hetero : {false, true}) {
      for (const bool efficient_first : {true, false}) {
        SCOPED_TRACE(testing::Message() << n << " hosts, hetero " << hetero
                                        << ", efficient_first " << efficient_first);
        std::mt19937 rng(static_cast<std::uint32_t>(n));
        std::vector<platform::HostClass> hosts;
        for (std::size_t i = 0; i < n; ++i) hosts.push_back(make_host(rng, hetero));
        std::vector<VmSpec> vms;
        for (std::size_t i = 0; i < 4 * n + 3; ++i) vms.push_back(make_vm(rng));
        FfdOptions opt;
        opt.efficient_first = efficient_first;
        HostBook book(opt);
        load_and_match(book, vms, hosts, opt);
      }
    }
  }
}

TEST(ConsolidationDeltaTest, OnlyLastHostInScanOrderFits) {
  // Identical power and memory tie every packing_cost, so the scan order
  // is ascending id; only the last host has the credit the VM needs.
  std::vector<platform::HostClass> hosts(7, platform::optiplex_755());
  for (std::size_t i = 0; i + 1 < hosts.size(); ++i) hosts[i].cpu_capacity_pct = 10;
  HostBook book;
  load_and_match(book, {vm_of(512, 50)}, hosts, FfdOptions{});
  EXPECT_EQ(book.last_plan().assignment[0], 6u);
}

TEST(ConsolidationDeltaTest, SpillingVmFailsLeafButFitsLaterHost) {
  // Host 0 has two NUMA nodes: the 3000 MB VM spills there and needs
  // 80 * 1.5 = 120 credit, more than its 100, although the raw 80 passes
  // every max-credit bound above it. Host 1 is UMA and takes the VM at 80.
  // The small VM fits host 0 node-locally.
  platform::HostClass numa = platform::optiplex_755();
  numa.numa_nodes = 2;
  numa.numa_spill_penalty = 0.5;
  const std::vector<platform::HostClass> hosts = {numa, platform::optiplex_755()};
  HostBook book;
  load_and_match(book, {vm_of(3000, 80), vm_of(1024, 10)}, hosts, FfdOptions{});
  EXPECT_EQ(book.last_plan().assignment, (std::vector<std::size_t>{1, 0}));
}

TEST(ConsolidationDeltaTest, EveryVmUnplacedBacktracksToRoot) {
  // Memory-rich hosts lack credit and credit-rich hosts lack memory: the
  // root bounds pass on both resources, yet no leaf fits, so each descent
  // explores below the root and returns kUnplaced from it.
  platform::HostClass mem_rich = platform::optiplex_755();
  mem_rich.memory_mb = 8192;
  mem_rich.cpu_capacity_pct = 10;
  platform::HostClass cpu_rich = platform::optiplex_755();
  cpu_rich.memory_mb = 256;
  std::vector<platform::HostClass> hosts;
  for (std::size_t i = 0; i < 6; ++i) hosts.push_back(i % 2 == 0 ? mem_rich : cpu_rich);
  const std::vector<VmSpec> vms(5, vm_of(1024, 50));
  for (const bool efficient_first : {true, false}) {
    SCOPED_TRACE(efficient_first);
    FfdOptions opt;
    opt.efficient_first = efficient_first;
    HostBook book(opt);
    load_and_match(book, vms, hosts, opt);
    EXPECT_EQ(book.last_plan().unplaced, vms.size());
    EXPECT_EQ(book.last_plan().hosts_used, 0u);
    EXPECT_GT(book.stats().hosts_visited, book.stats().vms_scanned);
  }
}

TEST(ConsolidationDeltaTest, IndexWorkIsLogarithmic) {
  // Each first-fit query may visit at most two nodes per tree level plus
  // the root and a little slack, or the index has degraded to a scan.
  constexpr std::size_t kHosts = 4096;  // log2 = 12
  const std::vector<platform::HostClass> hosts(kHosts, platform::optiplex_755());
  std::mt19937 rng(7);
  std::vector<VmSpec> vms;
  for (std::size_t i = 0; i < 2 * kHosts; ++i) vms.push_back(make_vm(rng));
  HostBook book;
  load_and_match(book, vms, hosts, FfdOptions{});
  const HostBookStats& st = book.stats();
  EXPECT_EQ(st.vms_scanned, vms.size());
  EXPECT_LE(st.hosts_visited, st.vms_scanned * (2 * 12 + 2));
}

TEST(ConsolidationDeltaTest, CachedPlanIsVerbatim) {
  HostBook book;
  book.add_host(0, platform::optiplex_755());
  VmSpec v;
  v.credit = 10;
  v.memory_mb = 512;
  book.add_vm(0, v);
  const Placement first = book.plan();
  const Placement& again = book.plan();
  EXPECT_EQ(again.assignment, first.assignment);
  EXPECT_EQ(book.stats().cached_plans, 1u);
  EXPECT_EQ(book.stats().full_rebuilds, 1u);
}

TEST(ConsolidationDeltaTest, HostMutationFallsBackToFullRebuild) {
  HostBook book;
  const platform::HostClass h = platform::optiplex_755();
  book.add_host(0, h);
  book.add_host(1, h);
  VmSpec v;
  v.credit = 10;
  v.memory_mb = 512;
  book.add_vm(0, v);
  (void)book.plan();
  ASSERT_EQ(book.stats().full_rebuilds, 1u);

  book.add_vm(1, v);
  (void)book.plan();
  EXPECT_EQ(book.stats().delta_plans, 1u);  // VM-only change

  book.remove_host(1);
  book.add_host(1, platform::xeon_e5_2620());
  (void)book.plan();
  EXPECT_EQ(book.stats().full_rebuilds, 2u);  // class flip: host change
}

TEST(ConsolidationDeltaTest, ValidationMirrorsPlaceFfd) {
  HostBook book;
  platform::HostClass bad_host;
  bad_host.numa_nodes = 0;
  EXPECT_THROW(book.add_host(0, bad_host), std::invalid_argument);
  bad_host.numa_nodes = 2;
  bad_host.numa_spill_penalty = -0.1;
  EXPECT_THROW(book.add_host(0, bad_host), std::invalid_argument);
  VmSpec bad_vm;
  bad_vm.memory_mb = -1;
  EXPECT_THROW(book.add_vm(0, bad_vm), std::invalid_argument);
  EXPECT_THROW(book.remove_vm(7), std::invalid_argument);
  EXPECT_THROW(book.remove_host(7), std::invalid_argument);
  book.add_host(3, platform::optiplex_755());
  EXPECT_THROW(book.add_host(3, platform::optiplex_755()),
               std::invalid_argument);
}

}  // namespace
}  // namespace pas::consolidation
