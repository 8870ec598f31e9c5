// The FFD heterogeneity cost term: efficient-first host ordering, the NUMA
// spill penalty, and — the load-bearing property — exact equivalence with
// classic index-order FFD on uniform fleets.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"
#include "consolidation/consolidation.hpp"
#include "platform/host_class.hpp"

namespace pas::consolidation {
namespace {

using platform::HostClass;

HostClass host(double idle_w, double busy_w, double mem,
               std::size_t nodes = 1, double penalty = 0.0) {
  HostClass h;
  h.name = "host";
  h.memory_mb = mem;
  h.power = cpu::PowerModel{idle_w, busy_w, 3.0};
  h.numa_nodes = nodes;
  h.numa_spill_penalty = penalty;
  return h;
}

VmSpec vm(double credit, double mem, double demand) {
  VmSpec v;
  v.name = "vm";
  v.credit = credit;
  v.memory_mb = mem;
  v.cpu_demand_pct = demand;
  return v;
}

TEST(PackingCostTest, IdleWattsPerMemory) {
  EXPECT_DOUBLE_EQ(packing_cost(host(45, 105, 4096)), 45.0 / 4096.0);
  // Memory density amortizes standby power: a 120 W / 16 GB server beats a
  // 45 W / 4 GB desktop per MB.
  EXPECT_LT(packing_cost(host(120, 235, 16384)), packing_cost(host(45, 105, 4096)));
}

TEST(EfficientFirstTest, PrefersCheapStandbyPower) {
  // Host 0 is the power hog; efficient-first must land the VM on host 1.
  const std::vector<HostClass> hosts{host(120, 235, 4096), host(30, 90, 4096)};
  const std::vector<VmSpec> vms{vm(10, 512, 10)};
  const Placement efficient = place_ffd(vms, hosts);  // default option
  EXPECT_EQ(efficient.assignment[0], 1u);
  FfdOptions naive;
  naive.efficient_first = false;
  const Placement indexed = place_ffd(vms, hosts, naive);
  EXPECT_EQ(indexed.assignment[0], 0u);
}

TEST(EfficientFirstTest, OverflowsUpTheCostOrder) {
  // Two VMs that cannot share the efficient host: the second lands on the
  // next-cheapest, not on index order.
  const std::vector<HostClass> hosts{host(120, 235, 4096), host(45, 105, 4096),
                                     host(30, 90, 4096)};
  const std::vector<VmSpec> vms{vm(10, 3000, 10), vm(10, 3000, 10)};
  const Placement p = place_ffd(vms, hosts);
  EXPECT_EQ(p.assignment[0], 2u);  // cheapest standby W/MB
  EXPECT_EQ(p.assignment[1], 1u);  // runner-up
}

TEST(EfficientFirstTest, UniformFleetDegradesToIndexOrder) {
  // On a uniform fleet the cost term must be a no-op: efficient-first and
  // naive index order produce the same placement, for a spread of seeded
  // random tenant books.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    common::Rng rng{seed};
    const auto hosts = platform::uniform_fleet_classes(4, host(45, 105, 4096));
    std::vector<VmSpec> vms;
    const std::size_t n = 4 + rng.next_below(12);
    for (std::size_t i = 0; i < n; ++i)
      vms.push_back(vm(2.0 + static_cast<double>(rng.next_below(30)),
                       128.0 * static_cast<double>(1 + rng.next_below(16)),
                       static_cast<double>(rng.next_below(20))));
    const Placement a = place_ffd(vms, hosts);
    FfdOptions naive;
    naive.efficient_first = false;
    const Placement b = place_ffd(vms, hosts, naive);
    ASSERT_EQ(a.assignment, b.assignment) << "seed " << seed;
    EXPECT_EQ(a.hosts_used, b.hosts_used) << "seed " << seed;
    EXPECT_EQ(a.unplaced, b.unplaced) << "seed " << seed;
  }
}

TEST(NumaSpillTest, SpillsOnlyPastNodeCapacity) {
  const HostClass uma = host(45, 105, 4096);
  const HostClass numa = host(45, 105, 4096, 2, 0.2);  // 2 x 2048 MB nodes
  EXPECT_FALSE(numa_spills(vm(10, 2048, 10), numa));  // fits one node exactly
  EXPECT_TRUE(numa_spills(vm(10, 2049, 10), numa));
  // UMA hosts never spill, whatever the footprint.
  EXPECT_FALSE(numa_spills(vm(10, 4096, 10), uma));
  EXPECT_DOUBLE_EQ(effective_credit_pct(vm(10, 2049, 10), numa), 12.0);
  EXPECT_DOUBLE_EQ(effective_credit_pct(vm(10, 2048, 10), numa), 10.0);
}

TEST(NumaSpillTest, PenaltyReservedInPlacement) {
  // Capacity 100: two 40 %-credit VMs fit a UMA host with 20 % to spare,
  // but on a 4-node host (2048 MB nodes) a 3000 MB footprint spills, and
  // at 30 % penalty (2 x 52 = 104) the second VM must overflow to the next
  // host even though the memory fits.
  const std::vector<HostClass> hosts{host(45, 105, 8192, 4, 0.3),
                                     host(45, 105, 8192, 4, 0.3)};
  const std::vector<VmSpec> vms{vm(40, 3000, 10), vm(40, 3000, 10)};
  const Placement p = place_ffd(vms, hosts);
  EXPECT_EQ(p.unplaced, 0u);
  EXPECT_NE(p.assignment[0], p.assignment[1]);
  EXPECT_EQ(p.hosts_used, 2u);

  // Without node structure the same book shares one host (80 % credit,
  // 6000 MB of 8192).
  const std::vector<HostClass> uma{host(45, 105, 8192), host(45, 105, 8192)};
  const Placement q = place_ffd(vms, uma);
  EXPECT_EQ(q.assignment[0], q.assignment[1]);
  EXPECT_EQ(q.hosts_used, 1u);
}

TEST(NumaSpillTest, EvaluateChargesThePenalty) {
  const std::vector<HostClass> hosts{host(45, 105, 8192, 2, 0.25)};
  const std::vector<VmSpec> vms{vm(40, 5000, 40), vm(10, 1000, 10)};
  const auto outcome = evaluate(place_ffd(vms, hosts), vms, hosts);
  ASSERT_EQ(outcome.hosts_on, 1u);
  EXPECT_EQ(outcome.hosts[0].numa_spills, 1u);
  EXPECT_EQ(outcome.numa_spills, 1u);
  // Spilled VM: demand 40 -> 50, credit 40 -> 50; the node-local VM pays
  // nothing extra.
  EXPECT_DOUBLE_EQ(outcome.hosts[0].cpu_load_pct, 50.0 + 10.0);
  EXPECT_DOUBLE_EQ(outcome.hosts[0].credit_reserved_pct, 50.0 + 10.0);
}

TEST(NumaSpillTest, RejectsBadNumaClasses) {
  HostClass zero_nodes = host(45, 105, 4096);
  zero_nodes.numa_nodes = 0;
  EXPECT_THROW((void)place_ffd({vm(10, 512, 5)}, {zero_nodes}), std::invalid_argument);
  HostClass negative = host(45, 105, 4096, 2, -0.1);
  EXPECT_THROW((void)place_ffd({vm(10, 512, 5)}, {negative}), std::invalid_argument);
}

}  // namespace
}  // namespace pas::consolidation
