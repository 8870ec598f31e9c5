#include "consolidation/consolidation.hpp"

#include <gtest/gtest.h>

namespace pas::consolidation {
namespace {

platform::HostClass host_4g() {
  platform::HostClass h;
  h.name = "host";
  h.memory_mb = 4096;
  h.cpu_capacity_pct = 100.0;
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

TEST(PlacementTest, SingleVmSingleHost) {
  const auto hosts = platform::uniform_fleet_classes(3, host_4g());
  const std::vector<VmSpec> vms{vm(20, 512, 10)};
  const Placement p = place_ffd(vms, hosts);
  EXPECT_EQ(p.assignment[0], 0u);
  EXPECT_EQ(p.hosts_used, 1u);
  EXPECT_EQ(p.unplaced, 0u);
}

TEST(PlacementTest, MemoryBindsBeforeCpu) {
  // Four 2 GB VMs at 10 % credit each: CPU-wise they all fit one host,
  // memory forces two hosts — the §2.3 scenario.
  const auto hosts = platform::uniform_fleet_classes(4, host_4g());
  const std::vector<VmSpec> vms{vm(10, 2048, 10), vm(10, 2048, 10), vm(10, 2048, 10),
                                vm(10, 2048, 10)};
  const Placement p = place_ffd(vms, hosts);
  EXPECT_EQ(p.hosts_used, 2u);
  EXPECT_EQ(p.unplaced, 0u);
}

TEST(PlacementTest, CreditReservationRespected) {
  // Credits must fit even when demands are tiny: SLAs are honorable.
  const auto hosts = platform::uniform_fleet_classes(2, host_4g());
  const std::vector<VmSpec> vms{vm(60, 256, 5), vm(60, 256, 5)};
  const Placement p = place_ffd(vms, hosts);
  EXPECT_NE(p.assignment[0], p.assignment[1]);
  EXPECT_EQ(p.hosts_used, 2u);
}

TEST(PlacementTest, DecreasingOrderPacksBetter) {
  // FFD: 3+3+2+2 GB into 2 hosts of 5 GB requires pairing large with small.
  platform::HostClass h = host_4g();
  h.memory_mb = 5120;
  const auto hosts = platform::uniform_fleet_classes(2, h);
  const std::vector<VmSpec> vms{vm(5, 2048, 5), vm(5, 3072, 5), vm(5, 2048, 5),
                                vm(5, 3072, 5)};
  const Placement p = place_ffd(vms, hosts);
  EXPECT_EQ(p.unplaced, 0u);
  EXPECT_EQ(p.hosts_used, 2u);
}

TEST(PlacementTest, UnplaceableVmCounted) {
  const auto hosts = platform::uniform_fleet_classes(1, host_4g());
  const std::vector<VmSpec> vms{vm(10, 8192, 5)};
  const Placement p = place_ffd(vms, hosts);
  EXPECT_EQ(p.assignment[0], kUnplaced);
  EXPECT_EQ(p.unplaced, 1u);
  EXPECT_EQ(p.hosts_used, 0u);
}

TEST(PlacementTest, RejectsNegativeResources) {
  const auto hosts = platform::uniform_fleet_classes(1, host_4g());
  EXPECT_THROW((void)place_ffd({vm(-1, 512, 5)}, hosts), std::invalid_argument);
}

TEST(EvaluateTest, PoweredOffHostsDrawNothing) {
  const auto hosts = platform::uniform_fleet_classes(3, host_4g());
  const std::vector<VmSpec> vms{vm(20, 512, 20)};
  const auto outcome = evaluate(place_ffd(vms, hosts), vms, hosts);
  EXPECT_EQ(outcome.hosts_on, 1u);
  EXPECT_FALSE(outcome.hosts[1].powered_on);
  EXPECT_DOUBLE_EQ(outcome.hosts[1].power_watts, 0.0);
  EXPECT_GT(outcome.total_power_watts, 0.0);
}

TEST(EvaluateTest, DvfsSavingPositiveWhenUnderloaded) {
  const auto hosts = platform::uniform_fleet_classes(1, host_4g());
  const std::vector<VmSpec> vms{vm(20, 512, 20)};
  const auto outcome = evaluate(place_ffd(vms, hosts), vms, hosts);
  // Load 20 % -> PAS picks 1600 MHz -> cheaper than pinning max.
  EXPECT_EQ(outcome.hosts[0].freq_index, 0u);
  EXPECT_GT(outcome.dvfs_saving_watts(), 0.0);
}

TEST(EvaluateTest, DvfsUselessOnFullHost) {
  const auto hosts = platform::uniform_fleet_classes(1, host_4g());
  const std::vector<VmSpec> vms{vm(95, 512, 95)};
  const auto outcome = evaluate(place_ffd(vms, hosts), vms, hosts);
  EXPECT_EQ(outcome.hosts[0].freq_index, hosts[0].ladder.max_index());
  EXPECT_NEAR(outcome.dvfs_saving_watts(), 0.0, 1e-9);
}

TEST(EvaluateTest, MeanActiveLoad) {
  const auto hosts = platform::uniform_fleet_classes(2, host_4g());
  const std::vector<VmSpec> vms{vm(30, 3000, 30), vm(50, 3000, 50)};
  const auto outcome = evaluate(place_ffd(vms, hosts), vms, hosts);
  ASSERT_EQ(outcome.hosts_on, 2u);
  EXPECT_NEAR(outcome.mean_active_load_pct, 40.0, 1e-9);
}

TEST(EvaluateTest, MemoryPressureIncreasesDvfsValue) {
  // The paper's §2.3 claim as a property: growing memory-per-VM (same CPU
  // demand) spreads VMs across more hosts, lowers per-host load, and grows
  // the DVFS saving.
  const auto hosts = platform::uniform_fleet_classes(16, host_4g());
  double last_saving = -1.0;
  std::size_t last_hosts = 0;
  for (const double mem : {256.0, 1024.0, 2048.0}) {
    std::vector<VmSpec> vms;
    for (int i = 0; i < 8; ++i) vms.push_back(vm(12, mem, 12));
    const auto outcome = evaluate(place_ffd(vms, hosts), vms, hosts);
    EXPECT_GE(outcome.hosts_on, last_hosts);
    EXPECT_GT(outcome.dvfs_saving_watts(), last_saving * 0.999);
    last_saving = outcome.dvfs_saving_watts();
    last_hosts = outcome.hosts_on;
  }
  EXPECT_EQ(last_hosts, 4u);  // 2 GB VMs: two per 4 GB host
}

TEST(EvaluateTest, ThrowsOnUnplacedByDefault) {
  // Unplaced VMs are unserved demand, not free capacity: a caller that does
  // not opt into partial placements must not get a silently smaller bill.
  const auto hosts = platform::uniform_fleet_classes(1, host_4g());
  const std::vector<VmSpec> vms{vm(10, 8192, 5), vm(10, 512, 10)};
  const Placement p = place_ffd(vms, hosts);
  ASSERT_EQ(p.unplaced, 1u);
  EXPECT_THROW((void)evaluate(p, vms, hosts), std::invalid_argument);
}

TEST(EvaluateTest, UnplacedExplicitWhenAllowed) {
  const auto hosts = platform::uniform_fleet_classes(1, host_4g());
  const std::vector<VmSpec> vms{vm(10, 8192, 5), vm(10, 512, 10)};
  const Placement p = place_ffd(vms, hosts);
  const auto outcome = evaluate(p, vms, hosts, /*allow_unplaced=*/true);
  EXPECT_FALSE(outcome.all_placed());
  ASSERT_EQ(outcome.unplaced_vms.size(), 1u);
  EXPECT_EQ(outcome.unplaced_vms[0], 0u);
  EXPECT_DOUBLE_EQ(outcome.unplaced_credit_pct, 10.0);
  EXPECT_DOUBLE_EQ(outcome.unplaced_demand_pct, 5.0);
  EXPECT_DOUBLE_EQ(outcome.unplaced_memory_mb, 8192.0);
  // The placed VM is still evaluated normally.
  EXPECT_EQ(outcome.hosts_on, 1u);
  EXPECT_DOUBLE_EQ(outcome.hosts[0].cpu_load_pct, 10.0);
}

TEST(EvaluateTest, FullyPlacedReportsAllPlaced) {
  const auto hosts = platform::uniform_fleet_classes(1, host_4g());
  const std::vector<VmSpec> vms{vm(10, 512, 10)};
  const auto outcome = evaluate(place_ffd(vms, hosts), vms, hosts);
  EXPECT_TRUE(outcome.all_placed());
  EXPECT_DOUBLE_EQ(outcome.unplaced_credit_pct, 0.0);
}

TEST(EvaluateTest, RejectsMismatchedPlacement) {
  const auto hosts = platform::uniform_fleet_classes(1, host_4g());
  Placement p;
  p.assignment = {0, 0};
  EXPECT_THROW((void)evaluate(p, {vm(10, 256, 5)}, hosts), std::invalid_argument);
}

}  // namespace
}  // namespace pas::consolidation
