// The platform-class catalog: stock classes stay distinct and physically
// sane, fleet mixing is deterministic, planner labels number each host, and
// impossible NUMA layouts are refused.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "platform/host_class.hpp"

namespace pas::platform {
namespace {

TEST(HostClassTest, CatalogClassesAreDistinctAndSane) {
  const auto catalog = fleet_catalog();
  ASSERT_EQ(catalog.size(), 3u);
  std::set<std::string> names;
  for (const auto& c : catalog) {
    names.insert(c.name);
    EXPECT_GT(c.memory_mb, 0.0) << c.name;
    EXPECT_GE(c.numa_nodes, 1u) << c.name;
    EXPECT_GE(c.numa_spill_penalty, 0.0) << c.name;
    EXPECT_GT(c.power.idle_watts(), 0.0) << c.name;
    EXPECT_GT(c.power.busy_max_watts(), c.power.idle_watts()) << c.name;
    EXPECT_GE(c.ladder.size(), 2u) << c.name;
  }
  EXPECT_EQ(names.size(), catalog.size()) << "duplicate class names";
}

TEST(HostClassTest, XeonModelsTable1) {
  const HostClass xeon = xeon_e5_2620();
  // Table 1's cf_min ~ 0.80: lower states under-deliver relative to the
  // silently-turboing top state.
  EXPECT_NEAR(xeon.ladder.at(0).cf, 0.803, 1e-9);
  EXPECT_DOUBLE_EQ(xeon.ladder.max().cf, 1.0);
  EXPECT_EQ(xeon.numa_nodes, 2u);
  EXPECT_GT(xeon.numa_spill_penalty, 0.0);
}

TEST(HostClassTest, MixedFleetRoundRobinPreset) {
  const auto fleet = mixed_fleet_classes(7);  // seed 0: round-robin
  const auto catalog = fleet_catalog();
  ASSERT_EQ(fleet.size(), 7u);
  for (std::size_t i = 0; i < fleet.size(); ++i)
    EXPECT_EQ(fleet[i].name, catalog[i % catalog.size()].name) << "host " << i;
}

TEST(HostClassTest, MixedFleetSeededIsDeterministic) {
  const auto a = mixed_fleet_classes(16, 42);
  const auto b = mixed_fleet_classes(16, 42);
  const auto c = mixed_fleet_classes(16, 43);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].name, b[i].name);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) any_diff |= a[i].name != c[i].name;
  EXPECT_TRUE(any_diff) << "different seeds drew identical 16-host fleets";
}

TEST(HostClassTest, NumberedFleetNamesEachHostAndKeepsItsClass) {
  const auto fleet = numbered_fleet({optiplex_755(), elite_8300()});
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_EQ(fleet[0].name, "optiplex-755-0");
  EXPECT_EQ(fleet[1].name, "elite-8300-1");
  EXPECT_DOUBLE_EQ(fleet[1].memory_mb, elite_8300().memory_mb);
  EXPECT_DOUBLE_EQ(fleet[1].power.idle_watts(), elite_8300().power.idle_watts());
}

TEST(HostClassTest, ValidateClassRejectsImpossibleNuma) {
  EXPECT_NO_THROW(validate_class(xeon_e5_2620()));
  HostClass zero_nodes = optiplex_755();
  zero_nodes.numa_nodes = 0;
  EXPECT_THROW(validate_class(zero_nodes), std::invalid_argument);
  HostClass negative = xeon_e5_2620();
  negative.numa_spill_penalty = -0.1;
  EXPECT_THROW(validate_class(negative), std::invalid_argument);
}

}  // namespace
}  // namespace pas::platform
