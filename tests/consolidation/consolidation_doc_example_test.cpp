// Compiles and executes the consolidation::evaluate doc example — the
// ROADMAP "doc-checked examples" item. The code inside the DOC SNIPPET
// markers mirrors the comment block above evaluate() in
// src/consolidation/consolidation.hpp; if you edit one, edit both (this
// test is what keeps the comment honest).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "consolidation/consolidation.hpp"

namespace pas::consolidation {
namespace {

std::vector<std::string> alerted;
void alert_capacity_shortfall(const std::string& name) { alerted.push_back(name); }

double reported_watts = -1.0;
double reported_saving = -1.0;
void report(double watts, double saving) {
  reported_watts = watts;
  reported_saving = saving;
}

TEST(ConsolidationDocExampleTest, ShortfallBranchRunsAsDocumented) {
  alerted.clear();
  // One 4 GB host, two VMs of which one cannot fit anywhere.
  std::vector<platform::HostClass> hosts(1);
  std::vector<VmSpec> vms(2);
  vms[0].name = "whale";
  vms[0].credit = 10.0;
  vms[0].memory_mb = 8192.0;
  vms[1].name = "minnow";
  vms[1].credit = 10.0;
  vms[1].memory_mb = 512.0;
  vms[1].cpu_demand_pct = 10.0;

  // --- DOC SNIPPET (consolidation.hpp, evaluate) ---
  auto placement = place_ffd(vms, hosts);
  if (placement.unplaced > 0) {
    // evaluate(placement, vms, hosts) would throw here.
    auto out = evaluate(placement, vms, hosts, /*allow_unplaced=*/true);
    for (std::size_t vi : out.unplaced_vms)
      alert_capacity_shortfall(vms[vi].name);
    // out.unplaced_credit_pct / unplaced_memory_mb quantify what the
    // cluster is not providing; out.total_power_watts covers only
    // the placed VMs.
  } else {
    auto out = evaluate(placement, vms, hosts);  // all placed: strict
    report(out.total_power_watts, out.dvfs_saving_watts());
  }
  // --- END DOC SNIPPET ---

  ASSERT_EQ(placement.unplaced, 1u);
  EXPECT_THROW((void)evaluate(placement, vms, hosts), std::invalid_argument);
  ASSERT_EQ(alerted.size(), 1u);
  EXPECT_EQ(alerted[0], "whale");
}

TEST(ConsolidationDocExampleTest, AllPlacedBranchRunsAsDocumented) {
  reported_watts = reported_saving = -1.0;
  std::vector<platform::HostClass> hosts(2);
  std::vector<VmSpec> vms(1);
  vms[0].name = "tenant";
  vms[0].credit = 20.0;
  vms[0].memory_mb = 512.0;
  vms[0].cpu_demand_pct = 20.0;

  // --- DOC SNIPPET (consolidation.hpp, evaluate) ---
  auto placement = place_ffd(vms, hosts);
  if (placement.unplaced > 0) {
    auto out = evaluate(placement, vms, hosts, /*allow_unplaced=*/true);
    for (std::size_t vi : out.unplaced_vms)
      alert_capacity_shortfall(vms[vi].name);
  } else {
    auto out = evaluate(placement, vms, hosts);  // all placed: strict
    report(out.total_power_watts, out.dvfs_saving_watts());
  }
  // --- END DOC SNIPPET ---

  EXPECT_GT(reported_watts, 0.0);
  EXPECT_GT(reported_saving, 0.0);  // 20 % load: PAS picks a low state
}

}  // namespace
}  // namespace pas::consolidation
