// Ablation D — consolidation vs DVFS complementarity (paper §2.3).
//
// Fixed fleet demand (24 VMs x 12 % CPU), sweeping the memory footprint per
// VM. As memory binds, consolidation needs more hosts, per-host CPU load
// falls, and the power DVFS/PAS reclaims on top of consolidation grows —
// "DVFS is complementary to consolidation".
#include <cstdio>
#include <vector>

#include "common/flags.hpp"
#include "consolidation/consolidation.hpp"
#include "platform/host_class.hpp"

int main(int argc, char** argv) {
  using namespace pas;
  const common::Flags flags{argc, argv};
  const auto vm_count = static_cast<int>(flags.get_count("vms", 24));

  const auto fleet = platform::uniform_fleet_classes(static_cast<std::size_t>(vm_count),
                                                     platform::optiplex_755());

  std::printf("=== Ablation D: consolidation is memory-bound; DVFS is complementary ===\n");
  std::printf("%d VMs, 12 %% CPU demand each, 4 GB hosts; sweeping memory per VM.\n\n",
              vm_count);
  std::printf("  %10s %9s %14s %12s %14s %12s\n", "VM mem MB", "hosts on", "mean load %",
              "power W", "power@max W", "DVFS gain %");

  for (const double mem : {256.0, 512.0, 1024.0, 1536.0, 2048.0, 3072.0}) {
    std::vector<consolidation::VmSpec> vms;
    for (int i = 0; i < vm_count; ++i) {
      consolidation::VmSpec v;
      v.name = "vm" + std::to_string(i);
      v.credit = 12.0;
      v.cpu_demand_pct = 12.0;
      v.memory_mb = mem;
      vms.push_back(v);
    }
    const auto placement = consolidation::place_ffd(vms, fleet);
    const auto outcome = consolidation::evaluate(placement, vms, fleet);
    const double gain =
        outcome.total_power_max_freq_watts > 0
            ? 100.0 * outcome.dvfs_saving_watts() / outcome.total_power_max_freq_watts
            : 0.0;
    std::printf("  %10.0f %9zu %14.1f %12.1f %14.1f %12.1f\n", mem, outcome.hosts_on,
                outcome.mean_active_load_pct, outcome.total_power_watts,
                outcome.total_power_max_freq_watts, gain);
  }

  std::printf("\nreading: at small footprints consolidation packs hosts to ~100 %% CPU and\n"
              "DVFS reclaims nothing; as memory binds first, active hosts run ever more\n"
              "underloaded and the PAS frequency choice recovers a growing share of the\n"
              "bill — the paper's §2.3 argument, quantified.\n");
  return 0;
}
