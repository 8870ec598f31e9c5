#include "platform/host_class.hpp"

#include <stdexcept>

#include "common/random.hpp"

namespace pas::platform {

void validate_class(const HostClass& host_class) {
  if (host_class.numa_nodes == 0)
    throw std::invalid_argument("HostClass \"" + host_class.name +
                                "\": needs at least one NUMA node");
  if (host_class.numa_spill_penalty < 0.0)
    throw std::invalid_argument("HostClass \"" + host_class.name +
                                "\": negative NUMA spill penalty");
}

HostClass optiplex_755() {
  HostClass c;
  c.name = "optiplex-755";
  c.ladder = cpu::FrequencyLadder::paper_default();
  c.power = cpu::PowerModel::desktop_2008();
  c.memory_mb = 4096.0;
  return c;
}

HostClass elite_8300() {
  HostClass c;
  c.name = "elite-8300";
  // The Table 2 ladder (platform::table2_ladder): floors of the measured
  // power policies are exact states, ratio 0.50 at the bottom.
  c.ladder = cpu::FrequencyLadder::uniform({1700, 2040, 2473, 2800, 3100, 3400});
  c.power = cpu::PowerModel{30.0, 90.0, 3.0};
  c.memory_mb = 8192.0;
  return c;
}

HostClass xeon_e5_2620() {
  HostClass c;
  c.name = "xeon-e5-2620";
  // Table 1's turbo mechanism as a ladder: the top state silently runs at
  // ~2.49 GHz, so relative to it the nominal lower states deliver only
  // 2000/2489.5 ~= 0.80 of proportional performance — the paper's measured
  // cf_min, carried here as per-state cf.
  c.ladder = cpu::FrequencyLadder{{{common::Mhz{1200}, 0.803},
                                   {common::Mhz{1400}, 0.803},
                                   {common::Mhz{1600}, 0.803},
                                   {common::Mhz{1800}, 0.803},
                                   {common::Mhz{2000}, 1.0}}};
  c.power = cpu::PowerModel{120.0, 235.0, 3.0};
  c.memory_mb = 16384.0;
  c.numa_nodes = 2;
  c.numa_spill_penalty = 0.15;
  return c;
}

std::vector<HostClass> fleet_catalog() {
  return {xeon_e5_2620(), optiplex_755(), elite_8300()};
}

std::vector<HostClass> uniform_fleet_classes(std::size_t count,
                                             const HostClass& host_class) {
  return std::vector<HostClass>(count, host_class);
}

std::vector<HostClass> mixed_fleet_classes(std::size_t count, std::uint64_t seed) {
  const std::vector<HostClass> catalog = fleet_catalog();
  std::vector<HostClass> fleet;
  fleet.reserve(count);
  if (seed == 0) {
    for (std::size_t i = 0; i < count; ++i) fleet.push_back(catalog[i % catalog.size()]);
    return fleet;
  }
  common::Rng rng{seed};
  for (std::size_t i = 0; i < count; ++i)
    fleet.push_back(catalog[rng.next_below(catalog.size())]);
  return fleet;
}

std::vector<HostClass> numbered_fleet(std::vector<HostClass> per_host) {
  for (std::size_t i = 0; i < per_host.size(); ++i)
    per_host[i].name += "-" + std::to_string(i);
  return per_host;
}

}  // namespace pas::platform
