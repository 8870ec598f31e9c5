// Per-machine platform classes for heterogeneous fleets.
//
// The paper's evaluation already spans distinct machines — the Optiplex 755
// every figure runs on, the HP Elite 8300 (i7-3770) behind Table 2, the
// Grid5000 parts of Table 1 with cf < 1 — yet the cluster layer used to
// clone one host template across the whole fleet, so consolidation and
// DVFS decisions were blind to machine differences. A HostClass bundles
// what makes a machine *itself*: its frequency ladder (with per-state cf),
// its power model, its schedulable CPU capacity, its memory, and its NUMA
// layout with the cross-node efficiency penalty the planner charges when a
// VM cannot be node-local.
//
// HostClass is the one description of a machine: cluster::ClusterConfig,
// scenario::HostingClusterConfig and the consolidation planner (place_ffd,
// evaluate, HostBook) all read it directly. The stock classes below are cut
// from those measured machines; the fleet catalog and the mixing helpers
// turn them into per-host class lists. Every helper is deterministic —
// mixes are a pure function of (count, seed) — so heterogeneous runs keep
// the repo's byte-identity contracts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/frequency_ladder.hpp"
#include "cpu/power_model.hpp"

namespace pas::platform {

struct HostClass {
  std::string name;
  cpu::FrequencyLadder ladder = cpu::FrequencyLadder::paper_default();
  cpu::PowerModel power = cpu::PowerModel::desktop_2008();
  /// Schedulable CPU in percent of one max-frequency processor (the
  /// simulated host models a single processor, so cluster classes use 100;
  /// the static planner accepts larger values for capacity studies).
  double cpu_capacity_pct = 100.0;
  double memory_mb = 4096.0;
  /// NUMA node count; memory_mb splits evenly across nodes. 1 = UMA.
  std::size_t numa_nodes = 1;
  /// Extra CPU fraction a VM costs when its footprint exceeds one node
  /// (consolidation::numa_spills) — the cross-node efficiency penalty,
  /// applied to both the credit the planner reserves and the demand it
  /// charges.
  double numa_spill_penalty = 0.0;
};

/// Throws std::invalid_argument unless the NUMA layout can exist: at least
/// one node and a non-negative spill penalty. Cluster, place_ffd and
/// HostBook::add_host all validate their classes through this.
void validate_class(const HostClass& host_class);

// --- stock classes (the paper's machines) ----------------------------------

/// DELL Optiplex 755 — the paper's evaluation host: the 1600–2667 MHz
/// ladder of every figure, a Core2-era 45/105 W desktop envelope, 4 GB.
[[nodiscard]] HostClass optiplex_755();

/// HP Elite 8300 (i7-3770) — the Table 2 machine: the 1700–3400 MHz ladder
/// with a deep 0.50-ratio floor, an Ivy-Bridge-era 30/90 W envelope, 8 GB.
/// The fleet's power-efficient class.
[[nodiscard]] HostClass elite_8300();

/// Dual-socket Xeon E5-2620 — the Table 1 machine whose cf drops to 0.80:
/// lower states deliver only ~80 % of nominal proportionality (the turbo
/// effect modeled in calibration/machine_model), a 120/235 W server
/// envelope, 16 GB across 2 NUMA nodes with a 15 % cross-node penalty.
/// The fleet's power-hungry class.
[[nodiscard]] HostClass xeon_e5_2620();

/// The stock classes, ordered hungriest-first (xeon, optiplex, elite) —
/// the order mixed_fleet_classes round-robins, so index-order packing
/// lights the most expensive machines first and efficient-first packing
/// has something to save.
[[nodiscard]] std::vector<HostClass> fleet_catalog();

// --- fleet builders --------------------------------------------------------

/// `count` copies of one class — the uniform fleet as a class list.
[[nodiscard]] std::vector<HostClass> uniform_fleet_classes(std::size_t count,
                                                           const HostClass& host_class);

/// A deterministic heterogeneous fleet: seed 0 round-robins the catalog
/// (host i gets catalog[i % 3], hungriest at index 0); any other seed draws
/// each host's class from a common::Rng{seed}. Pure function of its
/// arguments — safe under every byte-identity contract.
[[nodiscard]] std::vector<HostClass> mixed_fleet_classes(std::size_t count,
                                                         std::uint64_t seed = 0);

/// A copy of `per_host` with entry i renamed "<class>-i" — labels for the
/// static planner's printouts. Never feed the result to a Cluster:
/// fed::LinkModel prices cross-class flights by comparing class names.
[[nodiscard]] std::vector<HostClass> numbered_fleet(std::vector<HostClass> per_host);

/// Kept for perfbench/src/probes.cpp, which still calls it; the planner
/// reads HostClass directly, so this returns its argument.
[[nodiscard]] inline HostClass to_host_spec(const HostClass& host_class) { return host_class; }

}  // namespace pas::platform
