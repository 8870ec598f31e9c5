// Per-link migration cost model for the federation tier.
//
// The single-cluster MigrationEngine prices every flight off ONE
// MigrationConfig — "the" migration link. Across clusters that is wrong in
// two ways: links differ (an intra-rack 10 GbE, a cross-rack aggregation
// hop, a WAN circuit are different machines), and the endpoints differ (a
// xeon→optiplex move pays costs a same-class move does not). A LinkModel
// bundles one link's MigrationConfig — fed verbatim into that link's own
// MigrationEngine, so MigrationEngine::set_link_bandwidth naturally scopes
// to one link — with the class-aware surcharges applied per flight:
//
//   * cross_class_dirty_factor — a guest moving between different platform
//     classes redirties faster in transit (page-tracking conversion,
//     differing page sizes), stretching pre-copy convergence;
//   * cross_class_switch_latency — extra switch-over pause on foreign
//     hardware (device re-attach, CPU feature mask rewrite), charged via
//     MigrationEngine::begin's per-flight extra_switch_latency so it
//     survives bandwidth re-plans.
//
// This is the per-hypervisor-migrate split of the migration-framework
// design: one interface, one implementation parameterization per link
// tier. The presets are deliberately round numbers — the model prices
// RELATIVE costs (WAN downtime ≫ intra-rack downtime), not a specific
// datacenter.
#pragma once

#include <cstdint>
#include <string>

#include "cluster/migration.hpp"
#include "common/units.hpp"
#include "platform/host_class.hpp"

namespace pas::fed {

enum class LinkKind : std::uint8_t { kIntraRack = 0, kCrossRack, kWan };

struct LinkModel {
  std::string name = "intra-rack";
  LinkKind kind = LinkKind::kIntraRack;
  /// The link's pre-copy cost model: bandwidth, stop-copy threshold,
  /// switch latency, per-MB hypervisor bills. One MigrationEngine per link
  /// is constructed from exactly this config.
  cluster::MigrationConfig migration;
  /// Dirty-rate multiplier for flights whose endpoints are different
  /// platform classes (1.0 = class-blind link).
  double cross_class_dirty_factor = 1.0;
  /// Extra switch-over pause for cross-class flights, on top of the
  /// config's switch_latency.
  common::SimTime cross_class_switch_latency{};

  /// Effective dirty-rate factor for a src→dst flight on this link.
  [[nodiscard]] double dirty_factor(const platform::HostClass& src,
                                    const platform::HostClass& dst) const;
  /// Extra switch-over latency for a src→dst flight on this link.
  [[nodiscard]] common::SimTime switch_penalty(const platform::HostClass& src,
                                               const platform::HostClass& dst) const;
};

/// Presets, cheapest to dearest. A shard's internal link (its own
/// ClusterConfig::migration, whose defaults are the intra-rack tier:
/// dedicated 10 GbE, 20 ms switch) is the cheapest; the federation wires
/// cross_rack between same-rack shards and wan between racks.
[[nodiscard]] LinkModel cross_rack_link();
[[nodiscard]] LinkModel wan_link();

}  // namespace pas::fed
