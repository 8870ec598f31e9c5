#include "scenario/federation_scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"

namespace pas::scenario {

std::unique_ptr<fed::Federation> build_federation(
    const FederationScenarioConfig& config) {
  if (config.shards == 0)
    throw std::invalid_argument("build_federation: need at least one shard");

  // Skew: move base.vms/4 tenants from the last shard to shard 0 (shards
  // > 1 only) so the planner has an imbalance to work on.
  const std::size_t extra = config.shards > 1 ? config.base.vms / 4 : 0;

  // base.threads is the whole run's budget (see the header for the split).
  const std::size_t budget = config.base.threads == 0
                                 ? common::ThreadPool::hardware_threads()
                                 : config.base.threads;
  fed::FederationConfig federation = config.federation;
  federation.threads = std::min(budget, config.shards);
  const std::size_t shard_threads = std::max<std::size_t>(1, budget / federation.threads);

  std::vector<std::unique_ptr<cluster::Cluster>> shards;
  shards.reserve(config.shards);
  for (std::size_t s = 0; s < config.shards; ++s) {
    HostingClusterConfig shard = config.base;
    shard.threads = shard_threads;
    // s = 0 keeps `base` verbatim bar the thread split (wall-clock only) —
    // the K = 1 byte-exactness contract.
    shard.seed = config.base.seed + s * 1000;
    if (config.base.fleet_seed != 0) shard.fleet_seed = config.base.fleet_seed + s;
    if (s == 0) shard.vms += extra;
    if (s + 1 == config.shards && s != 0) shard.vms -= extra;
    shards.push_back(build_hosting_cluster(shard));
  }
  return std::make_unique<fed::Federation>(std::move(federation), std::move(shards));
}

}  // namespace pas::scenario
