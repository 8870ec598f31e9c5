// perfbench: the repository benchmark. It drives the simulator only through
// its public headers — the scenario builders, Cluster/Federation::run_until
// and the accessors — and never through the figure or cluster benches.
//
// Pieces:
//   fleet.cpp  — the workload table, scenario construction and the pinned
//                run_until step schedule;
//   digest.cpp — the canonical output digest (every observable reachable
//                through public accessors, energy as raw bits);
//   probes.cpp — standalone layer probes (one host, the credit scheduler's
//                pick, the event queue, a HostBook rebuild);
//   main.cpp   — the timed and traced runs, correctness checks and the
//                metric report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "federation/federation.hpp"

namespace perfbench {

/// Full size is the benchmark proper; tiny is the self-test size (the same
/// shapes, a fraction of the fleet and horizon).
enum class Size { kFull, kTiny };

struct WorkloadSpec {
  std::string_view name;
  /// Number of federation shards; 0 builds a bare cluster.
  std::size_t shards = 0;
  /// Hosts and VMs per cluster (per shard for a federation).
  std::size_t hosts = 0;
  std::size_t vms = 0;
  /// Every tenant replays a trace from the trace directory.
  bool replay = false;
  /// Draw a fault schedule (up to `max_crashes` host crashes).
  std::size_t max_crashes = 0;
  std::int64_t horizon_s = 0;
  /// run_until is called at every multiple of step_s, then at the horizon.
  /// Outputs depend on where the calls land, so timed and traced runs share
  /// this schedule exactly.
  std::int64_t step_s = 0;
  /// Executor threads of the measured runs, and of the reference run whose
  /// digest they must match.
  std::size_t threads = 1;
  std::size_t ref_threads = 1;
};

/// nullptr when `name` names no workload.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name, Size size);
/// The run_until instants: step_s, 2·step_s, ..., horizon.
[[nodiscard]] std::vector<pas::common::SimTime> step_schedule(const WorkloadSpec& spec);

/// Wall time of one scenario set-up, split into its two parts.
struct SetupTimes {
  double trace_load_s = 0.0;
  double build_s = 0.0;
};

/// One generated scenario: a bare cluster or a federation of shards. The
/// workload seed sets the scenario seed and the fleet seed; the chaos
/// schedule is the same for every seed (see fleet.cpp). Nothing else reaches
/// the simulator.
class Fleet {
 public:
  Fleet(const WorkloadSpec& spec, std::uint64_t seed, std::size_t threads,
        const std::string& traces_dir, SetupTimes* times);

  void run_until(pas::common::SimTime until);

  /// The cluster, or every shard in shard order.
  [[nodiscard]] const std::vector<const pas::cluster::Cluster*>& clusters() const {
    return clusters_;
  }
  /// nullptr for a bare cluster.
  [[nodiscard]] const pas::fed::Federation* federation() const { return federation_.get(); }

 private:
  std::unique_ptr<pas::cluster::Cluster> cluster_;
  std::unique_ptr<pas::fed::Federation> federation_;
  std::vector<const pas::cluster::Cluster*> clusters_;
};

/// Counters read at step boundaries in the traced run, summed over clusters.
struct StepCounters {
  std::uint64_t planner_ns = 0;
  /// The largest single cluster's (shard's) planner_ns.
  std::uint64_t max_planner_ns = 0;
  std::uint64_t segments = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t bulk_skips = 0;
};
[[nodiscard]] StepCounters read_step_counters(const Fleet& fleet);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer values of a finished run. Every value is a count or a
/// simulated quantity, so it repeats exactly for one seed.
[[nodiscard]] std::vector<Metric> layer_counts(const Fleet& fleet);

// --- model outputs ---
/// Σ average_watts() over clusters (shards).
[[nodiscard]] double mean_watts(const Fleet& fleet);
/// 100 · Σ violation_time ÷ Σ observed_time over every VM of every cluster.
[[nodiscard]] double sla_violation_pct(const Fleet& fleet);

/// Canonical digest of every observable a run exposes (digest.cpp).
[[nodiscard]] std::uint64_t digest(const Fleet& fleet);

// --- standalone layer probes (probes.cpp) ---
/// Simulated seconds per wall second of one hv::Host carrying a tenant mix
/// of the workload's kind.
[[nodiscard]] double probe_host_sim_per_wall(const WorkloadSpec& spec, std::uint64_t seed,
                                             const std::string& traces_dir);
/// Wall ns per CreditScheduler::pick (with the charge that follows it).
[[nodiscard]] double probe_pick_ns(std::uint64_t seed);
/// Wall ns per EventQueue operation over a schedule/reschedule/run mix.
[[nodiscard]] double probe_event_queue_ns_per_op(std::uint64_t seed);
/// Wall ms of a from-scratch HostBook fill plus plan() over the largest
/// cluster's hosts and running VMs.
[[nodiscard]] double probe_rebuild_ms(const Fleet& fleet);

}  // namespace perfbench
