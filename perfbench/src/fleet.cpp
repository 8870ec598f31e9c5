// Workload table, scenario construction, the step schedule and the counters
// and model outputs read from a finished run.
#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "cluster/cluster_manager.hpp"
#include "fault/fault.hpp"
#include "scenario/federation_scenario.hpp"
#include "scenario/hosting_cluster.hpp"
#include "workload/trace_replay.hpp"

namespace perfbench {

namespace {

using pas::common::SimTime;

// Why each workload exists is written up in README.md. Thread counts stay
// within the 4 cores the benchmark is sized for.
constexpr std::array<WorkloadSpec, 2> kFull{{
    {.name = "replay_dense_32", .hosts = 32, .vms = 320, .replay = true, .horizon_s = 1200,
     .step_s = 10, .threads = 1, .ref_threads = 2},
    {.name = "federation_k4", .shards = 4, .hosts = 64, .vms = 640, .max_crashes = 8,
     .horizon_s = 4000, .step_s = 40, .threads = 2, .ref_threads = 1},
}};

// The same shapes at self-test size.
constexpr std::array<WorkloadSpec, 2> kTiny{{
    {.name = "replay_dense_32", .hosts = 8, .vms = 80, .replay = true, .horizon_s = 300,
     .step_s = 10, .threads = 1, .ref_threads = 2},
    {.name = "federation_k4", .shards = 4, .hosts = 8, .vms = 80, .max_crashes = 8,
     .horizon_s = 600, .step_s = 40, .threads = 2, .ref_threads = 1},
}};

// One fault schedule for every workload seed. A seed-drawn schedule fires
// anywhere from 0 to max_crashes crashes, which moved the SLA figure by up
// to 9x from seed to seed (README.md, "Workloads").
constexpr std::uint64_t kChaosSeed = 0x6368616f73ULL;  // "chaos"

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name, Size size) {
  for (const WorkloadSpec& spec : size == Size::kFull ? kFull : kTiny)
    if (spec.name == name) return &spec;
  return nullptr;
}

std::vector<SimTime> step_schedule(const WorkloadSpec& spec) {
  std::vector<SimTime> steps;
  for (std::int64_t t = spec.step_s; t < spec.horizon_s; t += spec.step_s)
    steps.push_back(pas::common::seconds(t));
  steps.push_back(pas::common::seconds(spec.horizon_s));
  return steps;
}

Fleet::Fleet(const WorkloadSpec& spec, std::uint64_t seed, std::size_t threads,
             const std::string& traces_dir, SetupTimes* times) {
  const auto start = std::chrono::steady_clock::now();
  pas::scenario::HostingClusterConfig cfg;
  cfg.hosts = spec.hosts;
  cfg.vms = spec.vms;
  cfg.horizon = pas::common::seconds(spec.horizon_s);
  cfg.seed = seed;
  cfg.fleet_seed = seed;
  cfg.threads = threads;
  if (spec.max_crashes > 0) {
    cfg.chaos_seed = kChaosSeed;
    cfg.chaos.max_crashes = spec.max_crashes;
  }
  if (spec.replay) {
    cfg.workload = pas::scenario::WorkloadPreset::kTrace;
    cfg.traces = pas::wl::Trace::load_dir(traces_dir);
  }
  const double load_s = seconds_since(start);

  const auto build_start = std::chrono::steady_clock::now();
  if (spec.shards == 0) {
    cluster_ = pas::scenario::build_hosting_cluster(cfg);
    clusters_.push_back(cluster_.get());
  } else {
    pas::scenario::FederationScenarioConfig fc;
    fc.base = std::move(cfg);
    fc.shards = spec.shards;
    federation_ = pas::scenario::build_federation(fc);
    for (pas::fed::ShardId s = 0; s < federation_->shard_count(); ++s)
      clusters_.push_back(&std::as_const(*federation_).shard(s));
  }
  if (times != nullptr) *times = {.trace_load_s = load_s, .build_s = seconds_since(build_start)};
}

void Fleet::run_until(SimTime until) {
  if (federation_)
    federation_->run_until(until);
  else
    cluster_->run_until(until);
}

StepCounters read_step_counters(const Fleet& fleet) {
  StepCounters c;
  for (const pas::cluster::Cluster* cl : fleet.clusters()) {
    if (const auto* m = cl->manager()) {
      c.planner_ns += m->planner_ns();
      c.max_planner_ns = std::max(c.max_planner_ns, m->planner_ns());
    }
    const pas::cluster::EngineStats& e = cl->engine_stats();
    c.segments += e.segments;
    c.dispatches += e.dispatches;
    c.bulk_skips += e.bulk_skips;
  }
  return c;
}

std::vector<Metric> layer_counts(const Fleet& fleet) {
  const StepCounters eng = read_step_counters(fleet);
  double planning_ticks = 0, plans_skipped = 0, full_rebuilds = 0, delta_plans = 0,
         cached_plans = 0, vms_scanned = 0;
  double ticks = 0, migrations_issued = 0, restarts_issued = 0, ticks_skipped = 0;
  double crashes = 0, aborts = 0;
  double completed = 0, aborted = 0, begun = 0, downtime_s = 0, mb_moved = 0;
  std::vector<pas::cluster::VmRecovery> recoveries;

  const auto count_record = [&](const pas::cluster::MigrationRecord& r) {
    (r.aborted() ? aborted : completed) += 1;
    begun += 1;
    downtime_s += r.downtime.sec();
    mb_moved += r.transferred_mb;
  };
  for (const pas::cluster::Cluster* cl : fleet.clusters()) {
    if (const pas::cluster::ClusterManager* m = cl->manager()) {
      const pas::consolidation::HostBookStats& b = m->book_stats();
      planning_ticks += static_cast<double>(m->planning_ticks());
      plans_skipped += static_cast<double>(m->plans_skipped());
      full_rebuilds += static_cast<double>(b.full_rebuilds);
      delta_plans += static_cast<double>(b.delta_plans);
      cached_plans += static_cast<double>(b.cached_plans);
      vms_scanned += static_cast<double>(b.vms_scanned);
      ticks += static_cast<double>(m->ticks());
      migrations_issued += static_cast<double>(m->migrations_issued());
      restarts_issued += static_cast<double>(m->restarts_issued());
      ticks_skipped += static_cast<double>(m->ticks_skipped());
    }
    if (const pas::fault::FaultInjector* f = cl->faults()) {
      crashes += static_cast<double>(f->crashes_fired());
      aborts += static_cast<double>(f->aborts_fired());
    }
    for (const pas::cluster::MigrationRecord& r : cl->migrations()) count_record(r);
    begun += static_cast<double>(cl->engine().active_count());
    recoveries.insert(recoveries.end(), cl->recoveries().begin(), cl->recoveries().end());
  }

  double fed_ticks = 0, fed_moves = 0, cross = 0, wan = 0;
  if (const pas::fed::Federation* f = fleet.federation()) {
    fed_ticks = static_cast<double>(f->planner_ticks());
    fed_moves = static_cast<double>(f->moves_issued());
    for (const pas::fed::FedMigrationRecord& r : f->cross_shard_records()) {
      count_record(r.record);
      if (!r.record.aborted()) cross += 1;
      if (!r.record.aborted() && r.link == pas::fed::LinkKind::kWan) wan += 1;
    }
    begun += static_cast<double>(f->cross_shard_in_flight());
  }

  const double total = static_cast<double>(eng.dispatches + eng.bulk_skips);
  return {
      {"cluster.segments", static_cast<double>(eng.segments), "count"},
      {"cluster.dispatches", static_cast<double>(eng.dispatches), "count"},
      {"cluster.bulk_skips", static_cast<double>(eng.bulk_skips), "count"},
      {"cluster.active_fraction",
       total > 0 ? static_cast<double>(eng.dispatches) / total : 1.0, "ratio"},
      {"consolidation.planning_ticks", planning_ticks, "count"},
      {"consolidation.plans_skipped", plans_skipped, "count"},
      {"consolidation.full_rebuilds", full_rebuilds, "count"},
      {"consolidation.delta_plans", delta_plans, "count"},
      {"consolidation.cached_plans", cached_plans, "count"},
      {"consolidation.vms_scanned", vms_scanned, "count"},
      {"manager.ticks", ticks, "count"},
      {"manager.migrations_issued", migrations_issued, "count"},
      {"manager.restarts_issued", restarts_issued, "count"},
      {"manager.ticks_skipped", ticks_skipped, "count"},
      {"fault.crashes_fired", crashes, "count"},
      {"fault.aborts_fired", aborts, "count"},
      {"fault.recovery_p50_s", pas::cluster::summarize_recoveries(recoveries).p50.sec(),
       "sim-s"},
      {"migration.completed", completed, "count"},
      {"migration.aborted", aborted, "count"},
      {"migration.success_ratio", begun > 0 ? completed / begun : 1.0, "ratio"},
      {"migration.downtime_s", downtime_s, "sim-s"},
      {"migration.mb_moved", mb_moved, "MB"},
      {"federation.planner_ticks", fed_ticks, "count"},
      {"federation.moves_issued", fed_moves, "count"},
      {"federation.cross_shard_migrations", cross, "count"},
      {"federation.wan_migrations", wan, "count"},
  };
}

double mean_watts(const Fleet& fleet) {
  double watts = 0.0;
  for (const pas::cluster::Cluster* cl : fleet.clusters()) watts += cl->average_watts();
  return watts;
}

double sla_violation_pct(const Fleet& fleet) {
  std::int64_t violation_us = 0;
  std::int64_t observed_us = 0;
  for (const pas::cluster::Cluster* cl : fleet.clusters()) {
    for (pas::cluster::GlobalVmId vm = 0; vm < cl->vm_count(); ++vm) {
      violation_us += cl->sla().violation_time(vm).us();
      observed_us += cl->sla().observed_time(vm).us();
    }
  }
  if (observed_us == 0) throw std::runtime_error("no saturated VM time was observed");
  return 100.0 * static_cast<double>(violation_us) / static_cast<double>(observed_us);
}

}  // namespace perfbench
