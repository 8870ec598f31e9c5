// Cluster consolidation bench: the §2.3 figure made dynamic, plus the
// cluster layer's throughput and exactness gates.
//
// One scenario — 8 hosts x 64 VMs, tenants spread round-robin, an online
// manager consolidating them with live migrations — measured three ways:
//
//   static spread      : no manager; every host on, pinned at max frequency
//   consolidation only : manager migrates + VOVO, frequency pinned at max
//   consolidation + PAS: manager additionally scales each host's frequency
//                        (credits eq.-4-compensated)
//
// The consolidation-only minus consolidation+PAS gap is the energy DVFS
// reclaims ON TOP of consolidation — positive exactly because memory binds
// before CPU (§2.3), now demonstrated on a running fleet with migration
// overhead and downtime included rather than on a frozen placement.
//
// Each optional tier (hetero, trace, chaos, control, scale, federation)
// is one row of kTiers; every tier with an identity verdict runs through
// run_variants — slow-stepped, fast, and at --threads > 1 the parallel
// engine. Identity gates are always on, --smoke included. Every flag, JSON
// field and threshold gate (one per row of kGates, with its smoke-exempt
// column) is documented in docs/BENCHMARKS.md.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "common/flags.hpp"
#include "common/thread_pool.hpp"
#include "control/control_plane.hpp"
#include "control/task.hpp"
#include "federation/federation.hpp"
#include "platform/host_class.hpp"
#include "scenario/federation_scenario.hpp"
#include "scenario/hosting_cluster.hpp"
#include "throughput_common.hpp"
#include "workload/trace_replay.hpp"

namespace {

using pas::bench::Json;
using pas::bench::run_timed;
using pas::common::seconds;
using pas::common::SimTime;
using pas::scenario::FederationScenarioConfig;
using pas::scenario::HostingClusterConfig;

std::unique_ptr<pas::cluster::Cluster> build(const HostingClusterConfig& cfg) {
  return pas::scenario::build_hosting_cluster(cfg);
}
std::unique_ptr<pas::fed::Federation> build(const FederationScenarioConfig& cfg) {
  return pas::scenario::build_federation(cfg);
}
HostingClusterConfig& engine(HostingClusterConfig& cfg) { return cfg; }
HostingClusterConfig& engine(FederationScenarioConfig& cfg) { return cfg.base; }

// One tier's engine variants of the same scenario, each run to the
// horizon: slow-stepped, fast, and (at threads > 1) fast on the parallel
// engine. The fast run feeds the tier's statistics; the parallel run is
// kept only so a tier can report how its engine was wired.
template <class Config>
struct Variants {
  decltype(build(std::declval<const Config&>())) fast;
  decltype(build(std::declval<const Config&>())) par;  // null at threads <= 1
  double slow_wall = 0.0;
  double fast_wall = 0.0;
  double par_wall = 0.0;
  std::optional<std::string> slow_vs_fast;  // first divergence, nullopt = identical
  std::optional<std::string> par_vs_serial;

  [[nodiscard]] bool identical() const { return !slow_vs_fast && !par_vs_serial; }
  [[nodiscard]] std::string divergence() const {
    return slow_vs_fast ? "slow vs fast: " + *slow_vs_fast
                        : "parallel vs serial: " + par_vs_serial.value_or("");
  }
};

template <class Config>
Variants<Config> run_variants(Config cfg, SimTime horizon, std::size_t threads) {
  Variants<Config> v;
  engine(cfg).fast_path = false;
  auto slow = build(cfg);
  v.slow_wall = run_timed(*slow, horizon);
  engine(cfg).fast_path = true;
  v.fast = build(cfg);
  v.fast_wall = run_timed(*v.fast, horizon);
  v.slow_vs_fast = first_divergence(*slow, *v.fast);
  if (threads > 1) {
    engine(cfg).threads = threads;
    v.par = build(cfg);
    v.par_wall = run_timed(*v.par, horizon);
    v.par_vs_serial = first_divergence(*v.fast, *v.par);
  }
  return v;
}

struct Gate;

// Everything the flags ask for, parsed before any simulation runs: the
// --trace and --commands files included, so bad input costs no run.
struct Options {
  bool smoke = false;
  long horizon_s = 0;
  std::string fleet;
  std::size_t threads = 1;
  std::string trace_dir;
  std::string commands_file;
  std::string out;
  // The 8x64 scenario, and each optional tier's variant of it; a tier the
  // flags leave off has none.
  HostingClusterConfig base;
  std::optional<HostingClusterConfig> trace, chaos, control, scale;
  std::optional<FederationScenarioConfig> federation;
  std::vector<std::pair<const Gate*, double>> gates;  // the ones turned on, with limits
};

// What switches a tier on; a gate names the one that produces its field.
struct Need {
  const char* what;
  bool (*on)(const Options&);
};
const Need kParallel{"--threads > 1", [](const Options& o) { return o.threads > 1; }};
const Need kMixed{"--fleet=mixed", [](const Options& o) { return o.fleet == "mixed"; }};
const Need kTrace{"--trace", [](const Options& o) { return o.trace.has_value(); }};
const Need kChaos{"--chaos-seed", [](const Options& o) { return o.chaos.has_value(); }};
const Need kControl{"--commands", [](const Options& o) { return o.control.has_value(); }};
const Need kScale{"--scale-hosts > 0", [](const Options& o) { return o.scale.has_value(); }};
const Need kFederation{"--federation > 0",
                       [](const Options& o) { return o.federation.has_value(); }};

// A threshold gate over one number of the JSON document.
enum class Bound { kFloor, kCeiling, kPositive };
struct Gate {
  const char* flag;   // nullptr: always on; a kPositive flag is a bare switch
  const char* path;
  Bound bound;        // >= the flag's value, <= it, or > 0
  const Need* needs;  // the tier that produces `path`; nullptr: always runs
  bool smoke_exempt;  // a --smoke horizon is too short to measure it honestly
};
const Gate kGates[] = {
    {nullptr, "dvfs_saving_watts", Bound::kPositive, nullptr, false},
    {"require-rate", "fast.sim_per_wall", Bound::kFloor, nullptr, false},
    {"require-parallel-speedup", "parallel_speedup", Bound::kFloor, &kParallel, true},
    {"require-hetero-saving", "hetero.efficient_first_saving_watts", Bound::kPositive,
     &kMixed, true},
    {"require-scale-planner-ns", "scale.planner_ns_per_tick", Bound::kCeiling, &kScale, true},
    {"require-scale-rate", "scale.sim_per_wall", Bound::kFloor, &kScale, true},
    {"require-active-fraction", "engine.active_fraction", Bound::kCeiling, &kScale, true},
    {"require-federation-rate", "federation.sim_per_wall", Bound::kFloor, &kFederation, true},
};

// Throws std::runtime_error (origin:line first where there is one) on a
// malformed flag, an unreadable input file or a gate whose tier is off.
Options parse(const pas::common::Flags& flags) {
  Options o;
  o.smoke = flags.has("smoke");
  o.horizon_s = flags.get_int("horizon", o.smoke ? 400 : 4000);
  if (o.horizon_s < 64) throw std::runtime_error("--horizon must be >= 64");
  o.base.hosts = flags.get_count("hosts", 8);
  o.base.vms = flags.get_count("vms", 64);
  o.base.horizon = seconds(o.horizon_s);
  o.out = flags.get_or("out", "BENCH_cluster.json");
  o.fleet = flags.get_or("fleet", "uniform");
  if (o.fleet != "uniform" && o.fleet != "mixed")
    throw std::runtime_error("--fleet must be uniform or mixed");
  if (kMixed.on(o)) {
    o.base.fleet = pas::scenario::FleetPreset::kMixed;
    o.base.fleet_seed = static_cast<std::uint64_t>(flags.get_int("fleet-seed", 0));
  }
  // --threads follows ClusterConfig::threads semantics: 1 (the default) = serial
  // only, no parallel measurement; 0 = hardware concurrency; N > 1 = N.
  o.threads = flags.get_count("threads", 1);
  if (o.threads == 0) o.threads = pas::common::ThreadPool::hardware_threads();
  o.trace_dir = flags.get_or("trace", "");
  if (!o.trace_dir.empty()) {
    o.trace = o.base;
    o.trace->workload = pas::scenario::WorkloadPreset::kTrace;
    o.trace->traces = pas::wl::Trace::load_dir(o.trace_dir);
  }
  if (const long seed = flags.get_int("chaos-seed", 0); seed != 0) {
    o.chaos = o.base;
    o.chaos->chaos_seed = static_cast<std::uint64_t>(seed);
  }
  o.commands_file = flags.get_or("commands", "");
  if (!o.commands_file.empty()) {
    std::ifstream in(o.commands_file, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + o.commands_file);
    std::ostringstream text;
    text << in.rdbuf();
    o.control = o.base;
    o.control->commands =
        pas::ctl::parse_tasks(text.str(), o.commands_file, {o.base.hosts, o.base.vms});
  }
  if (const std::size_t hosts = flags.get_count("scale-hosts", 0); hosts > 0) {
    // The same recipe at fleet size, run once on the fast path with the
    // full engine: sparse partition on the coordinating thread, pooled
    // dispatch of the active remainder at --threads.
    o.scale = o.base;
    o.scale->hosts = hosts;
    o.scale->vms = flags.get_count("scale-vms", hosts * 10);
    o.scale->horizon = seconds(flags.get_int("scale-horizon", o.smoke ? 120 : 600));
    o.scale->fast_path = true;
    o.scale->threads = o.threads;
  }
  if (const std::size_t shards = flags.get_count("federation", 0); shards > 0) {
    o.federation.emplace();
    o.federation->base = o.base;
    o.federation->shards = shards;
  }
  for (const Gate& g : kGates) {
    // A floor or ceiling is on when its flag's value is > 0, a kPositive
    // flag when it is present, a flagless row always.
    const bool has_limit = g.flag && g.bound != Bound::kPositive;
    const double limit = has_limit ? flags.get_double(g.flag, 0.0) : 0.0;
    if (g.flag && !(has_limit ? limit > 0.0 : flags.has(g.flag))) continue;
    if (g.needs && !g.needs->on(o))
      throw std::runtime_error(std::string{"--"} + g.flag + " needs " + g.needs->what);
    o.gates.emplace_back(&g, limit);
  }
  return o;
}

// What the tiers share: the parsed flags and the main runs (the K = 1
// federation and the engine block read them).
struct Context {
  explicit Context(const Options& o) : opt(o) {}

  const Options& opt;
  Variants<HostingClusterConfig> main;
  // Sparse-driver telemetry comes from the most representative fleet this
  // invocation runs: the scale tier when present (consolidation parks most
  // of a big fleet, which is what the active-fraction gate is about),
  // otherwise the 8x64 fast run.
  pas::cluster::EngineStats engine_stats;
  // First divergences of failed identity verdicts, printed with the gates.
  std::vector<std::string> divergences;

  template <class Runs>
  bool verdict(const char* tier, const Runs& runs) {
    if (!runs.identical()) divergences.push_back(std::string{tier} + " " + runs.divergence());
    return runs.identical();
  }
  [[nodiscard]] double rate(double wall) const {
    return static_cast<double>(opt.horizon_s) / wall;
  }
};

// --- throughput + exactness: fast path vs reference loop (and the parallel
// --- engine at --threads > 1), manager on ---
Json run_main(Context& c) {
  const Options& o = c.opt;
  c.main = run_variants(o.base, o.base.horizon, o.threads);
  const auto& m = c.main;
  c.verdict("hosting cluster", m);
  c.engine_stats = m.fast->engine_stats();

  Json j;
  j.str("bench", "cluster_consolidation")
      .str("scenario", "hosting_cluster_" + std::to_string(o.base.hosts) + "x" +
                           std::to_string(o.base.vms))
      .str("fleet", o.fleet)
      .integer("hosts", o.base.hosts)
      .integer("vms", o.base.vms)
      .integer("simulated_seconds", o.horizon_s)
      .obj("slow", Json::one_line()
                       .num("wall_seconds", m.slow_wall, 6)
                       .num("sim_per_wall", c.rate(m.slow_wall), 1))
      .obj("fast", Json::one_line()
                       .num("wall_seconds", m.fast_wall, 6)
                       .num("sim_per_wall", c.rate(m.fast_wall), 1))
      .num("speedup", m.slow_wall / m.fast_wall, 3)
      .verdict("traces_identical", !m.slow_vs_fast);
  // The parallel A/B only exists at --threads > 1: without it the whole
  // block is null — numbers from a run that never happened are as vacuous
  // as a defaulted identity verdict.
  if (!kParallel.on(o))
    return j.null("parallel").null("parallel_speedup").null("parallel_identical");
  return j
      .obj("parallel", Json::one_line()
                           .integer("threads", o.threads)
                           .num("wall_seconds", m.par_wall, 6)
                           .num("sim_per_wall", c.rate(m.par_wall), 1))
      .num("parallel_speedup", m.fast_wall / m.par_wall, 3)
      .verdict("parallel_identical", !m.par_vs_serial);
}

// --- the dynamic §2.3 figure ---
// (c) consolidation + PAS is the main fast run; (a) and (b) rerun the same
// tenants under the other policies.
Json run_policies(Context& c) {
  const Options& o = c.opt;
  auto cfg_spread = o.base;
  cfg_spread.install_manager = false;
  auto spread = pas::scenario::build_hosting_cluster(cfg_spread);
  spread->run_until(o.base.horizon);

  auto cfg_consol = o.base;
  cfg_consol.manager.dvfs = pas::cluster::ClusterManagerConfig::Dvfs::kPinnedMax;
  auto consol = pas::scenario::build_hosting_cluster(cfg_consol);
  consol->run_until(o.base.horizon);

  const double watts_spread = spread->average_watts();
  const double watts_consol = consol->average_watts();
  const double watts_pas = c.main.fast->average_watts();
  return Json{}
      .num("watts_static_spread", watts_spread, 3)
      .num("watts_consolidation_only", watts_consol, 3)
      .num("watts_consolidation_pas", watts_pas, 3)
      .num("consolidation_saving_watts", watts_spread - watts_consol, 3)
      .num("dvfs_saving_watts", watts_consol - watts_pas, 3);
}

// --- heterogeneity: per-class split + the efficient-first A/B ---
// The naive baseline reruns the PAS policy with the planner's
// heterogeneity-aware host ordering disabled (index-order FFD): the watt
// gap prices the cost term on the mixed fleet.
Json run_hetero(Context& c) {
  const Options& o = c.opt;
  auto cfg_naive = o.base;
  cfg_naive.manager.efficient_first = false;
  auto naive = pas::scenario::build_hosting_cluster(cfg_naive);
  naive->run_until(o.base.horizon);
  const auto& fast = *c.main.fast;
  const double watts_naive_order = naive->average_watts();
  const double hetero_saving = watts_naive_order - fast.average_watts();

  // Per-class host count and energy, ordered by name for a stable JSON.
  std::map<std::string, std::pair<std::size_t, double>> classes;
  for (pas::cluster::HostId h = 0; h < fast.host_count(); ++h) {
    auto& [hosts, joules] = classes[fast.host_class(h).name];
    ++hosts;
    joules += fast.host_energy_joules(h);
  }
  Json by_class;
  for (const auto& [name, stat] : classes)
    by_class.obj(name, Json::one_line()
                           .integer("hosts", stat.first)
                           .num("energy_joules", stat.second, 3));
  return Json{}
      .obj("classes", std::move(by_class))
      .num("watts_naive_order", watts_naive_order, 3)
      .num("efficient_first_saving_watts", hetero_saving, 3);
}

// --- trace replay: recorded-demand tenants on the same fleet ---
Json run_trace(Context& c) {
  const Options& o = c.opt;
  const auto tr = run_variants(*o.trace, o.base.horizon, o.threads);
  const auto& tr_fast = *tr.fast;
  const bool identical = c.verdict("trace replay", tr);

  return Json{}
      .str("dir", o.trace_dir)
      .integer("files", o.trace->traces.size())
      .verdict("replay_identical", identical)
      .num("sim_per_wall", c.rate(tr.fast_wall), 1)
      .num("speedup", tr.slow_wall / tr.fast_wall, 3)
      .num("watts", tr_fast.average_watts(), 3)
      .integer("migrations", tr_fast.migrations().size());
}

// --- chaos: the same scenario under a seeded fault schedule ---
// Separate runs, so the policy numbers stay fault-free.
Json run_chaos(Context& c) {
  const Options& o = c.opt;
  const auto ch = run_variants(*o.chaos, o.base.horizon, o.threads);
  const auto& ch_fast = *ch.fast;
  const bool identical = c.verdict("chaos", ch);

  const pas::fault::FaultInjector& inj = *ch_fast.faults();
  const pas::cluster::ClusterManager& mgr = *ch_fast.manager();
  // Recovery-latency SLO stats (orphan → running again): p50/mean/max
  // over the run's VmRecovery records.
  const pas::cluster::RecoveryStats rec =
      pas::cluster::summarize_recoveries(ch_fast.recoveries());

  return Json{}
      .integer("seed", o.chaos->chaos_seed)
      .integer("faults_drawn", inj.plan().events.size())
      .integer("crashes", inj.crashes_fired())
      .integer("migration_aborts", inj.aborts_fired())
      .integer("link_degrades", inj.link_degrades_fired())
      .integer("brownout_ticks_skipped", mgr.ticks_skipped())
      .integer("vms", ch_fast.vm_count())
      .integer("vms_survived", ch_fast.running_vm_count())
      .integer("vms_lost", ch_fast.lost_vm_count())
      .integer("recovery_restarts", rec.count)
      .integer("recovery_abandoned", mgr.restarts_abandoned())
      .num("recovery_latency_p50_s", rec.p50.sec(), 6)
      .num("recovery_latency_mean_s", rec.mean_s, 3)
      .num("recovery_latency_max_s", rec.max.sec(), 6)
      .integer("restarts_issued", mgr.restarts_issued())
      .verdict("chaos_identical", identical);
}

// --- control plane: an external command stream over the same fleet ---
// `control.replay_identical` combines the engine variants, a fresh
// re-record and the annotation round trip.
Json run_control(Context& c) {
  const Options& o = c.opt;
  const auto ct = run_variants(*o.control, o.base.horizon, o.threads);
  const auto& ct_fast = ct.fast;
  bool identical = c.verdict("control", ct);

  // Re-record: the same file through a fresh cluster must reproduce the
  // run, result log included.
  {
    auto ct_re = pas::scenario::build_hosting_cluster(*o.control);
    ct_re->run_until(o.base.horizon);
    if (auto d = first_divergence(*ct_fast, *ct_re)) {
      identical = false;
      c.divergences.push_back("control re-record: " + *d);
    }
  }

  // Close the loop: the result log re-injected as a no-op annotation
  // stream must re-record itself verbatim (annotation streams are a
  // fixed point of record→re-inject — ctl::results_to_annotations).
  {
    const std::string notes =
        pas::ctl::results_to_annotations(ct_fast->control()->results());
    auto cfg_notes = o.base;
    cfg_notes.commands = pas::ctl::parse_tasks(notes, "<annotations>", {o.base.hosts, o.base.vms});
    auto ct_notes = pas::scenario::build_hosting_cluster(cfg_notes);
    ct_notes->run_until(o.base.horizon);
    if (pas::ctl::results_to_annotations(ct_notes->control()->results()) != notes) {
      identical = false;
      c.divergences.push_back("control annotation round trip: re-recorded stream differs");
    }
  }

  const pas::ctl::ControlPlane& plane = *ct_fast->control();
  return Json{}
      .str("file", o.commands_file)
      .integer("tasks", o.control->commands.size())
      .integer("fired", plane.results().size())
      .integer("accepted", plane.accepted())
      .integer("rejected", plane.rejected())
      .integer("superseded", plane.superseded())
      .verdict("replay_identical", identical);
}

// --- scale: the persistent planner at fleet size ---
// Same scenario recipe at --scale-hosts x --scale-vms, run once on the
// fast path. The planner's equivalence to from-scratch FFD is pinned per
// tick by tests/cluster/cluster_incremental_test.cpp.
Json run_scale(Context& c) {
  const HostingClusterConfig& cfg = *c.opt.scale;
  auto sc = pas::scenario::build_hosting_cluster(cfg);
  const double sc_wall = run_timed(*sc, cfg.horizon);
  const double scale_rate = cfg.horizon.sec() / sc_wall;
  c.engine_stats = sc->engine_stats();

  const pas::cluster::ClusterManager& mgr = *sc->manager();
  const pas::consolidation::HostBookStats& bk = mgr.book_stats();
  // Amortized planner cost per manager tick: skipped ticks count — the
  // early-out is exactly what buys the amortization.
  const std::size_t ticks = mgr.planning_ticks() + mgr.plans_skipped();
  const double ns_per_tick =
      ticks > 0 ? static_cast<double>(mgr.planner_ns()) / static_cast<double>(ticks) : 0.0;

  return Json{}
      .integer("hosts", cfg.hosts)
      .integer("vms", cfg.vms)
      .integer("simulated_seconds", cfg.horizon.us() / 1'000'000)
      .num("wall_seconds", sc_wall, 6)
      .num("sim_per_wall", scale_rate, 1)
      .integer("planner_ns", mgr.planner_ns())
      .integer("planning_ticks", mgr.planning_ticks())
      .integer("plans_skipped", mgr.plans_skipped())
      .num("planner_ns_per_tick", ns_per_tick, 1)
      .obj("book", Json::one_line()
                       .integer("plans", bk.plans)
                       .integer("cached", bk.cached_plans)
                       .integer("delta", bk.delta_plans)
                       .integer("full_rebuilds", bk.full_rebuilds)
                       .integer("vms_scanned", bk.vms_scanned)
                       .integer("hosts_visited", bk.hosts_visited));
}

// --- federation: K shards under the global planner, per-link WAN moves ---
Json run_federation(Context& c) {
  const Options& o = c.opt;
  const auto fd = run_variants(*o.federation, o.base.horizon, o.threads);
  const auto& fd_fast = fd.fast;
  bool identical = c.verdict("federation", fd);
  // K = 1 degradation: byte-exact to the single-cluster fast run (same
  // config, same seed, no skew, no federation events).
  if (o.federation->shards == 1) {
    if (auto d = first_divergence(*c.main.fast, fd_fast->shard(0))) {
      identical = false;
      c.divergences.push_back("federation K=1 vs bare cluster: " + *d);
    }
  }

  // Cross-shard census by link kind; the intra-rack tier is the shards'
  // own internal migrations.
  const auto& flights = fd_fast->cross_shard_records();
  const auto wan_moves = static_cast<std::size_t>(
      std::count_if(flights.begin(), flights.end(),
                    [](const auto& r) { return r.link == pas::fed::LinkKind::kWan; }));
  std::size_t intra_moves = 0;
  std::size_t fed_vms = 0;
  for (pas::fed::ShardId s = 0; s < fd_fast->shard_count(); ++s) {
    intra_moves += fd_fast->shard(s).migrations().size();
    fed_vms += fd_fast->shard(s).vm_count();
  }
  // The executor split build_federation made of the --threads budget
  // (the serial run's 1/1 when --threads is 1).
  const pas::fed::Federation& split = fd.par ? *fd.par : *fd_fast;
  return Json{}
      .integer("shards", o.federation->shards)
      .integer("vms", fed_vms)
      .integer("planner_ticks", fd_fast->planner_ticks())
      .integer("cross_shard_migrations", flights.size())
      .obj("links", Json::one_line()
                        .integer("intra_rack", intra_moves)
                        .integer("cross_rack", flights.size() - wan_moves)
                        .integer("wan", wan_moves))
      .integer("executors", split.execution_threads())
      .integer("shard_executors", split.shard(0).execution_threads())
      .num("wall_seconds", fd.fast_wall, 6)
      .num("sim_per_wall", c.rate(fd.fast_wall), 1)
      .verdict("federation_identical", identical);
}

// --- engine telemetry: the sparse driver's dispatch counters ---
// active_fraction = dispatches / (dispatches + bulk_skips): how much of
// the fleet the engine really had to step.
Json run_engine(Context& c) {
  const pas::cluster::EngineStats& e = c.engine_stats;
  return Json{}
      .integer("segments", e.segments)
      .integer("dispatches", e.dispatches)
      .integer("bulk_skips", e.bulk_skips)
      .num("active_fraction", e.active_fraction(), 6)
      .integer("pool_grain", pas::common::ThreadPool::kDefaultGrain);
}

// The tiers in run, print and JSON order. A keyless tier's fields go to
// the top level of the document.
struct Tier {
  const char* key;
  const Need* needs;  // nullptr: always runs
  Json (*run)(Context&);
};
const Tier kTiers[] = {
    {nullptr, nullptr, run_main},           {nullptr, nullptr, run_policies},
    {"hetero", &kMixed, run_hetero},        {"trace", &kTrace, run_trace},
    {"chaos", &kChaos, run_chaos},          {"control", &kControl, run_control},
    {"scale", &kScale, run_scale},          {"federation", &kFederation, run_federation},
    {"engine", nullptr, run_engine},
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(pas::common::Flags{argc, argv});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_cluster_consolidation: %s\n", e.what());
    return 2;
  }
  std::printf("=== cluster consolidation: %zu hosts x %zu VMs, %ld simulated s, %s fleet ===\n",
              opt.base.hosts, opt.base.vms, opt.horizon_s, opt.fleet.c_str());

  Context ctx{opt};
  Json doc;
  for (const Tier& t : kTiers) {
    if (t.needs && !t.needs->on(opt)) continue;
    Json fields = t.run(ctx);
    if (t.key) fields = Json{}.obj(t.key, std::move(fields));
    std::fputs(fields.lines().c_str(), stdout);
    doc.merge(std::move(fields));
  }
  doc.integer("migrations", ctx.main.fast->migrations().size())
      .integer("hosts_on_final", ctx.main.fast->powered_on_count());

  if (!doc.write(opt.out, "bench_cluster_consolidation")) return 2;

  // Identity gates: every verdict that came back false left its first
  // divergence; a tier that never ran (a null verdict) left nothing.
  for (const std::string& d : ctx.divergences) std::printf("  FAIL: %s\n", d.c_str());
  bool failed = !ctx.divergences.empty();
  for (const auto& [g, limit] : opt.gates) {
    if (g->smoke_exempt && opt.smoke) continue;
    const double v = doc.number(g->path).value_or(0.0);
    const char* broken = g->bound == Bound::kFloor     ? (v < limit ? "<" : nullptr)
                         : g->bound == Bound::kCeiling ? (v > limit ? ">" : nullptr)
                                                       : (v <= 0.0 ? "<=" : nullptr);
    if (!broken) continue;
    failed = true;
    const std::string by = g->flag ? std::string{" (--"} + g->flag + ")" : "";
    std::printf("  FAIL: %s = %g %s %g%s\n", g->path, v, broken, limit, by.c_str());
  }
  return failed ? 1 : 0;
}
