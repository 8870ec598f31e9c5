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
// Identity: the 8x64 scenario and every optional tier below (trace,
// chaos, control, federation) run through run_variants — slow-stepped,
// fast, and at --threads > 1 the parallel engine — and each verdict is the
// tier's first_divergence (cluster::, or fed:: for the federation). The
// identity gates are always on, --smoke included; a failing one prints the
// first field that differs. Verdicts are tri-state: a `*_identical` JSON
// field is null when its comparison never ran (e.g. `parallel_identical`
// at --threads=1), never a vacuous true.
//
// Throughput: simulated-seconds-per-wall-second of the fast run, with an
// optional CI floor (--require-rate=2000); --threads=N records
// serial-vs-parallel wall as `parallel_speedup`, and
// --require-parallel-speedup=X floors it. Timing and saving gates are
// full-run only: --smoke is exempt, identity is not.
//
// --trace=DIR replays a recorded-demand scenario: the same fleet, every
// tenant a wl::TraceReplay over a trace from DIR
// (scenario::WorkloadPreset::kTrace, assignment seeded by --fleet-seed);
// results land in `trace{...}`.
//
// --fleet=mixed swaps the uniform 8-GB fleet for the heterogeneous
// platform catalog (scenario::FleetPreset::kMixed: xeon / optiplex / elite
// round-robin, hungriest class first). A fourth policy — the manager with
// efficient-first packing turned OFF (naive index-order FFD) — prices the
// heterogeneity-aware cost term; per-class host counts and energy land in
// `hetero{...}`, and --require-hetero-saving floors the gap.
//
// --chaos-seed=N reruns the scenario under a seeded fault schedule
// (fault::draw_fault_plan: host crashes, migration aborts, link
// degradation, planner brownouts), separate from the fault-free policy
// runs; survived-VM and recovery-latency stats land in `chaos{...}`.
//
// --commands=FILE runs the scenario under an external command stream
// (ctl::parse_tasks over a JSON task log; see src/control/task.hpp). On
// top of identity (which includes the result log), a fresh re-record must
// match, and the result log re-injected as a no-op annotation stream must
// re-record itself verbatim. Counts land in `control{...}`.
//
// --scale-hosts=N (with --scale-vms, --scale-horizon) adds the SCALE tier:
// the same recipe at fleet size (CI: 1000 hosts x 10000 VMs), run once on
// the fast path at --threads. Planner time is metered inside the manager
// and lands in `scale{...}`; --require-scale-rate floors the rate and
// --require-scale-planner-ns caps planner ns per manager tick. The
// planner's equivalence to from-scratch FFD is pinned per tick by
// tests/cluster/cluster_incremental_test.cpp.
//
// Every invocation also reports the sparse driver's dispatch counters in
// `engine{...}` (from the scale run when present, else the 8x64 fast run);
// --require-active-fraction=X caps the active fraction on the scale tier.
//
// --federation=K adds K hosting-cluster shards (shard 0 skew-loaded with a
// quarter of the last shard's tenants) under one fed::Federation — a global
// planner balancing per-shard aggregate books with bounded cross-shard WAN
// migrations. With K = 1 the federation must additionally be identical to
// the bench's own single-cluster fast run (it schedules no federation
// events). Census per link kind, the rate and the executor split of the
// --threads budget (federation pool x per-shard engine) land in
// `federation{...}`; --require-federation-rate floors the rate.
//
// Usage: bench_cluster_consolidation [--smoke] [--horizon=SECONDS]
//          [--hosts=8] [--vms=64] [--out=BENCH_cluster.json]
//          [--require-rate=RATE] [--threads=N]
//          [--require-parallel-speedup=X]
//          [--fleet=uniform|mixed] [--fleet-seed=N] [--require-hetero-saving]
//          [--trace=DIR] [--chaos-seed=N] [--commands=FILE]
//          [--scale-hosts=N] [--scale-vms=N] [--scale-horizon=SECONDS]
//          [--require-scale-rate=RATE]
//          [--require-scale-planner-ns=NS] [--require-active-fraction=X]
//          [--federation=K] [--require-federation-rate=RATE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
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
#include "workload/trace_replay.hpp"

namespace {

using pas::common::seconds;
using pas::common::SimTime;
using pas::scenario::FederationScenarioConfig;
using pas::scenario::HostingClusterConfig;

// Minimal JSON string escaping for user-supplied values (the --trace
// path): quotes, backslashes and control characters.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

template <class Sim>
double run_timed(Sim& sim, SimTime horizon) {
  const auto start = std::chrono::steady_clock::now();
  sim.run_until(horizon);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

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

// Tri-state identity verdict for JSON: a comparison that never ran is
// null, never a vacuous true.
const char* json_verdict(const std::optional<bool>& v) {
  return v.has_value() ? (*v ? "true" : "false") : "null";
}

}  // namespace

int main(int argc, char** argv) {
  const pas::common::Flags flags{argc, argv};
  const long horizon_s = flags.get_int("horizon", flags.has("smoke") ? 400 : 4000);
  if (horizon_s < 64) {
    std::fprintf(stderr, "bench_cluster_consolidation: --horizon must be >= 64\n");
    return 2;
  }
  const std::size_t hosts = flags.get_count("hosts", 8);
  const std::size_t vms = flags.get_count("vms", 64);
  const std::string out = flags.get_or("out", "BENCH_cluster.json");
  const std::string fleet = flags.get_or("fleet", "uniform");
  if (fleet != "uniform" && fleet != "mixed") {
    std::fprintf(stderr, "bench_cluster_consolidation: --fleet must be uniform or mixed\n");
    return 2;
  }
  const bool mixed = fleet == "mixed";
  const SimTime horizon = seconds(horizon_s);

  HostingClusterConfig base;
  base.hosts = hosts;
  base.vms = vms;
  base.horizon = horizon;
  if (mixed) {
    base.fleet = pas::scenario::FleetPreset::kMixed;
    base.fleet_seed = static_cast<std::uint64_t>(flags.get_int("fleet-seed", 0));
  }

  std::printf("=== cluster consolidation: %zu hosts x %zu VMs, %ld simulated s, %s fleet ===\n",
              hosts, vms, horizon_s, fleet.c_str());

  // --threads follows ExecutionPolicy semantics: 1 (the default) = serial
  // only, no parallel measurement; 0 = hardware concurrency; N > 1 = N.
  std::size_t threads = flags.get_count("threads", 1);
  if (threads == 0) threads = pas::common::ThreadPool::hardware_threads();

  // --- throughput + exactness: fast path vs reference loop (and the
  // --- parallel engine at --threads > 1), manager on ---
  auto main_runs = run_variants(base, horizon, threads);
  const auto& fast = main_runs.fast;
  const double slow_wall = main_runs.slow_wall;
  const double slow_rate = static_cast<double>(horizon_s) / slow_wall;
  std::printf("  slow-stepped loop : %8.2f wall ms   %10.0f sim-s/wall-s\n",
              slow_wall * 1e3, slow_rate);
  const double fast_wall = main_runs.fast_wall;
  const double fast_rate = static_cast<double>(horizon_s) / fast_wall;
  std::printf("  event-driven loop : %8.2f wall ms   %10.0f sim-s/wall-s\n",
              fast_wall * 1e3, fast_rate);

  // First divergences of failed identity verdicts, printed with the gates.
  std::vector<std::string> divergences;
  const auto verdict = [&divergences](const char* tier, const auto& runs) {
    if (!runs.identical()) divergences.push_back(std::string{tier} + " " + runs.divergence());
    return runs.identical();
  };
  verdict("hosting cluster", main_runs);
  const bool identical = !main_runs.slow_vs_fast;
  const double speedup = slow_wall / fast_wall;
  std::printf("  speedup: %.2fx   traces identical: %s\n", speedup,
              identical ? "yes" : "NO — BUG");

  // Sparse-driver telemetry comes from the most representative fleet this
  // invocation runs: the scale tier when present (consolidation parks most
  // of a big fleet, which is what the active-fraction gate is about),
  // otherwise the 8x64 fast run. Overwritten in the scale block below.
  pas::cluster::EngineStats engine_stats = fast->engine_stats();
  std::size_t engine_grain = fast->config().execution.pool_grain;

  // No parallel run, no verdict: with --threads=1 this stays nullopt and
  // the JSON says null.
  const double par_wall = main_runs.par_wall;
  double par_rate = 0.0;
  double parallel_speedup = 0.0;
  std::optional<bool> parallel_identical;
  if (threads > 1) {
    par_rate = static_cast<double>(horizon_s) / par_wall;
    parallel_speedup = fast_wall / par_wall;
    parallel_identical = !main_runs.par_vs_serial;
    std::printf("  parallel (%zu thr)  : %8.2f wall ms   %10.0f sim-s/wall-s   "
                "%.2fx vs serial   identical: %s\n",
                threads, par_wall * 1e3, par_rate, parallel_speedup,
                *parallel_identical ? "yes" : "NO — BUG");
  }

  // --- the dynamic §2.3 figure ---
  // (c) consolidation + PAS is the fast run above; (a) and (b) rerun the
  // same tenants under the other policies.
  auto cfg_spread = base;
  cfg_spread.install_manager = false;
  auto spread = pas::scenario::build_hosting_cluster(cfg_spread);
  spread->run_until(horizon);

  auto cfg_consol = base;
  cfg_consol.manager.dvfs = pas::cluster::ClusterManagerConfig::Dvfs::kPinnedMax;
  auto consol = pas::scenario::build_hosting_cluster(cfg_consol);
  consol->run_until(horizon);

  const double watts_spread = spread->average_watts();
  const double watts_consol = consol->average_watts();
  const double watts_pas = fast->average_watts();
  const double consolidation_saving = watts_spread - watts_consol;
  const double dvfs_saving = watts_consol - watts_pas;

  std::printf("\n  policy                      mean W   hosts on   migrations\n");
  std::printf("  static spread             %8.1f   %8zu   %10zu\n", watts_spread,
              spread->powered_on_count(), spread->migrations().size());
  std::printf("  consolidation only        %8.1f   %8zu   %10zu\n", watts_consol,
              consol->powered_on_count(), consol->migrations().size());
  std::printf("  consolidation + PAS DVFS  %8.1f   %8zu   %10zu\n", watts_pas,
              fast->powered_on_count(), fast->migrations().size());
  std::printf("  consolidation saves %.1f W; DVFS reclaims another %.1f W on top (§2.3)\n",
              consolidation_saving, dvfs_saving);

  // --- heterogeneity: per-class split + the efficient-first A/B ---
  // The naive baseline reruns the PAS policy with the planner's
  // heterogeneity-aware host ordering disabled (index-order FFD): the watt
  // gap prices the cost term on the mixed fleet.
  double watts_naive_order = 0.0;
  double hetero_saving = 0.0;
  std::string hetero_json;
  if (mixed) {
    auto cfg_naive = base;
    cfg_naive.manager.efficient_first = false;
    auto naive = pas::scenario::build_hosting_cluster(cfg_naive);
    naive->run_until(horizon);
    watts_naive_order = naive->average_watts();
    hetero_saving = watts_naive_order - watts_pas;

    struct ClassStat {
      std::size_t hosts = 0;
      double energy_joules = 0.0;
    };
    std::map<std::string, ClassStat> classes;  // ordered -> stable JSON
    for (pas::cluster::HostId h = 0; h < fast->host_count(); ++h) {
      ClassStat& s = classes[fast->host_class(h).name];
      ++s.hosts;
      s.energy_joules += fast->host_energy_joules(h);
    }

    std::printf("\n  heterogeneous fleet (efficient-first vs naive index order):\n");
    std::printf("  naive-order manager       %8.1f W   efficient-first saves %.1f W\n",
                watts_naive_order, hetero_saving);
    hetero_json = "  \"hetero\": {\n    \"classes\": {";
    bool first = true;
    char buf[256];
    for (const auto& [name, s] : classes) {
      std::printf("    class %-16s %zu host(s)   %.0f J\n", name.c_str(), s.hosts,
                  s.energy_joules);
      std::snprintf(buf, sizeof(buf), "%s\n      \"%s\": {\"hosts\": %zu, \"energy_joules\": %.3f}",
                    first ? "" : ",", name.c_str(), s.hosts, s.energy_joules);
      hetero_json += buf;
      first = false;
    }
    std::snprintf(buf, sizeof(buf),
                  "\n    },\n    \"watts_naive_order\": %.3f,\n"
                  "    \"efficient_first_saving_watts\": %.3f\n  },\n",
                  watts_naive_order, hetero_saving);
    hetero_json += buf;
  }

  // --- trace replay: recorded-demand tenants on the same fleet ---
  const std::string trace_dir = flags.get_or("trace", "");
  std::optional<bool> replay_identical;  // nullopt until the replay A/B runs
  std::string trace_json;
  if (!trace_dir.empty()) {
    const std::vector<pas::wl::Trace> traces = pas::wl::Trace::load_dir(trace_dir);
    auto cfg_trace = base;
    cfg_trace.workload = pas::scenario::WorkloadPreset::kTrace;
    cfg_trace.traces = traces;

    const auto tr = run_variants(cfg_trace, horizon, threads);
    const auto& tr_fast = tr.fast;
    const double tr_rate = static_cast<double>(horizon_s) / tr.fast_wall;
    replay_identical = verdict("trace replay", tr);

    std::printf("\n  trace replay (%zu trace(s) from %s):\n", traces.size(),
                trace_dir.c_str());
    std::printf("  replay fast path  : %8.2f wall ms   %10.0f sim-s/wall-s   "
                "%.2fx vs slow   identical: %s\n",
                tr.fast_wall * 1e3, tr_rate, tr.slow_wall / tr.fast_wall,
                *replay_identical ? "yes" : "NO — BUG");
    std::printf("  replay fleet      : %8.1f mean W   %zu migrations\n",
                tr_fast->average_watts(), tr_fast->migrations().size());

    // The dir is user-supplied and unbounded: compose around it with
    // std::string so a long path cannot truncate the JSON.
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    \"files\": %zu,\n"
                  "    \"replay_identical\": %s,\n"
                  "    \"sim_per_wall\": %.1f,\n"
                  "    \"speedup\": %.3f,\n"
                  "    \"watts\": %.3f,\n"
                  "    \"migrations\": %zu\n  },\n",
                  traces.size(), json_verdict(replay_identical), tr_rate,
                  tr.slow_wall / tr.fast_wall, tr_fast->average_watts(),
                  tr_fast->migrations().size());
    trace_json = "  \"trace\": {\n    \"dir\": \"" + json_escape(trace_dir) + "\",\n" + buf;
  }

  // --- chaos: the same scenario under a seeded fault schedule ---
  // Separate runs, so the policy numbers above stay fault-free.
  const auto chaos_seed = static_cast<std::uint64_t>(flags.get_int("chaos-seed", 0));
  std::optional<bool> chaos_identical;  // nullopt until the chaos A/B runs
  std::string chaos_json;
  if (chaos_seed != 0) {
    auto cfg_chaos = base;
    cfg_chaos.chaos_seed = chaos_seed;

    const auto ch = run_variants(cfg_chaos, horizon, threads);
    const auto& ch_fast = ch.fast;
    chaos_identical = verdict("chaos", ch);

    const pas::fault::FaultInjector& inj = *ch_fast->faults();
    std::size_t brownout_skipped = 0;
    std::size_t restarts = 0;
    std::size_t abandoned = 0;
    if (auto* mgr = ch_fast->manager()) {
      brownout_skipped = mgr->ticks_skipped();
      restarts = mgr->restarts_issued();
      abandoned = mgr->restarts_abandoned();
    }
    // Recovery-latency SLO stats (orphan → running again): p50/mean/max
    // over the run's VmRecovery records.
    const pas::cluster::RecoveryStats rec =
        pas::cluster::summarize_recoveries(ch_fast->recoveries());

    std::printf("\n  chaos (seed %llu): %zu fault(s) drawn — %zu crash(es), "
                "%zu abort(s), %zu degrade(s), %zu brownout(s)\n",
                static_cast<unsigned long long>(chaos_seed), inj.plan().events.size(),
                inj.plan().count(pas::fault::FaultKind::kHostCrash),
                inj.plan().count(pas::fault::FaultKind::kMigrationAbort),
                inj.plan().count(pas::fault::FaultKind::kLinkDegrade),
                inj.plan().count(pas::fault::FaultKind::kBrownout));
    std::printf("  fired: %zu crash(es), %zu abort(s), %zu degrade(s); "
                "%zu tick(s) browned out\n",
                inj.crashes_fired(), inj.aborts_fired(), inj.link_degrades_fired(),
                brownout_skipped);
    std::printf("  VMs: %zu/%zu survived, %zu lost; %zu recovery restart(s) "
                "(p50 %.1f s, mean %.1f s, max %.1f s), %zu abandoned\n",
                ch_fast->running_vm_count(), static_cast<std::size_t>(ch_fast->vm_count()),
                ch_fast->lost_vm_count(), rec.count, rec.p50.sec(), rec.mean_s,
                rec.max.sec(), abandoned);
    std::printf("  identity under faults (fast/slow%s): %s\n",
                threads > 1 ? "/parallel" : "",
                *chaos_identical ? "yes" : "NO — BUG");

    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "  \"chaos\": {\n"
                  "    \"seed\": %llu,\n"
                  "    \"faults_drawn\": %zu,\n"
                  "    \"crashes\": %zu,\n"
                  "    \"migration_aborts\": %zu,\n"
                  "    \"link_degrades\": %zu,\n"
                  "    \"brownout_ticks_skipped\": %zu,\n"
                  "    \"vms\": %zu,\n"
                  "    \"vms_survived\": %zu,\n"
                  "    \"vms_lost\": %zu,\n"
                  "    \"recovery_restarts\": %zu,\n"
                  "    \"recovery_abandoned\": %zu,\n"
                  "    \"recovery_latency_p50_s\": %.6f,\n"
                  "    \"recovery_latency_mean_s\": %.3f,\n"
                  "    \"recovery_latency_max_s\": %.6f,\n"
                  "    \"restarts_issued\": %zu,\n"
                  "    \"chaos_identical\": %s\n  },\n",
                  static_cast<unsigned long long>(chaos_seed), inj.plan().events.size(),
                  inj.crashes_fired(), inj.aborts_fired(), inj.link_degrades_fired(),
                  brownout_skipped, static_cast<std::size_t>(ch_fast->vm_count()),
                  ch_fast->running_vm_count(), ch_fast->lost_vm_count(), rec.count,
                  abandoned, rec.p50.sec(), rec.mean_s, rec.max.sec(), restarts,
                  json_verdict(chaos_identical));
    chaos_json = buf;
  }

  // --- control plane: an external command stream over the same fleet ---
  // `control.replay_identical` combines the engine variants, the re-record
  // and the annotation round trip (see the file header).
  const std::string commands_file = flags.get_or("commands", "");
  std::optional<bool> control_replay_identical;  // nullopt until the A/B runs
  std::string control_json;
  if (!commands_file.empty()) {
    std::ifstream cmd_in(commands_file, std::ios::binary);
    if (!cmd_in) {
      std::fprintf(stderr, "bench_cluster_consolidation: cannot open %s\n",
                   commands_file.c_str());
      return 2;
    }
    std::ostringstream cmd_text;
    cmd_text << cmd_in.rdbuf();
    const std::vector<pas::ctl::Task> tasks =
        pas::ctl::parse_tasks(cmd_text.str(), commands_file, {hosts, vms});

    auto cfg_ctl = base;
    cfg_ctl.commands = tasks;

    const auto ct = run_variants(cfg_ctl, horizon, threads);
    const auto& ct_fast = ct.fast;
    control_replay_identical = verdict("control", ct);

    // Re-record: the same file through a fresh cluster must reproduce the
    // run, result log included.
    {
      auto ct_re = pas::scenario::build_hosting_cluster(cfg_ctl);
      ct_re->run_until(horizon);
      if (auto d = first_divergence(*ct_fast, *ct_re)) {
        control_replay_identical = false;
        divergences.push_back("control re-record: " + *d);
      }
    }

    // Close the loop: the result log re-injected as a no-op annotation
    // stream must re-record itself verbatim (annotation streams are a
    // fixed point of record→re-inject — ctl::results_to_annotations).
    {
      const std::string notes =
          pas::ctl::results_to_annotations(ct_fast->control()->results());
      auto cfg_notes = base;
      cfg_notes.commands = pas::ctl::parse_tasks(notes, "<annotations>", {hosts, vms});
      auto ct_notes = pas::scenario::build_hosting_cluster(cfg_notes);
      ct_notes->run_until(horizon);
      if (pas::ctl::results_to_annotations(ct_notes->control()->results()) != notes) {
        control_replay_identical = false;
        divergences.push_back("control annotation round trip: re-recorded stream differs");
      }
    }

    const pas::ctl::ControlPlane& plane = *ct_fast->control();
    std::printf("\n  control plane (%zu task(s) from %s):\n", tasks.size(),
                commands_file.c_str());
    std::printf("  fired %zu: %zu ok, %zu rejected, %zu superseded   "
                "replay identical: %s\n",
                plane.results().size(), plane.accepted(), plane.rejected(),
                plane.superseded(),
                *control_replay_identical ? "yes" : "NO — BUG");

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    \"tasks\": %zu,\n"
                  "    \"fired\": %zu,\n"
                  "    \"accepted\": %zu,\n"
                  "    \"rejected\": %zu,\n"
                  "    \"superseded\": %zu,\n"
                  "    \"replay_identical\": %s\n  },\n",
                  tasks.size(), plane.results().size(), plane.accepted(),
                  plane.rejected(), plane.superseded(),
                  json_verdict(control_replay_identical));
    control_json =
        "  \"control\": {\n    \"file\": \"" + json_escape(commands_file) + "\",\n" + buf;
  }

  // --- scale: the delta-driven planner at fleet size ---
  // Same scenario recipe at --scale-hosts x --scale-vms, run once. The
  // planner-time and rate floors/ceilings only bind on full runs: a smoke
  // horizon barely plans at all.
  const std::size_t scale_hosts = flags.get_count("scale-hosts", 0);
  double scale_rate = 0.0;
  double ns_per_tick = 0.0;
  std::string scale_json;
  if (scale_hosts > 0) {
    const std::size_t scale_vms = flags.get_count("scale-vms", scale_hosts * 10);
    const long scale_horizon_s =
        flags.get_int("scale-horizon", flags.has("smoke") ? 120 : 600);
    const SimTime scale_horizon = seconds(scale_horizon_s);

    auto cfg_scale = base;
    cfg_scale.hosts = scale_hosts;
    cfg_scale.vms = scale_vms;
    cfg_scale.horizon = scale_horizon;
    cfg_scale.fast_path = true;
    // The scale tier exercises the full engine: sparse partition on the
    // coordinating thread, pooled dispatch of the active remainder at
    // --threads.
    cfg_scale.threads = threads;

    std::printf("\n  scale tier: %zu hosts x %zu VMs, %ld simulated s\n",
                scale_hosts, scale_vms, scale_horizon_s);

    auto sc = pas::scenario::build_hosting_cluster(cfg_scale);
    const double sc_wall = run_timed(*sc, scale_horizon);
    scale_rate = static_cast<double>(scale_horizon_s) / sc_wall;
    engine_stats = sc->engine_stats();
    engine_grain = sc->config().execution.pool_grain;

    const pas::cluster::ClusterManager& mgr = *sc->manager();
    const pas::consolidation::HostBookStats& bk = mgr.book_stats();
    // Amortized planner cost per manager tick: skipped ticks count — the
    // early-out is exactly what buys the amortization.
    const std::size_t ticks = mgr.planning_ticks() + mgr.plans_skipped();
    ns_per_tick = ticks > 0 ? static_cast<double>(mgr.planner_ns()) /
                                  static_cast<double>(ticks)
                            : 0.0;

    std::printf("  run               : %8.2f wall s   planner %8.1f ms over %zu tick(s), "
                "%zu skipped\n",
                sc_wall, static_cast<double>(mgr.planner_ns()) * 1e-6,
                mgr.planning_ticks(), mgr.plans_skipped());
    std::printf("  planner %.0f ns/tick amortized   sim rate %.0f sim-s/wall-s\n",
                ns_per_tick, scale_rate);
    std::printf("  book: %zu plan(s) = %zu cached + %zu delta + %zu rebuild; "
                "%zu rank(s) walked, %zu scan(s), %zu mark(s)+%zu event(s) coalesced\n",
                bk.plans, bk.cached_plans, bk.delta_plans, bk.full_rebuilds,
                bk.vms_walked, bk.vms_scanned, bk.coalesced_marks,
                mgr.events_coalesced());

    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "  \"scale\": {\n"
                  "    \"hosts\": %zu,\n"
                  "    \"vms\": %zu,\n"
                  "    \"simulated_seconds\": %ld,\n"
                  "    \"wall_seconds\": %.6f,\n"
                  "    \"sim_per_wall\": %.1f,\n"
                  "    \"planner_ns\": %llu,\n"
                  "    \"planning_ticks\": %zu,\n"
                  "    \"plans_skipped\": %zu,\n"
                  "    \"planner_ns_per_tick\": %.1f,\n"
                  "    \"events_coalesced\": %zu,\n"
                  "    \"book\": {\"plans\": %zu, \"cached\": %zu, \"delta\": %zu, "
                  "\"full_rebuilds\": %zu,\n"
                  "      \"vms_walked\": %zu, \"vms_scanned\": %zu, "
                  "\"coalesced_marks\": %zu}\n  },\n",
                  scale_hosts, scale_vms, scale_horizon_s, sc_wall, scale_rate,
                  static_cast<unsigned long long>(mgr.planner_ns()), mgr.planning_ticks(),
                  mgr.plans_skipped(), ns_per_tick, mgr.events_coalesced(), bk.plans,
                  bk.cached_plans, bk.delta_plans, bk.full_rebuilds, bk.vms_walked,
                  bk.vms_scanned, bk.coalesced_marks);
    scale_json = buf;
  }

  // --- federation: K shards under the global planner, per-link WAN moves ---
  const std::size_t fed_shards = flags.get_count("federation", 0);
  std::optional<bool> federation_identical;  // nullopt until the tier runs
  double fed_rate = 0.0;
  std::string federation_json;
  if (fed_shards > 0) {
    FederationScenarioConfig fc;
    fc.base = base;
    fc.shards = fed_shards;

    const auto fd = run_variants(fc, horizon, threads);
    const auto& fd_fast = fd.fast;
    fed_rate = static_cast<double>(horizon_s) / fd.fast_wall;
    federation_identical = verdict("federation", fd);
    // K = 1 degradation: byte-exact to the single-cluster fast run above
    // (same config, same seed, no skew, no federation events).
    if (fed_shards == 1) {
      if (auto d = first_divergence(*fast, fd_fast->shard(0))) {
        federation_identical = false;
        divergences.push_back("federation K=1 vs bare cluster: " + *d);
      }
    }

    // Cross-shard census by link kind; the intra-rack tier is the shards'
    // own internal migrations.
    std::size_t wan_moves = 0;
    std::size_t cross_rack_moves = 0;
    for (const pas::fed::FedMigrationRecord& r : fd_fast->cross_shard_records()) {
      if (r.link == pas::fed::LinkKind::kWan)
        ++wan_moves;
      else
        ++cross_rack_moves;
    }
    // The executor split build_federation made of the --threads budget
    // (the serial run's 1/1 when --threads is 1).
    const pas::fed::Federation& split = fd.par ? *fd.par : *fd_fast;
    const std::size_t fed_executors = split.execution_threads();
    const std::size_t shard_executors = split.shard(0).execution_threads();
    std::size_t intra_moves = 0;
    std::size_t fed_vms = 0;
    for (pas::fed::ShardId s = 0; s < fd_fast->shard_count(); ++s) {
      intra_moves += fd_fast->shard(s).migrations().size();
      fed_vms += fd_fast->shard(s).vm_count();
    }

    std::printf("\n  federation tier: %zu shard(s) x %zu hosts, %zu VMs total\n",
                fed_shards, hosts, fed_vms);
    std::printf("  federated run     : %8.2f wall ms   %10.0f sim-s/wall-s   "
                "%.2fx vs slow\n",
                fd.fast_wall * 1e3, fed_rate, fd.slow_wall / fd.fast_wall);
    std::printf("  executors: %zu advancing shards x %zu per shard engine\n", fed_executors,
                shard_executors);
    std::printf("  migrations: %zu intra-rack (shard-internal), %zu cross-rack, "
                "%zu wan   planner ticks %zu   identical: %s\n",
                intra_moves, cross_rack_moves, wan_moves, fd_fast->planner_ticks(),
                *federation_identical ? "yes" : "NO — BUG");

    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "  \"federation\": {\n"
                  "    \"shards\": %zu,\n"
                  "    \"vms\": %zu,\n"
                  "    \"planner_ticks\": %zu,\n"
                  "    \"cross_shard_migrations\": %zu,\n"
                  "    \"links\": {\"intra_rack\": %zu, \"cross_rack\": %zu, "
                  "\"wan\": %zu},\n"
                  "    \"executors\": %zu,\n"
                  "    \"shard_executors\": %zu,\n"
                  "    \"wall_seconds\": %.6f,\n"
                  "    \"sim_per_wall\": %.1f,\n"
                  "    \"federation_identical\": %s\n  },\n",
                  fed_shards, fed_vms, fd_fast->planner_ticks(),
                  fd_fast->cross_shard_records().size(), intra_moves, cross_rack_moves,
                  wan_moves, fed_executors, shard_executors, fd.fast_wall, fed_rate,
                  json_verdict(federation_identical));
    federation_json = buf;
  }

  // --- engine telemetry: the sparse driver's dispatch counters ---
  // active_fraction = dispatches / (dispatches + bulk_skips): how much of
  // the fleet the engine really had to step. On a consolidated scale fleet
  // it should sit well below 1 — --require-active-fraction turns that into
  // a CI ceiling (scale tier only; --smoke exempt, a short horizon barely
  // consolidates).
  std::string engine_json;
  {
    std::printf("\n  engine: %llu segment(s), %llu dispatch(es), %llu bulk skip(s)   "
                "active fraction %.3f   pool grain %zu\n",
                static_cast<unsigned long long>(engine_stats.segments),
                static_cast<unsigned long long>(engine_stats.dispatches),
                static_cast<unsigned long long>(engine_stats.bulk_skips),
                engine_stats.active_fraction(), engine_grain);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"engine\": {\n"
                  "    \"segments\": %llu,\n"
                  "    \"dispatches\": %llu,\n"
                  "    \"bulk_skips\": %llu,\n"
                  "    \"active_fraction\": %.6f,\n"
                  "    \"pool_grain\": %zu\n  },\n",
                  static_cast<unsigned long long>(engine_stats.segments),
                  static_cast<unsigned long long>(engine_stats.dispatches),
                  static_cast<unsigned long long>(engine_stats.bulk_skips),
                  engine_stats.active_fraction(), engine_grain);
    engine_json = buf;
  }

  // The parallel A/B only exists at --threads > 1: without it the whole
  // block is null — numbers from a run that never happened are as vacuous
  // as a defaulted identity verdict.
  std::string parallel_json;
  if (threads > 1) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"parallel\": {\"threads\": %zu, \"wall_seconds\": %.6f, "
                  "\"sim_per_wall\": %.1f},\n"
                  "  \"parallel_speedup\": %.3f,\n"
                  "  \"parallel_identical\": %s,\n",
                  threads, par_wall, par_rate, parallel_speedup,
                  json_verdict(parallel_identical));
    parallel_json = buf;
  } else {
    parallel_json =
        "  \"parallel\": null,\n"
        "  \"parallel_speedup\": null,\n"
        "  \"parallel_identical\": null,\n";
  }

  {
    std::ofstream js{out};
    if (!js) {
      std::fprintf(stderr, "bench_cluster_consolidation: cannot write %s\n", out.c_str());
      return 2;
    }
    char buf[4096];
    std::snprintf(buf, sizeof(buf),
                  "{\n"
                  "  \"bench\": \"cluster_consolidation\",\n"
                  "  \"scenario\": \"hosting_cluster_%zux%zu\",\n"
                  "  \"fleet\": \"%s\",\n"
                  "  \"hosts\": %zu,\n"
                  "  \"vms\": %zu,\n"
                  "  \"simulated_seconds\": %ld,\n"
                  "  \"slow\": {\"wall_seconds\": %.6f, \"sim_per_wall\": %.1f},\n"
                  "  \"fast\": {\"wall_seconds\": %.6f, \"sim_per_wall\": %.1f},\n"
                  "  \"speedup\": %.3f,\n"
                  "  \"traces_identical\": %s,\n",
                  hosts, vms, fleet.c_str(), hosts, vms, horizon_s, slow_wall, slow_rate,
                  fast_wall, fast_rate, speedup, identical ? "true" : "false");
    js << buf;
    js << parallel_json;
    std::snprintf(buf, sizeof(buf),
                  "  \"watts_static_spread\": %.3f,\n"
                  "  \"watts_consolidation_only\": %.3f,\n"
                  "  \"watts_consolidation_pas\": %.3f,\n"
                  "  \"consolidation_saving_watts\": %.3f,\n"
                  "  \"dvfs_saving_watts\": %.3f,\n",
                  watts_spread, watts_consol, watts_pas, consolidation_saving,
                  dvfs_saving);
    js << buf;
    // The optional blocks embed unbounded strings (class names, the
    // --trace path): streamed, not snprintf'd, so they cannot truncate.
    js << hetero_json << trace_json << chaos_json << control_json << scale_json
       << federation_json << engine_json;
    std::snprintf(buf, sizeof(buf),
                  "  \"migrations\": %zu,\n"
                  "  \"hosts_on_final\": %zu\n"
                  "}\n",
                  fast->migrations().size(), fast->powered_on_count());
    js << buf;
    std::printf("  written to %s\n", out.c_str());
  }

  // Identity gates: every verdict that came back false left its first
  // divergence here; a tier that never ran (a null verdict) left nothing —
  // failing it would be as wrong as the old vacuous pass.
  for (const std::string& d : divergences) std::printf("  FAIL: %s\n", d.c_str());
  if (!divergences.empty()) return 1;
  const double fed_floor = flags.get_double("require-federation-rate", 0.0);
  if (fed_floor > 0.0 && !flags.has("smoke")) {
    if (fed_shards == 0) {
      std::printf("  FAIL: --require-federation-rate needs --federation > 0\n");
      return 1;
    }
    if (fed_rate < fed_floor) {
      std::printf("  FAIL: federated rate %.0f sim-s/wall-s below the %.0f floor\n",
                  fed_rate, fed_floor);
      return 1;
    }
  }
  const double scale_floor = flags.get_double("require-scale-rate", 0.0);
  if (scale_floor > 0.0 && !flags.has("smoke")) {
    if (scale_hosts == 0) {
      std::printf("  FAIL: --require-scale-rate needs --scale-hosts > 0\n");
      return 1;
    }
    if (scale_rate < scale_floor) {
      std::printf("  FAIL: scale rate %.0f sim-s/wall-s below the %.0f floor\n",
                  scale_rate, scale_floor);
      return 1;
    }
  }
  const double ns_ceiling = flags.get_double("require-scale-planner-ns", 0.0);
  if (ns_ceiling > 0.0 && !flags.has("smoke")) {
    if (scale_hosts == 0) {
      std::printf("  FAIL: --require-scale-planner-ns needs --scale-hosts > 0\n");
      return 1;
    }
    if (ns_per_tick > ns_ceiling) {
      std::printf("  FAIL: planner %.0f ns/tick above the %.0f ceiling\n",
                  ns_per_tick, ns_ceiling);
      return 1;
    }
  }
  const double af_ceiling = flags.get_double("require-active-fraction", 0.0);
  if (af_ceiling > 0.0 && !flags.has("smoke")) {
    if (scale_hosts == 0) {
      std::printf("  FAIL: --require-active-fraction needs --scale-hosts > 0\n");
      return 1;
    }
    if (engine_stats.active_fraction() > af_ceiling) {
      std::printf("  FAIL: engine active fraction %.3f above the %.3f ceiling\n",
                  engine_stats.active_fraction(), af_ceiling);
      return 1;
    }
  }
  const double par_floor = flags.get_double("require-parallel-speedup", 0.0);
  if (par_floor > 0.0 && !flags.has("smoke")) {
    if (threads <= 1) {
      std::printf("  FAIL: --require-parallel-speedup needs --threads > 1\n");
      return 1;
    }
    if (parallel_speedup < par_floor) {
      std::printf("  FAIL: parallel speedup %.2fx below the %.2fx floor\n",
                  parallel_speedup, par_floor);
      return 1;
    }
  }
  if (dvfs_saving <= 0.0) {
    std::printf("  FAIL: DVFS reclaimed nothing on top of consolidation\n");
    return 1;
  }
  if (flags.has("require-hetero-saving") && !flags.has("smoke")) {
    if (!mixed) {
      std::printf("  FAIL: --require-hetero-saving needs --fleet=mixed\n");
      return 1;
    }
    if (hetero_saving <= 0.0) {
      std::printf("  FAIL: efficient-first packing saved nothing (%.2f W) vs naive order\n",
                  hetero_saving);
      return 1;
    }
  }
  const double floor = flags.get_double("require-rate", 0.0);
  if (floor > 0.0 && fast_rate < floor) {
    std::printf("  FAIL: fast rate %.0f sim-s/wall-s below the %.0f floor\n", fast_rate,
                floor);
    return 1;
  }
  return 0;
}
