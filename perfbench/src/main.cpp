// perfbench: runs one workload for a wall-clock budget and prints its
// metrics, then one JSON line as the last line of standard output.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--traces-dir DIR] [--pins FILE]
//             [--spans-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced runs with traced ones (a span around set-up and around
// every run_until step, counters read at each step boundary), adds the
// standalone layer probes, and reports the per-layer metrics. Every run of
// either mode is checked: its digest must equal the digest of an untimed
// reference run at another thread count, and, for a pinned seed, the
// digest pinned in --pins. A run that throws or mismatches counts as failed.
// Exit code: 0 when every run is correct, 1 when one is not, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Measured runs per mode at least, however long they take, so every
/// median has five samples.
constexpr std::size_t kMinRuns = 5;
/// Set-ups measured per invocation at least, so setup_s is a median over
/// more samples than a long workload has runs.
constexpr std::size_t kMinSetups = 20;
/// Standalone set-ups timed after each measured run (kMinRuns of them plus
/// the runs' own set-ups reach kMinSetups).
constexpr std::size_t kSetupsPerRun = 3;
/// Repetitions of each standalone probe (the median is reported).
constexpr int kProbeRepeats = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 17;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string traces_dir = "examples/traces";
  std::string pins;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--traces-dir DIR] [--pins FILE] "
               "[--spans-out FILE]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size())
    usage(flag + " wants a non-negative integer, got '" + text + "'");
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") usage("--size wants full or tiny");
      o.size = value == "full" ? Size::kFull : Size::kTiny;
    } else if (flag == "--traces-dir") {
      o.traces_dir = value;
    } else if (flag == "--pins") {
      o.pins = value;
    } else if (flag == "--spans-out") {
      o.spans_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!have_seconds || o.seconds < 1) usage("--seconds must be at least 1");
  return o;
}

/// Pinned digests: lines of "<workload> <seed> <16 hex digits>", '#' starts
/// a comment.
std::optional<std::uint64_t> pinned_digest(const Options& o) {
  if (o.pins.empty() || o.size != Size::kFull) return std::nullopt;
  std::ifstream in(o.pins);
  if (!in) throw std::runtime_error("cannot read pinned digests " + o.pins);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hex;
    std::uint64_t seed = 0;
    if (!(fields >> name >> seed >> hex))
      throw std::runtime_error("malformed pin line: " + line);
    if (name == o.workload && seed == o.seed) return std::stoull(hex, nullptr, 16);
  }
  return std::nullopt;
}

// --- spans -----------------------------------------------------------------

using Attrs = std::vector<std::pair<std::string, double>>;

struct Span {
  std::string name;
  int run = 0;
  int parent = -1;
  double start_s = 0.0;
  double end_s = -1.0;  // -1 while open (or when the call threw)
  Attrs attrs;
};

/// In-memory span recorder; written out once, after the measured runs.
class Tracer {
 public:
  int begin(std::string name, int parent, int run) {
    spans_.push_back({std::move(name), run, parent, seconds_since(origin_), -1.0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int span, Attrs attrs = {}) {
    spans_[static_cast<std::size_t>(span)].end_s = seconds_since(origin_);
    spans_[static_cast<std::size_t>(span)].attrs = std::move(attrs);
  }
  [[nodiscard]] double duration_s(int span) const {
    const Span& s = spans_[static_cast<std::size_t>(span)];
    return s.end_s - s.start_s;
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    char buf[64];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"run\": " << s.run << ", \"parent\": " << s.parent
          << ", \"name\": \"" << s.name << "\"";
      std::snprintf(buf, sizeof(buf), ", \"start_s\": %.9f, \"end_s\": %.9f", s.start_s,
                    s.end_s);
      out << buf << ", \"attrs\": {";
      for (std::size_t a = 0; a < s.attrs.size(); ++a) {
        std::snprintf(buf, sizeof(buf), "%.17g", s.attrs[a].second);
        out << (a ? ", " : "") << '"' << s.attrs[a].first << "\": " << buf;
      }
      out << "}}\n";
    }
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// --- one run -----------------------------------------------------------------

struct Run {
  int id = 0;
  bool warmup = false;
  bool traced = false;
  std::string error;  // empty when the run completed
  std::uint64_t digest = 0;
  double watts = 0.0;
  double sla_pct = 0.0;
  SetupTimes setup;
  double setup_s = 0.0;
  double run_s = 0.0;  // Σ wall of the run_until steps
  std::vector<double> step_ms;  // wall of each run_until step
  // Traced runs only.
  std::vector<double> step_self_ms;
  std::uint64_t planner_ns = 0;
  std::uint64_t dispatches = 0;
  double max_shard_planner_ms = 0.0;
  double rebuild_ms = 0.0;
  std::vector<Metric> counts;
};

Run run_once(const WorkloadSpec& spec, const Options& o, std::size_t threads, int id,
             Tracer* tracer, bool probe_rebuild) {
  Run r;
  r.id = id;
  r.traced = tracer != nullptr;
  try {
    const int root = tracer ? tracer->begin("run", -1, id) : -1;
    const int setup = tracer ? tracer->begin("setup", root, id) : -1;
    const auto setup_start = Clock::now();
    Fleet fleet(spec, o.seed, threads, o.traces_dir, &r.setup);
    r.setup_s = seconds_since(setup_start);
    if (tracer)
      tracer->end(setup, {{"trace_load_s", r.setup.trace_load_s}, {"build_s", r.setup.build_s}});

    if (probe_rebuild && tracer) {
      const int probe = tracer->begin("probe.consolidation.rebuild", root, id);
      r.rebuild_ms = probe_rebuild_ms(fleet);
      tracer->end(probe);
    }

    const std::vector<pas::common::SimTime> steps = step_schedule(spec);
    if (tracer == nullptr) {
      for (const pas::common::SimTime t : steps) {
        const auto start = Clock::now();
        fleet.run_until(t);
        const double wall_s = seconds_since(start);
        r.step_ms.push_back(wall_s * 1e3);
        r.run_s += wall_s;
      }
    } else {
      StepCounters before = read_step_counters(fleet);
      const StepCounters first = before;
      for (const pas::common::SimTime t : steps) {
        const int span = tracer->begin("step", root, id);
        fleet.run_until(t);
        const StepCounters after = read_step_counters(fleet);
        const double planner_ms = static_cast<double>(after.planner_ns - before.planner_ns) * 1e-6;
        tracer->end(span, {{"until_s", t.sec()},
                           {"planner_ms", planner_ms},
                           {"segments", static_cast<double>(after.segments - before.segments)},
                           {"dispatches", static_cast<double>(after.dispatches - before.dispatches)},
                           {"bulk_skips", static_cast<double>(after.bulk_skips - before.bulk_skips)}});
        const double wall_ms = tracer->duration_s(span) * 1e3;
        r.step_ms.push_back(wall_ms);
        r.step_self_ms.push_back(wall_ms - planner_ms);
        r.run_s += wall_ms * 1e-3;
        before = after;
      }
      r.planner_ns = before.planner_ns - first.planner_ns;
      r.dispatches = before.dispatches - first.dispatches;
      r.max_shard_planner_ms = static_cast<double>(before.max_planner_ns) * 1e-6;
      r.counts = layer_counts(fleet);
    }

    r.digest = digest(fleet);
    r.watts = mean_watts(fleet);
    r.sla_pct = sla_violation_pct(fleet);
    if (!std::isfinite(r.watts) || r.watts <= 0.0)
      throw std::runtime_error("mean power is not a positive number");
    if (!(r.sla_pct >= 0.0 && r.sla_pct <= 100.0))
      throw std::runtime_error("SLA violation share is outside [0, 100]");
    if (tracer) tracer->end(root, {{"sim_per_wall", static_cast<double>(spec.horizon_s) / r.run_s}});
  } catch (const std::exception& e) {
    r.error = e.what();
    if (r.error.empty()) r.error = "unknown error";
  }
  return r;
}

// --- statistics ----------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// sim_per_wall of a set of runs: the horizon over the sum of each step's
/// fastest wall across the runs. Every run calls run_until at the same
/// instants, so step i does the same work in each. On a shared machine the
/// program's speed moves by up to 1.7x in spells of seconds to minutes, so a
/// median across runs reads whichever state held most of the invocation;
/// the per-step minimum picks the fast spells (README.md, "Measuring on a
/// shared machine").
double best_step_rate(const std::vector<const Run*>& runs, std::int64_t horizon_s) {
  if (runs.empty()) return 0.0;
  double wall_ms = 0.0;
  for (std::size_t i = 0; i < runs.front()->step_ms.size(); ++i) {
    double best = runs.front()->step_ms[i];
    for (const Run* r : runs) best = std::min(best, r->step_ms[i]);
    wall_ms += best;
  }
  return static_cast<double>(horizon_s) / (wall_ms * 1e-3);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_human(const Metric& m, const std::string& note = {}) {
  std::printf("  %-36s %14.6g %-13s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
              note.c_str());
}

std::string spread_note(const std::vector<double>& v) {
  const double med = median(v);
  const double iqr = quantile(v, 0.75) - quantile(v, 0.25);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "  %zu sample(s): median %.6g, IQR %.2f%% of median",
                v.size(), med, med != 0.0 ? 100.0 * iqr / med : 0.0);
  return buf;
}

int run_benchmark(const Options& o) {
  const WorkloadSpec* found = find_workload(o.workload, o.size);
  if (found == nullptr) usage("unknown workload '" + o.workload + "'");
  const WorkloadSpec& spec = *found;
  const std::optional<std::uint64_t> pin = pinned_digest(o);

  std::printf("perfbench %s (%s): seed %" PRIu64 ", %zu shard(s) x %zu hosts x %zu VMs, "
              "%" PRId64 " sim-s in %" PRId64 " s steps, threads %zu (reference %zu), trace %d\n",
              std::string(spec.name).c_str(), o.size == Size::kFull ? "full" : "tiny", o.seed,
              std::max<std::size_t>(spec.shards, 1), spec.hosts, spec.vms, spec.horizon_s,
              spec.step_s, spec.threads, spec.ref_threads, o.trace ? 1 : 0);

  // Standalone set-ups, timed between the measured runs so that the set-up
  // samples span the whole budget rather than one burst at its end.
  std::vector<double> setups, builds, loads;
  const auto extra_setup = [&] {
    SetupTimes t;
    const auto setup_start = Clock::now();
    const Fleet fleet(spec, o.seed, spec.threads, o.traces_dir, &t);
    setups.push_back(seconds_since(setup_start));
    builds.push_back(t.build_s);
    loads.push_back(t.trace_load_s);
  };

  // A warm-up run (checked, not measured: the first run of a process pays
  // the allocator's page faults), then measured runs — untraced ones,
  // alternating with traced ones under --trace 1 — until the budget is spent.
  Tracer tracer;
  std::vector<Run> runs;
  int next_id = 0;
  runs.push_back(run_once(spec, o, spec.threads, next_id++, nullptr, false));
  runs.back().warmup = true;
  const auto start = Clock::now();
  do {
    runs.push_back(run_once(spec, o, spec.threads, next_id++, nullptr, false));
    if (o.trace) {
      const bool first_traced = next_id == 2;
      runs.push_back(run_once(spec, o, spec.threads, next_id++, &tracer, first_traced));
    }
    for (std::size_t i = 0; i < kSetupsPerRun; ++i) extra_setup();
  } while (seconds_since(start) < o.seconds || runs.size() < 1 + kMinRuns * (o.trace ? 2 : 1));

  for (const Run& r : runs) {
    if (r.warmup || !r.error.empty()) continue;
    setups.push_back(r.setup_s);
    builds.push_back(r.setup.build_s);
    loads.push_back(r.setup.trace_load_s);
  }
  while (setups.size() < kMinSetups) extra_setup();
  const double rss_mb = peak_rss_mb();

  // Reference: untimed, at another thread count (parallel == serial).
  const Run reference = run_once(spec, o, spec.ref_threads, next_id++, nullptr, false);

  // Correctness: every run must reproduce the truth digest — the pinned
  // one when this seed is pinned, else the reference run's.
  std::uint64_t truth = 0;
  if (pin) {
    truth = *pin;
  } else if (reference.error.empty()) {
    truth = reference.digest;
  } else {
    for (const Run& r : runs)
      if (r.error.empty()) {
        truth = r.digest;
        break;
      }
  }
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto check = [&](const Run& r, const char* what) {
    ++attempted;
    if (!r.error.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s run %d threw: %s\n", what, r.id, r.error.c_str());
    } else if (r.digest != truth) {
      ++failed;
      std::fprintf(stderr,
                   "perfbench: %s run %d digest %016" PRIx64 " != expected %016" PRIx64 "\n",
                   what, r.id, r.digest, truth);
    }
  };
  for (const Run& r : runs) check(r, r.warmup ? "warm-up" : r.traced ? "traced" : "timed");
  check(reference, "reference");

  const Run* model = reference.error.empty() ? &reference : nullptr;
  std::vector<double> rates, traced_rates;
  std::vector<const Run*> timed, traced;
  for (const Run& r : runs) {
    if (!r.error.empty()) continue;
    if (model == nullptr) model = &r;
    if (r.warmup) continue;
    (r.traced ? traced_rates : rates).push_back(static_cast<double>(spec.horizon_s) / r.run_s);
    (r.traced ? traced : timed).push_back(&r);
  }
  const double sim_per_wall = best_step_rate(timed, spec.horizon_s);

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = {
        {"sim_per_wall", sim_per_wall, "sim-s/wall-s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"mean_watts", model ? model->watts : 0.0, "W"},
        {"sla_violation_pct", model ? model->sla_pct : 0.0, "%"},
    };
    std::printf("sim_per_wall per measured run:");
    for (const double rate : rates) std::printf(" %.4g", rate);
    std::printf("\nend-to-end metrics:\n");
    print_human(metrics[0], spread_note(rates));
    print_human(metrics[1], spread_note(setups));
    for (std::size_t i = 2; i < metrics.size(); ++i) print_human(metrics[i]);
  } else {
    std::vector<double> step_ms, step_self_ms, planner_ms, planner_share, ns_per_dispatch,
        shard_planner_ms;
    const Run* first_traced = nullptr;
    for (const Run& r : runs) {
      if (!r.traced || !r.error.empty()) continue;
      if (first_traced == nullptr) first_traced = &r;
      step_ms.insert(step_ms.end(), r.step_ms.begin(), r.step_ms.end());
      step_self_ms.insert(step_self_ms.end(), r.step_self_ms.begin(), r.step_self_ms.end());
      const double run_ns = r.run_s * 1e9;
      planner_ms.push_back(static_cast<double>(r.planner_ns) * 1e-6);
      planner_share.push_back(static_cast<double>(r.planner_ns) / run_ns);
      ns_per_dispatch.push_back(r.dispatches > 0 ? (run_ns - static_cast<double>(r.planner_ns)) /
                                                       static_cast<double>(r.dispatches)
                                                 : 0.0);
      shard_planner_ms.push_back(r.max_shard_planner_ms);
    }

    // Standalone probes, each a span of its own.
    const auto probe = [&](const char* name, auto&& fn) {
      std::vector<double> v;
      for (int i = 0; i < kProbeRepeats; ++i) {
        const int span = tracer.begin(name, -1, next_id);
        ++attempted;
        try {
          v.push_back(fn());
        } catch (const std::exception& e) {
          ++failed;
          std::fprintf(stderr, "perfbench: probe %s threw: %s\n", name, e.what());
          return 0.0;
        }
        tracer.end(span, {{"value", v.back()}});
      }
      return median(v);
    };
    const double host_rate = probe("probe.hypervisor.host", [&] {
      return probe_host_sim_per_wall(spec, o.seed, o.traces_dir);
    });
    const double pick_ns = probe("probe.sched.pick", [&] { return probe_pick_ns(o.seed); });
    const double queue_ns =
        probe("probe.sim.event_queue", [&] { return probe_event_queue_ns_per_op(o.seed); });

    const bool fed = spec.shards > 0;
    const double steps = static_cast<double>(step_schedule(spec).size());
    const double traced_rate = best_step_rate(traced, spec.horizon_s);
    metrics = {
        {"cluster.step_ms.p50", quantile(step_ms, 0.5), "ms"},
        {"cluster.step_ms.p90", quantile(step_ms, 0.9), "ms"},
        {"cluster.steps", steps, "count"},
        {"cluster.step_self_ms.p50", quantile(step_self_ms, 0.5), "ms"},
        {"cluster.ns_per_dispatch", median(ns_per_dispatch), "ns"},
        {"hypervisor.host_sim_per_wall", host_rate, "sim-s/wall-s"},
        {"sched.pick_ns", pick_ns, "ns"},
        {"sim.event_queue_ns_per_op", queue_ns, "ns"},
        {"consolidation.planner_ms", median(planner_ms), "ms"},
        {"consolidation.planner_share", median(planner_share), "ratio"},
        {"consolidation.rebuild_ms", first_traced ? first_traced->rebuild_ms : 0.0, "ms"},
        {"scenario.build_s", median(builds), "s"},
        {"workload.trace_load_s", spec.replay ? median(loads) : 0.0, "s"},
        {"federation.step_ms.p50", fed ? quantile(step_ms, 0.5) : 0.0, "ms"},
        {"federation.step_ms.p90", fed ? quantile(step_ms, 0.9) : 0.0, "ms"},
        {"federation.shard_planner_ms", fed ? median(shard_planner_ms) : 0.0, "ms"},
        {"trace.overhead_frac",
         sim_per_wall > 0.0 ? 1.0 - traced_rate / sim_per_wall : 0.0, "ratio"},
    };
    if (first_traced != nullptr)
      metrics.insert(metrics.end(), first_traced->counts.begin(), first_traced->counts.end());
    std::printf("per-layer metrics (traced run):\n");
    for (const Metric& m : metrics) print_human(m);
    print_human({"sim_per_wall (untraced)", sim_per_wall, "sim-s/wall-s"}, spread_note(rates));
    print_human({"sim_per_wall (traced)", traced_rate, "sim-s/wall-s"}, spread_note(traced_rates));
    if (!o.spans_out.empty()) tracer.write(o.spans_out);
  }

  const double failed_frac = static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("  %-36s %14.6g %-13s  %zu of %zu run(s)\n", "failed_frac", failed_frac, "ratio",
              failed, attempted);
  if (pin)
    std::printf("  digest %016" PRIx64 " (pinned %016" PRIx64 ")\n", model ? model->digest : 0,
                *pin);
  else
    std::printf("  digest %016" PRIx64 "\n", model ? model->digest : 0);

  // The machine-readable result: the last line of standard output.
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run_benchmark(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
