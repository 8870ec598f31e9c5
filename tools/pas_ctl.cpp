// pas_ctl: drive the hosting-cluster simulator from an external command
// stream — the control plane's standalone front end.
//
// Two modes over the same ctl::ControlPlane:
//
//   batch (default)   Reads the whole task log before the run (a regular
//                     file, or a named pipe — the read blocks until the
//                     writer closes it), parses it strictly against the
//                     fleet dims (malformed input exits 1 with the
//                     origin:line diagnostic), runs the scenario to the
//                     horizon, and writes the result log to --results
//                     (stdout when omitted). Reading everything up front
//                     fixes every command's (time, insertion-seq) queue
//                     position before the first event fires, so the same
//                     stream over the same scenario yields the same result
//                     log, byte for byte, in every engine.
//
//   --repl            Line-oriented interactive driver on stdin:
//                         {"id": 1, "at_s": 10, "task": "migrate", ...}
//                             queue one task (same JSON as a stream line)
//                         run <seconds>
//                             advance the cluster to absolute sim-time
//                         status
//                             one-line fleet summary
//                         quit
//                             write the result log and exit
//                     Tasks queued with at_s in the past fire at the next
//                     event boundary (ControlPlane::submit). Feeding the
//                     same line sequence replays the same session.
//
// Both modes write the result log the same way; a --results path that
// cannot be written exits 1 with "pas_ctl: cannot write PATH".
//
// Usage: pas_ctl --commands=FILE [--results=FILE] [--repl]
//          [--hosts=8] [--vms=64] [--horizon=400] [--seed=17]
//          [--threads=1] [--slow] [--chaos-seed=N]
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/flags.hpp"
#include "common/units.hpp"
#include "control/control_plane.hpp"
#include "control/task.hpp"
#include "scenario/hosting_cluster.hpp"

namespace {

using pas::common::seconds;
using pas::common::SimTime;

struct Options {
  std::string commands;
  std::string results;
  bool repl = false;
  std::size_t hosts = 8;
  std::size_t vms = 64;
  double horizon_s = 400.0;
  std::uint64_t seed = 17;
  std::size_t threads = 1;
  bool fast_path = true;
  std::uint64_t chaos_seed = 0;
};

std::unique_ptr<pas::cluster::Cluster> build(const Options& opt) {
  pas::scenario::HostingClusterConfig cfg;
  cfg.hosts = opt.hosts;
  cfg.vms = opt.vms;
  cfg.horizon = seconds(static_cast<long long>(opt.horizon_s));
  cfg.seed = opt.seed;
  cfg.threads = opt.threads;
  cfg.fast_path = opt.fast_path;
  cfg.chaos_seed = opt.chaos_seed;
  return pas::scenario::build_hosting_cluster(cfg);
}

void print_status(pas::cluster::Cluster& cluster) {
  std::printf("t=%.3fs hosts=%zu (on: %zu, crashed: %zu) vms: %zu running, %zu lost\n",
              cluster.now().sec(), cluster.host_count(), cluster.powered_on_count(),
              cluster.crashed_count(), cluster.running_vm_count(), cluster.lost_vm_count());
}

/// Reads the command stream to EOF (on a FIFO, until the writer closes it).
std::string read_stream(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Writes the result log to `path`, or to stdout when `path` is empty.
void write_results(const std::string& path, const std::string& log) {
  if (path.empty()) {
    std::fwrite(log.data(), 1, log.size(), stdout);
    return;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << log;
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run_batch(const Options& opt) {
  auto plane = std::make_unique<pas::ctl::ControlPlane>(pas::ctl::parse_tasks(
      read_stream(opt.commands), opt.commands, {opt.hosts, opt.vms}));
  const std::size_t tasks = plane->tasks().size();

  auto cluster = build(opt);
  pas::ctl::ControlPlane* ctl = plane.get();
  cluster->install_control(std::move(plane));
  cluster->run_until(seconds(static_cast<long long>(opt.horizon_s)));

  write_results(opt.results, ctl->result_log());
  std::fprintf(stderr, "pas_ctl: %zu task(s), %zu fired: %zu ok, %zu rejected, %zu superseded\n",
               tasks, ctl->results().size(), ctl->accepted(), ctl->rejected(),
               ctl->superseded());
  print_status(*cluster);
  return 0;
}

int run_repl(const Options& opt) {
  auto cluster = build(opt);
  // An empty scripted stream: the plane exists purely as a submit() target.
  // Arm it immediately (run_until to the current instant advances nothing
  // but schedules the control plane onto the queue) so the first task line
  // works without a prior `run`.
  cluster->install_control(
      std::make_unique<pas::ctl::ControlPlane>(std::vector<pas::ctl::Task>{}));
  cluster->run_until(cluster->now());
  pas::ctl::ControlPlane* ctl = cluster->control();

  const SimTime horizon = seconds(static_cast<long long>(opt.horizon_s));
  std::string line;
  std::uint64_t repl_line = 0;
  while (std::getline(std::cin, line)) {
    ++repl_line;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    try {
      if (line.compare(first, 4, "quit") == 0 || line.compare(first, 4, "exit") == 0) break;
      if (line.compare(first, 6, "status") == 0) {
        print_status(*cluster);
        continue;
      }
      if (line.compare(first, 4, "run ") == 0) {
        const double to_s = std::stod(line.substr(first + 4));
        const SimTime to = pas::common::usec(static_cast<long long>(to_s * 1e6));
        if (to <= cluster->now()) {
          std::fprintf(stderr, "run %.3f: already at %.3fs\n", to_s, cluster->now().sec());
          continue;
        }
        cluster->run_until(std::min(to, horizon));
        print_status(*cluster);
        continue;
      }
      // Anything else is one task object — parsed as a single-element
      // stream so it gets the full strict treatment, with the REPL line
      // number as the origin's line (wrap adds one line above).
      const std::string origin = "<repl:" + std::to_string(repl_line) + ">";
      auto tasks = pas::ctl::parse_tasks("[\n" + line + "\n]", origin,
                                         {opt.hosts, opt.vms});
      for (const pas::ctl::Task& task : tasks) {
        ctl->submit(task);
        std::fprintf(stderr, "queued task %llu (%s) at %.3fs\n",
                     static_cast<unsigned long long>(task.id),
                     pas::ctl::to_string(task.kind), task.at.sec());
      }
    } catch (const std::exception& err) {
      std::fprintf(stderr, "error: %s\n", err.what());
    }
  }

  write_results(opt.results, ctl->result_log());
  std::fprintf(stderr, "pas_ctl: %zu fired: %zu ok, %zu rejected, %zu superseded\n",
               ctl->results().size(), ctl->accepted(), ctl->rejected(), ctl->superseded());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const pas::common::Flags flags(argc, argv);
  Options opt;
  opt.commands = flags.get_or("commands", "");
  opt.results = flags.get_or("results", "");
  opt.repl = flags.has("repl");
  opt.hosts = flags.get_count("hosts", 8);
  opt.vms = flags.get_count("vms", 64);
  opt.horizon_s = flags.get_double("horizon", 400.0);
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 17));
  opt.threads = flags.get_count("threads", 1);
  opt.fast_path = !flags.has("slow");
  opt.chaos_seed = static_cast<std::uint64_t>(flags.get_int("chaos-seed", 0));

  if (!opt.repl && opt.commands.empty()) {
    std::fprintf(stderr,
                 "pas_ctl: need --commands=FILE (batch) or --repl (interactive)\n"
                 "usage: pas_ctl --commands=FILE [--results=FILE] [--repl]\n"
                 "         [--hosts=8] [--vms=64] [--horizon=400] [--seed=17]\n"
                 "         [--threads=1] [--slow] [--chaos-seed=N]\n");
    return 2;
  }

  try {
    return opt.repl ? run_repl(opt) : run_batch(opt);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "pas_ctl: %s\n", err.what());
    return 1;
  }
}
