#include "scenario/hosting_cluster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/random.hpp"
#include "control/control_plane.hpp"
#include "workload/load_profile.hpp"
#include "workload/pi_app.hpp"
#include "workload/synthetic.hpp"
#include "workload/web_app.hpp"

namespace pas::scenario {

namespace {

/// The class behind FleetPreset::kUniform, memory included — a fleet is
/// always a class list: the historical 8 GB host with the paper's ladder
/// and power model.
platform::HostClass default_uniform_class() {
  platform::HostClass c;
  c.name = "host";
  c.memory_mb = 8192.0;
  return c;
}

/// Manager + chaos + control install, shared by both workload presets.
/// Chaos and commands are strictly additive: chaos_seed == 0 / an empty
/// command stream installs nothing, so every historical (seed → scenario)
/// mapping stays byte-identical.
void finish_cluster(cluster::Cluster& cluster, const HostingClusterConfig& config) {
  if (config.install_manager)
    cluster.install_manager(std::make_unique<cluster::ClusterManager>(config.manager));
  if (config.chaos_seed != 0) {
    cluster.install_faults(std::make_unique<fault::FaultInjector>(fault::draw_fault_plan(
        config.chaos, config.chaos_seed, config.hosts, config.horizon)));
  }
  if (!config.commands.empty())
    cluster.install_control(std::make_unique<ctl::ControlPlane>(config.commands));
}

}  // namespace

std::unique_ptr<cluster::Cluster> build_hosting_cluster(const HostingClusterConfig& config) {
  cluster::ClusterConfig cc;
  cc.host.trace_stride = config.trace_stride;
  cc.host.event_driven_fast_path = config.fast_path;
  cc.threads = config.threads;
  // The fleet is always a per-host class list: explicit, mixed from the
  // platform catalog, or `hosts` clones of the uniform class.
  if (!config.host_classes.empty()) {
    cc.host_classes = config.host_classes;
  } else if (config.fleet == FleetPreset::kMixed) {
    cc.host_classes = platform::mixed_fleet_classes(config.hosts, config.fleet_seed);
  } else {
    cc.host_classes = platform::uniform_fleet_classes(config.hosts, default_uniform_class());
  }
  if (cc.host_classes.size() != config.hosts)
    throw std::invalid_argument(
        "build_hosting_cluster: hosts disagrees with host_classes.size()");
  auto cluster = std::make_unique<cluster::Cluster>(std::move(cc));

  const auto horizon_s = config.horizon.us() / 1'000'000;
  const auto hosts = static_cast<cluster::HostId>(config.hosts);

  if (config.workload == WorkloadPreset::kTrace) {
    if (config.traces.empty())
      throw std::invalid_argument(
          "build_hosting_cluster: WorkloadPreset::kTrace needs a non-empty trace set");
    // Per-VM trace assignment is a pure function of (fleet_seed, i): the
    // same seed that shapes a mixed fleet names the replay cast.
    common::Rng rng{config.fleet_seed * 0x9e3779b97f4a7c15ULL + 0x7472616365ULL};
    for (std::size_t i = 0; i < config.vms; ++i) {
      const wl::Trace& trace = config.traces[rng.next_below(config.traces.size())];
      cluster::ClusterVmConfig vc;
      vc.vm.name = "trace" + std::to_string(i) + "_" + trace.name();
      // Credit covers the trace's peak with 25 % headroom so a healthy
      // fleet serves every interval; floors/ceilings keep degenerate
      // traces schedulable.
      vc.vm.credit = std::clamp(std::ceil(trace.peak_demand_pct() * 1.25), 2.0, 95.0);
      vc.memory_mb = trace.has_memory() ? trace.peak_memory_mb()
                                        : 256.0 * static_cast<double>(1 + i % 4);
      vc.dirty_mb_per_s = 10.0 + 15.0 * static_cast<double>(i % 4);
      cluster->add_vm(vc, std::make_unique<wl::TraceReplay>(trace),
                      static_cast<cluster::HostId>(i % hosts));
    }
    finish_cluster(*cluster, config);
    return cluster;
  }

  // Tenant mix per block of 16 VMs: 4 web, 3 thrashing hogs, 3 batch jobs,
  // 6 reserved-but-idle — the single-host bench's proportions. Every VM
  // starts on host (i % hosts): maximally spread, so consolidation has the
  // whole distance to cover.
  for (std::size_t i = 0; i < config.vms; ++i) {
    const std::size_t kind = i % 16;
    const auto home = static_cast<cluster::HostId>(i % hosts);
    cluster::ClusterVmConfig vc;
    std::unique_ptr<wl::Workload> workload;
    if (kind < 4) {  // web tenant: request pulse over 1/8 of the day
      vc.vm.name = "web" + std::to_string(i);
      vc.vm.credit = 4.0;
      vc.memory_mb = 512.0;
      vc.dirty_mb_per_s = 30.0;
      wl::WebAppConfig wc;
      wc.queue_capacity = 500;
      wc.seed = config.seed * 1000 + i;
      const double rate = wl::WebApp::rate_for_demand(vc.vm.credit, wc.request_cost);
      const auto from = common::seconds(horizon_s * (i % 32) / 64);
      const auto until = common::seconds(horizon_s * (i % 32) / 64 + horizon_s / 8);
      workload = std::make_unique<wl::WebApp>(wl::LoadProfile::pulse(from, until, rate), wc);
    } else if (kind < 7) {  // thrashing hog under its cap
      vc.vm.name = "hog" + std::to_string(i);
      vc.vm.credit = 3.0;
      vc.memory_mb = 768.0;
      vc.dirty_mb_per_s = 60.0;
      const auto from = common::seconds(horizon_s / 8 + horizon_s * (i % 24) / 48);
      const auto until = common::seconds(horizon_s / 8 + horizon_s * (i % 24) / 48 +
                                         horizon_s / 12);
      workload = std::make_unique<wl::GatedBusyLoop>(wl::LoadProfile::pulse(from, until, 1.0));
    } else if (kind < 10) {  // batch pi job, staggered start
      vc.vm.name = "batch" + std::to_string(i);
      vc.vm.credit = 5.0;
      vc.memory_mb = 1024.0;
      vc.dirty_mb_per_s = 40.0;
      workload = std::make_unique<wl::PiApp>(
          common::mf_seconds(static_cast<double>(horizon_s) / 400.0),
          common::seconds(horizon_s * (i % 16) / 16));
    } else {  // reserved but idle
      vc.vm.name = "idle" + std::to_string(i);
      vc.vm.credit = 2.0;
      vc.memory_mb = 256.0;
      vc.dirty_mb_per_s = 5.0;
      workload = std::make_unique<wl::IdleGuest>();
    }
    cluster->add_vm(std::move(vc), std::move(workload), home);
  }

  finish_cluster(*cluster, config);
  return cluster;
}

}  // namespace pas::scenario
