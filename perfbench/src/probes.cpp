// Standalone layer probes: each times one layer's public entry point on
// inputs drawn from the workload seed, outside any cluster.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "cluster/cluster_manager.hpp"
#include "common/random.hpp"
#include "consolidation/host_book.hpp"
#include "hypervisor/host.hpp"
#include "platform/host_class.hpp"
#include "sched/credit_scheduler.hpp"
#include "sim/event_queue.hpp"
#include "workload/load_profile.hpp"
#include "workload/pi_app.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_replay.hpp"
#include "workload/web_app.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using pas::common::SimTime;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Keeps a probe's result observable so the timed loop cannot be elided.
volatile std::uint64_t g_sink = 0;

}  // namespace

double probe_host_sim_per_wall(const WorkloadSpec& spec, std::uint64_t seed,
                               const std::string& traces_dir) {
  constexpr std::int64_t kHorizonS = 4000;
  pas::hv::Host host{pas::hv::HostConfig{}, std::make_unique<pas::sched::CreditScheduler>()};
  // The workload's tenants-per-host density, each tenant active throughout.
  const std::size_t tenants = std::max<std::size_t>(spec.vms / spec.hosts, 1);
  if (spec.replay) {
    const std::vector<pas::wl::Trace> traces = pas::wl::Trace::load_dir(traces_dir);
    pas::common::Rng rng{seed};
    for (std::size_t i = 0; i < tenants; ++i) {
      const pas::wl::Trace& trace = traces[rng.next_below(traces.size())];
      pas::hv::VmConfig vc;
      vc.name = "trace" + std::to_string(i);
      vc.credit = std::clamp(std::ceil(trace.peak_demand_pct() * 1.25), 2.0, 95.0);
      host.add_vm(vc, std::make_unique<pas::wl::TraceReplay>(trace));
    }
  } else {
    // The hosting mix's four tenant kinds at 8x their credit, so the host is
    // busy most quanta instead of idling under 2-5 % caps.
    for (std::size_t i = 0; i < tenants; ++i) {
      pas::hv::VmConfig vc;
      vc.name = "tenant" + std::to_string(i);
      std::unique_ptr<pas::wl::Workload> workload;
      switch (i % 4) {
        case 0: {
          vc.credit = 32.0;
          pas::wl::WebAppConfig wc;
          wc.queue_capacity = 500;
          wc.seed = seed * 1000 + i;
          const double rate = pas::wl::WebApp::rate_for_demand(vc.credit, wc.request_cost);
          workload = std::make_unique<pas::wl::WebApp>(pas::wl::LoadProfile::constant(rate), wc);
          break;
        }
        case 1:
          vc.credit = 24.0;
          workload = std::make_unique<pas::wl::GatedBusyLoop>(pas::wl::LoadProfile::constant(1.0));
          break;
        case 2:
          vc.credit = 40.0;
          workload = std::make_unique<pas::wl::PiApp>(pas::common::mf_seconds(1e6));
          break;
        default:
          vc.credit = 16.0;
          workload = std::make_unique<pas::wl::IdleGuest>();
          break;
      }
      host.add_vm(vc, std::move(workload));
    }
  }
  const auto start = Clock::now();
  host.run_until(pas::common::seconds(kHorizonS));
  return static_cast<double>(kHorizonS) / seconds_since(start);
}

double probe_pick_ns(std::uint64_t seed) {
  constexpr std::size_t kVms = 16;
  constexpr std::size_t kPicks = 2'000'000;
  pas::sched::CreditScheduler sched;
  pas::common::Rng rng{seed};
  for (pas::common::VmId id = 0; id < kVms; ++id) {
    pas::hv::VmConfig vc;
    vc.credit = 2.0 + static_cast<double>(rng.next_below(8));
    vc.priority = id == 0 ? 1 : 0;  // the agent slot, as on a cluster host
    sched.add_vm(id, vc);
  }
  std::vector<pas::common::VmId> runnable(kVms);
  std::iota(runnable.begin(), runnable.end(), pas::common::VmId{0});
  const SimTime quantum = pas::common::msec(1);
  const SimTime period = sched.accounting_period();

  SimTime now{};
  SimTime next_account = period;
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kPicks; ++i) {
    if (now >= next_account) {
      sched.account(now);
      next_account += period;
    }
    const pas::common::VmId vm = sched.pick(now, runnable);
    if (vm != pas::common::kInvalidVm) sched.charge(vm, quantum);
    sink += vm;
    now += quantum;
  }
  const double wall = seconds_since(start);
  g_sink = g_sink + sink;
  return wall * 1e9 / static_cast<double>(kPicks);
}

namespace {

// A self-rescheduling periodic event, like a host's accounting and monitor
// ticks.
struct Periodic {
  pas::sim::EventQueue* queue;
  SimTime period;
  std::uint64_t* ops;
  void operator()(SimTime now) const {
    *ops += 2;  // this fire and the schedule below
    queue->schedule(now + period, *this);
  }
};

}  // namespace

double probe_event_queue_ns_per_op(std::uint64_t seed) {
  constexpr std::size_t kOneShots = 100'000;
  constexpr std::size_t kReschedules = kOneShots / 2;
  constexpr std::size_t kPeriodics = 64;
  constexpr std::int64_t kHorizonUs = 100'000'000;
  constexpr int kRunSteps = 100;

  pas::common::Rng rng{seed};
  std::vector<SimTime> when(kOneShots);
  for (SimTime& t : when) t = SimTime{static_cast<std::int64_t>(rng.next_below(kHorizonUs))};
  std::vector<std::pair<std::size_t, SimTime>> moves(kReschedules);
  for (auto& [index, t] : moves) {
    index = rng.next_below(kOneShots);
    t = SimTime{static_cast<std::int64_t>(rng.next_below(kHorizonUs))};
  }

  pas::sim::EventQueue queue;
  std::uint64_t ops = 0;
  std::vector<pas::sim::EventId> ids;
  ids.reserve(kOneShots);
  const auto start = Clock::now();
  for (const SimTime t : when)
    ids.push_back(queue.schedule(t, [&ops](SimTime) { ++ops; }));
  for (const auto& [index, t] : moves) queue.reschedule(ids[index], t);
  for (std::size_t p = 0; p < kPeriodics; ++p) {
    const SimTime period = pas::common::msec(static_cast<std::int64_t>(p) + 1);
    queue.schedule(period, Periodic{&queue, period, &ops});
  }
  for (int step = 1; step <= kRunSteps; ++step)
    queue.run_until(SimTime{kHorizonUs / kRunSteps * step});
  const double wall = seconds_since(start);
  ops += kOneShots + kReschedules + kPeriodics;
  return wall * 1e9 / static_cast<double>(ops);
}

double probe_rebuild_ms(const Fleet& fleet) {
  const pas::cluster::Cluster* c = nullptr;
  for (const pas::cluster::Cluster* cl : fleet.clusters())
    if (c == nullptr || cl->vm_count() > c->vm_count()) c = cl;
  if (c == nullptr) throw std::logic_error("probe_rebuild_ms: empty fleet");

  // The manager's own view of the fleet: each live host's class minus the
  // hypervisor agent's credit, each running VM's purchased credit and memory.
  std::vector<std::pair<std::size_t, pas::consolidation::HostSpec>> hosts;
  for (pas::cluster::HostId h = 0; h < c->host_count(); ++h) {
    if (c->crashed(h)) continue;
    pas::consolidation::HostSpec spec = pas::platform::to_host_spec(c->host_class(h));
    spec.cpu_capacity_pct = c->host_class(h).cpu_capacity_pct - c->config().agent_credit;
    hosts.emplace_back(h, std::move(spec));
  }
  std::vector<std::pair<std::size_t, pas::consolidation::VmSpec>> vms;
  for (pas::cluster::GlobalVmId vm = 0; vm < c->vm_count(); ++vm) {
    if (c->vm_state(vm) != pas::cluster::VmState::kRunning) continue;
    pas::consolidation::VmSpec spec;
    spec.name = c->vm_config(vm).vm.name;
    spec.credit = c->vm_config(vm).vm.credit;
    spec.memory_mb = c->vm_config(vm).memory_mb;
    vms.emplace_back(vm, std::move(spec));
  }
  pas::consolidation::FfdOptions options;
  if (const pas::cluster::ClusterManager* m = c->manager())
    options.efficient_first = m->config().efficient_first;

  const auto start = Clock::now();
  pas::consolidation::HostBook book{options};
  for (const auto& [id, spec] : hosts) book.add_host(id, spec);
  for (const auto& [id, spec] : vms) book.add_vm(id, spec);
  const pas::consolidation::Placement& plan = book.plan();
  const double wall = seconds_since(start);
  g_sink = g_sink + plan.hosts_used;
  return wall * 1e3;
}

}  // namespace perfbench
