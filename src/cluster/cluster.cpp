#include "cluster/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "cluster/cluster_manager.hpp"
#include "common/divergence.hpp"
#include "control/control_plane.hpp"
#include "core/compensation.hpp"
#include "fault/fault.hpp"
#include "sched/credit_scheduler.hpp"
#include "workload/synthetic.hpp"

namespace pas::cluster {

namespace {

/// The fleet is the class list, one host per entry: non-empty, and every
/// class a machine that can exist.
ClusterConfig validated(ClusterConfig cfg) {
  if (cfg.host_classes.empty())
    throw std::invalid_argument("Cluster: host_classes must name at least one host");
  for (const auto& c : cfg.host_classes) {
    if (c.memory_mb <= 0.0)
      throw std::invalid_argument("Cluster: class memory must be positive");
    if (c.numa_nodes == 0)
      throw std::invalid_argument("Cluster: class needs at least one NUMA node");
    if (c.numa_spill_penalty < 0.0)
      throw std::invalid_argument("Cluster: negative NUMA spill penalty");
  }
  return cfg;
}

/// The lifecycle graph documented on VmState, which set_state enforces.
[[maybe_unused]] bool legal_transition(VmState from, VmState to) {
  switch (from) {
    case VmState::kRunning:
      return to == VmState::kOrphaned || to == VmState::kLost || to == VmState::kStopped ||
             to == VmState::kDeparted;
    case VmState::kOrphaned:
      return to == VmState::kRunning || to == VmState::kLost;
    case VmState::kStopped:
    case VmState::kInbound:
      return to == VmState::kRunning;
    case VmState::kLost:
    case VmState::kDeparted:
      return false;
  }
  return false;
}

}  // namespace

RecoveryStats summarize_recoveries(const std::vector<VmRecovery>& recoveries) {
  RecoveryStats stats;
  stats.count = recoveries.size();
  if (recoveries.empty()) return stats;
  std::vector<common::SimTime> latencies;
  latencies.reserve(recoveries.size());
  double sum_s = 0.0;
  for (const VmRecovery& r : recoveries) {
    latencies.push_back(r.latency());
    sum_s += r.latency().sec();
  }
  std::sort(latencies.begin(), latencies.end());
  // Lower-median nearest rank: an integer-microsecond latency that really
  // occurred, never an interpolation — the value stays byte-stable however
  // the recoveries split across engines.
  stats.p50 = latencies[(latencies.size() - 1) / 2];
  stats.max = latencies.back();
  stats.mean_s = sum_s / static_cast<double>(recoveries.size());
  return stats;
}

Cluster::Cluster(ClusterConfig config)
    : cfg_(validated(std::move(config))),
      pool_(cfg_.execution.threads),
      meter_(cfg_.host_classes.size()) {
  const std::vector<platform::HostClass>& classes = cfg_.host_classes;
  engine_ = std::make_unique<MigrationEngine>(cfg_.migration, events_);
  crashed_.assign(classes.size(), 0);
  host_slots_.resize(classes.size());
  slot_vm_.resize(classes.size());

  hosts_.reserve(classes.size());
  agents_.reserve(classes.size());
  for (std::size_t h = 0; h < classes.size(); ++h) {
    auto scheduler = cfg_.make_scheduler ? cfg_.make_scheduler()
                                         : std::make_unique<sched::CreditScheduler>();
    // Each host is built from its class: the shared template supplies the
    // timing knobs, the class supplies the machine (ladder + power model).
    hv::HostConfig hc = cfg_.host;
    hc.ladder = classes[h].ladder;
    hc.power = classes[h].power;
    auto host = std::make_unique<hv::Host>(std::move(hc), std::move(scheduler));
    hv::VmConfig agent_cfg;
    agent_cfg.name = "hv-agent-" + std::to_string(h);
    agent_cfg.credit = cfg_.agent_credit;
    agent_cfg.priority = cfg_.agent_priority;
    auto agent = std::make_unique<HypervisorAgent>();
    agents_.push_back(agent.get());
    const common::VmId slot_id = host->add_vm(agent_cfg, std::move(agent));
    if (slot_id != 0) throw std::logic_error("Cluster: agent must hold slot 0");
    slot_vm_[h] = {kNoSlotOwner};
    hosts_.push_back(std::move(host));
  }
}

Cluster::~Cluster() = default;

GlobalVmId Cluster::add_vm(ClusterVmConfig config, std::unique_ptr<wl::Workload> workload,
                           HostId home) {
  if (started_) throw std::logic_error("Cluster: add_vm after run started");
  if (workload == nullptr) throw std::invalid_argument("Cluster: workload required");
  return register_vm(std::move(config), std::move(workload), home, VmState::kRunning);
}

GlobalVmId Cluster::admit_inbound(ClusterVmConfig config, HostId home) {
  if (home < hosts_.size() && crashed_[home])
    throw std::invalid_argument("Cluster: inbound destination host crashed");
  // Mid-run registration rides the same between-segments Host::add_vm path
  // ensure_slot uses: the slot parks an IdleGuest until the federation
  // link's attach delivers the guest (workload + credit) into it.
  const GlobalVmId gid = register_vm(std::move(config), std::make_unique<wl::IdleGuest>(),
                                     home, VmState::kInbound);
  set_powered(home, true);  // the destination must be receiving
  return gid;
}

GlobalVmId Cluster::register_vm(ClusterVmConfig config, std::unique_ptr<wl::Workload> workload,
                                HostId home, VmState state) {
  if (home >= hosts_.size()) throw std::invalid_argument("Cluster: bad home host");
  if (config.memory_mb <= 0.0)
    throw std::invalid_argument("Cluster: VM memory must be positive");

  const auto gid = static_cast<GlobalVmId>(vm_cfgs_.size());
  // Lazy topology: the VM gets a slot on its home only; other hosts learn
  // about it if a migration or recovery ever lands it there.
  const common::VmId slot_id = hosts_[home]->add_vm(config.vm, std::move(workload));
  sla_.register_vm(gid, config.vm.credit);
  vm_cfgs_.push_back(std::move(config));
  home_.push_back(home);
  home_slot_.push_back(slot_id);
  vm_slots_.emplace_back();
  vm_state_.push_back(state);
  held_wl_.emplace_back();
  held_since_.emplace_back();
  downtime_.emplace_back();
  migration_count_.push_back(0);
  fed_locked_.push_back(0);
  record_slot(home, gid, slot_id);
  ++topology_version_;
  return gid;
}

void Cluster::set_state(GlobalVmId vm, VmState to) {
  assert(legal_transition(vm_state_[vm], to) && "illegal VM lifecycle transition");
  vm_state_[vm] = to;
  ++topology_version_;
}

std::unique_ptr<wl::Workload> Cluster::drain(GlobalVmId vm) {
  hv::Host& h = *hosts_[home_[vm]];
  const common::VmId s = home_slot_[vm];
  auto workload = h.swap_workload(s, std::make_unique<wl::IdleGuest>());
  // The balance dies with the slot (unlike a migration's export, nothing
  // carries it), and the cap drops to zero so the parked slot earns nothing.
  h.scheduler().set_cap(s, 0.0);
  h.scheduler().import_credit(s, common::SimTime{});
  return workload;
}

void Cluster::mark_departed(GlobalVmId vm) {
  if (vm >= vm_cfgs_.size()) throw std::invalid_argument("Cluster: bad VM id");
  if (vm_state_[vm] != VmState::kRunning)
    throw std::logic_error("Cluster: only a running VM can depart");
  // The link's detach already drained the slot (workload held in the
  // flight, credit exported, cap zeroed) — only the bookkeeping is ours.
  fed_locked_[vm] = 0;
  set_state(vm, VmState::kDeparted);
}

void Cluster::complete_inbound(GlobalVmId vm, common::SimTime downtime) {
  if (vm >= vm_cfgs_.size()) throw std::invalid_argument("Cluster: bad VM id");
  if (vm_state_[vm] != VmState::kInbound)
    throw std::logic_error("Cluster: complete_inbound on a non-inbound VM");
  set_powered(home_[vm], true);
  set_state(vm, VmState::kRunning);
  downtime_[vm] += downtime;
  ++migration_count_[vm];
  // Same SLA contract as an intra-cluster stop-and-copy: the pause is one
  // fully violated window — a paused VM delivers nothing, whatever it
  // bought.
  if (downtime > common::SimTime{})
    sla_.record_window(vm, downtime, 0.0, /*saturated=*/true);
}

void Cluster::set_federation_lock(GlobalVmId vm) {
  if (vm >= vm_cfgs_.size()) throw std::invalid_argument("Cluster: bad VM id");
  fed_locked_[vm] = 1;
}

void Cluster::record_slot(HostId host, GlobalVmId vm, common::VmId slot) {
  auto& hs = host_slots_[host];
  hs.insert(std::lower_bound(hs.begin(), hs.end(), vm,
                             [](const auto& e, GlobalVmId g) { return e.first < g; }),
            {vm, slot});
  auto& vs = vm_slots_[vm];
  vs.insert(std::lower_bound(vs.begin(), vs.end(), host,
                             [](const auto& e, HostId h) { return e.first < h; }),
            {host, slot});
  auto& owners = slot_vm_[host];
  if (owners.size() <= slot) owners.resize(slot + 1, kNoSlotOwner);
  owners[slot] = vm;
}

bool Cluster::has_slot(HostId host, GlobalVmId vm) const {
  const auto& hs = host_slots_.at(host);
  const auto it = std::lower_bound(hs.begin(), hs.end(), vm,
                                   [](const auto& e, GlobalVmId g) { return e.first < g; });
  return it != hs.end() && it->first == vm;
}

common::VmId Cluster::slot_on(HostId host, GlobalVmId vm) const {
  const auto& hs = host_slots_.at(host);
  const auto it = std::lower_bound(hs.begin(), hs.end(), vm,
                                   [](const auto& e, GlobalVmId g) { return e.first < g; });
  if (it == hs.end() || it->first != vm)
    throw std::invalid_argument("Cluster: VM has no slot on that host");
  return it->second;
}

common::VmId Cluster::ensure_slot(HostId host, GlobalVmId vm) {
  const auto& hs = host_slots_[host];
  const auto it = std::lower_bound(hs.begin(), hs.end(), vm,
                                   [](const auto& e, GlobalVmId g) { return e.first < g; });
  if (it != hs.end() && it->first == vm) return it->second;
  // First touch: park an IdleGuest in a freshly created slot. Mid-run this
  // is the Host::add_vm between-segments path.
  const common::VmId slot = hosts_[host]->add_vm(vm_cfgs_[vm].vm,
                                                 std::make_unique<wl::IdleGuest>());
  record_slot(host, vm, slot);
  return slot;
}

void Cluster::install_manager(std::unique_ptr<ClusterManager> manager) {
  if (started_) throw std::logic_error("Cluster: install_manager after run started");
  manager_ = std::move(manager);
}

void Cluster::install_faults(std::unique_ptr<fault::FaultInjector> injector) {
  if (started_) throw std::logic_error("Cluster: install_faults after run started");
  injector_ = std::move(injector);
}

void Cluster::install_control(std::unique_ptr<ctl::ControlPlane> control) {
  if (started_) throw std::logic_error("Cluster: install_control after run started");
  control_ = std::move(control);
}

void Cluster::schedule_at(common::SimTime at, std::function<void(common::SimTime)> fn) {
  if (started_) throw std::logic_error("Cluster: schedule_at after run started");
  hooks_.emplace_back(at, std::move(fn));
}

void Cluster::install_periodic_tasks() {
  // SLA sampling rides the hosts' monitor-window cadence: by the time the
  // cluster event at t = k*window fires, every host has closed its own
  // window ending at t (host events run before the cluster event — see
  // run_until), so the "last window" readings are exactly window k.
  const common::SimTime window = cfg_.host.monitor_window;
  tasks_.push_back(std::make_unique<sim::PeriodicTask>(
      events_, window, window, [this](common::SimTime t) { sample_sla(t); }));

  if (manager_) {
    const common::SimTime p = manager_->period();
    tasks_.push_back(std::make_unique<sim::PeriodicTask>(
        events_, p, p, [this](common::SimTime t) { manager_->on_tick(t, *this); }));
  }
}

void Cluster::sample_sla(common::SimTime /*now*/) {
  // An unsaturated window never counts (SlaChecker::record_window), so the
  // sweep visits only the slots each host flagged saturated when it closed
  // the window ending now; a bulk-skipped host flags none. Per-VM counters
  // are independent, so visiting by host instead of by VM id changes
  // nothing.
  const common::SimTime window = cfg_.host.monitor_window;
  for (HostId h = 0; h < hosts_.size(); ++h) {
    const hv::Host& host = *hosts_[h];
    const std::vector<GlobalVmId>& owners = slot_vm_[h];
    for (const common::VmId s : host.saturated_slots()) {
      // The agent's slot and a slot added straight through host() have no
      // VM, and a slot off the VM's residence holds a parked IdleGuest or
      // a landing guest not yet resident.
      const GlobalVmId gid = s < owners.size() ? owners[s] : kNoSlotOwner;
      if (gid == kNoSlotOwner || home_[gid] != h) continue;
      // Paused VMs are accounted at attach time; orphaned VMs at restart
      // time; lost VMs stop accruing windows at the crash.
      if (vm_state_[gid] != VmState::kRunning) continue;
      if (engine_->detached(gid)) continue;  // pause accounted at attach time
      sla_.record_window(gid, window, host.monitor().vm_absolute_load_pct(s),
                         /*saturated=*/true);
    }
  }
}

void Cluster::on_migration_done(const MigrationRecord& record) {
  ++topology_version_;  // any outcome: a flight left the in-flight set
  switch (record.outcome) {
    case MigrationOutcome::kCompleted:
      home_[record.vm] = record.to;
      home_slot_[record.vm] = slot_on(record.to, record.vm);
      downtime_[record.vm] += record.downtime;
      ++migration_count_[record.vm];
      // The stop-and-copy pause is SLA-visible: a full window of length
      // `downtime` in which a (by definition demand-bearing) VM received
      // nothing at all.
      sla_.record_window(record.vm, record.downtime, 0.0, /*saturated=*/true);
      break;
    case MigrationOutcome::kAbortedPrecopy:
      // The guest never stopped running on the source: residence, downtime
      // and SLA are all untouched. Only the agents' per-round overhead
      // remains — bytes that really were pushed.
      break;
    case MigrationOutcome::kAbortedStopCopy:
      // Rolled back to the source: residence unchanged, but the truncated
      // pause really happened and is charged like a completed flight's.
      downtime_[record.vm] += record.downtime;
      if (record.downtime > common::SimTime{})
        sla_.record_window(record.vm, record.downtime, 0.0, /*saturated=*/true);
      break;
    case MigrationOutcome::kLostSourceCrash:
      // The guest evaporated with its source; the crash sweep that caused
      // this runs right after and handles the host side.
      set_state(record.vm, VmState::kLost);
      break;
  }
}

bool Cluster::migrate(GlobalVmId vm, HostId to) {
  if (vm >= vm_cfgs_.size()) throw std::invalid_argument("Cluster: bad VM id");
  if (to >= hosts_.size()) throw std::invalid_argument("Cluster: bad destination host");
  if (to == home_[vm] || engine_->in_flight(vm)) return false;
  if (vm_state_[vm] != VmState::kRunning || crashed_[to]) return false;
  if (fed_locked_[vm]) return false;  // a federation flight owns its placement

  const HostId from = home_[vm];
  set_powered(to, true);  // the destination must be receiving
  const ClusterVmConfig& cfg = vm_cfgs_[vm];
  MigrationEngine::Endpoint source{hosts_[from].get(), home_slot_[vm], agents_[from], 0};
  MigrationEngine::Endpoint dest{hosts_[to].get(), ensure_slot(to, vm), agents_[to], 0};
  engine_->begin(vm, from, to, source, dest, cfg.memory_mb, cfg.dirty_mb_per_s,
                 cfg.vm.credit, now_,
                 [this](const MigrationRecord& r) { on_migration_done(r); });
  ++topology_version_;
  return true;
}

bool Cluster::host_in_use(HostId host) const {
  // kInbound counts: a federation flight is landing a guest here, and VOVO
  // parking the destination mid-transfer would strand the attach.
  for (const auto& [gid, s] : host_slots_[host])
    if (home_[gid] == host && (vm_state_[gid] == VmState::kRunning ||
                               vm_state_[gid] == VmState::kInbound))
      return true;
  return engine_->endpoint_in_flight(host);
}

bool Cluster::set_powered(HostId host, bool on) {
  if (host >= hosts_.size()) throw std::invalid_argument("Cluster: bad host id");
  if (on && crashed_[host]) return false;
  if (!on && host_in_use(host)) return false;
  // Only an actual flip is a topology change: the manager's VOVO pass
  // idempotently re-asserts power states every tick, and those no-ops must
  // not defeat the unchanged-tick early-out.
  if (meter_.powered(host) != on) ++topology_version_;
  meter_.set_powered(host, on, hosts_[host]->energy().joules());
  return true;
}

bool Cluster::crash_host(HostId host, bool restart_orphans) {
  if (host >= hosts_.size()) throw std::invalid_argument("Cluster: bad host id");
  if (crashed_[host]) return false;
  std::size_t alive = 0;
  for (const auto c : crashed_)
    if (c == 0) ++alive;
  if (alive <= 1) return false;  // a zero-host cluster cannot be simulated
  // A cross-shard flight endpoint cannot crash until the flight resolves:
  // the federation link owns the guest's source slot (fed-locked, through
  // pre-copy) or its landing slot (kInbound), and neither side of this
  // cluster could tear it off without stranding the link's detach/attach.
  for (const auto& entry : host_slots_[host]) {
    const GlobalVmId gid = entry.first;
    if (home_[gid] != host) continue;
    if (vm_state_[gid] == VmState::kInbound ||
        (vm_state_[gid] == VmState::kRunning && fed_locked_[gid]))
      return false;
  }

  crashed_[host] = 1;
  // Migrations first, residents second: a destination crash then rolls its
  // guest back onto a source that is still intact, and a source crash
  // during pre-copy returns the guest to `host` in time for the resident
  // sweep below to orphan it like any other resident.
  engine_->abort_host_flights(host, now_);
  // Resident sweep over the host's slot holders, ascending VM id — only
  // VMs that actually touched this host can be resident on it.
  for (const auto& entry : host_slots_[host]) {
    const GlobalVmId gid = entry.first;
    if (home_[gid] != host || vm_state_[gid] != VmState::kRunning) continue;
    auto workload = drain(gid);
    if (restart_orphans) {
      held_wl_[gid] = std::move(workload);
      held_since_[gid] = now_;
      set_state(gid, VmState::kOrphaned);
    } else {
      set_state(gid, VmState::kLost);
    }
  }
  // Silence the host's hypervisor agent too — a crashed host burns no CPU.
  hv::Host& h = *hosts_[host];
  h.scheduler().set_cap(0, 0.0);
  h.scheduler().import_credit(0, common::SimTime{});
  ++topology_version_;
  const bool off = set_powered(host, false);
  (void)off;
  assert(off && "crashed host must be powerable-off after the sweep");
  return true;
}

bool Cluster::stop_vm(GlobalVmId vm) {
  if (vm >= vm_cfgs_.size()) throw std::invalid_argument("Cluster: bad VM id");
  if (vm_state_[vm] != VmState::kRunning || engine_->in_flight(vm)) return false;
  if (fed_locked_[vm]) return false;  // a federation flight owns its placement

  // Same drain as a crash sweep, but into the held store on purpose, and
  // with no SLA consequence: the monitor simply stops sampling a
  // non-running VM (sample_sla's filter).
  held_wl_[vm] = drain(vm);
  set_state(vm, VmState::kStopped);
  return true;
}

bool Cluster::start_vm(GlobalVmId vm, HostId to) {
  if (vm >= vm_cfgs_.size()) throw std::invalid_argument("Cluster: bad VM id");
  if (to >= hosts_.size()) throw std::invalid_argument("Cluster: bad host id");
  const VmState from = vm_state_[vm];
  if ((from != VmState::kStopped && from != VmState::kOrphaned) || crashed_[to]) return false;

  set_powered(to, true);  // resuming may revive a VOVO-parked host
  hv::Host& dst = *hosts_[to];
  const common::VmId s = ensure_slot(to, vm);
  (void)dst.swap_workload(s, std::move(held_wl_[vm]));
  const ClusterVmConfig& cfg = vm_cfgs_[vm];
  // Same re-attach contract as a migration's attach: purchased credit
  // compensated for the destination's current P-state — but with an empty
  // balance, because the drain (stop or crash) cleared whatever the slot
  // held.
  dst.scheduler().set_cap(s, core::compensated_credit(cfg.vm.credit, dst.cpu().ladder(),
                                                      dst.cpu().current_index()));
  dst.scheduler().import_credit(s, common::SimTime{});
  home_[vm] = to;
  home_slot_[vm] = s;
  set_state(vm, VmState::kRunning);
  if (from == VmState::kStopped) return true;
  // A crash recovery: the outage [crash, now] is one fully violated SLA
  // window. A stop was requested, not suffered, so it is never charged.
  const common::SimTime outage = now_ - held_since_[vm];
  if (outage > common::SimTime{})
    sla_.record_window(vm, outage, 0.0, /*saturated=*/true);
  recoveries_.push_back(VmRecovery{vm, held_since_[vm], now_});
  return true;
}

void Cluster::mark_lost(GlobalVmId vm) {
  if (vm >= vm_cfgs_.size()) throw std::invalid_argument("Cluster: bad VM id");
  if (vm_state_[vm] != VmState::kOrphaned) return;
  held_wl_[vm].reset();
  set_state(vm, VmState::kLost);
}

bool Cluster::abort_migration(GlobalVmId vm) {
  if (vm >= vm_cfgs_.size()) throw std::invalid_argument("Cluster: bad VM id");
  return engine_->cancel(vm, now_);
}

void Cluster::set_link_bandwidth(double mb_per_s) {
  engine_->set_link_bandwidth(mb_per_s);
}

std::size_t Cluster::crashed_count() const {
  std::size_t n = 0;
  for (const auto c : crashed_)
    if (c != 0) ++n;
  return n;
}

std::vector<GlobalVmId> Cluster::orphaned_vms() const {
  std::vector<GlobalVmId> vms;
  for (GlobalVmId gid = 0; gid < vm_state_.size(); ++gid)
    if (vm_state_[gid] == VmState::kOrphaned) vms.push_back(gid);
  return vms;
}

std::size_t Cluster::running_vm_count() const {
  std::size_t n = 0;
  for (const auto s : vm_state_)
    if (s == VmState::kRunning) ++n;
  return n;
}

std::size_t Cluster::lost_vm_count() const {
  std::size_t n = 0;
  for (const auto s : vm_state_)
    if (s == VmState::kLost) ++n;
  return n;
}

std::size_t Cluster::powered_on_count() const {
  std::size_t n = 0;
  for (std::size_t h = 0; h < hosts_.size(); ++h)
    if (meter_.powered(h)) ++n;
  return n;
}

double Cluster::energy_joules() const {
  double total = 0.0;
  for (std::size_t h = 0; h < hosts_.size(); ++h)
    total += meter_.host_joules(h, hosts_[h]->energy().joules());
  return total;
}

double Cluster::host_energy_joules(HostId host) const {
  if (host >= hosts_.size()) throw std::invalid_argument("Cluster: bad host id");
  return meter_.host_joules(host, hosts_[host]->energy().joules());
}

double Cluster::average_watts() const {
  return now_.sec() > 0.0 ? energy_joules() / now_.sec() : 0.0;
}

ClusterVmStats Cluster::vm_stats(GlobalVmId vm) const {
  if (vm >= vm_cfgs_.size()) throw std::invalid_argument("Cluster: bad VM id");
  ClusterVmStats stats;
  // Only hosts the VM actually touched hold any of its time; summed in
  // ascending host order so the totals are deterministic.
  for (const auto& [h, s] : vm_slots_[vm]) {
    stats.total_busy += hosts_[h]->vm(s).total_busy;
    stats.total_work += hosts_[h]->vm(s).total_work;
  }
  stats.downtime = downtime_[vm];
  stats.migrations = migration_count_[vm];
  return stats;
}

void Cluster::advance_hosts(common::SimTime target) {
  ++engine_stats_.segments;
  // Activity partition, on the coordinating thread: a host whose
  // quiescence certificate covers the whole segment is crossed in one
  // bulk skip (energy chunks, trace rows and periodic-event order all
  // byte-identical to running it — hv::Host::skip_idle_to); the rest
  // form the active list. The partition reads only per-host state, so
  // its outcome — and therefore every dispatched computation — is
  // independent of thread count.
  active_hosts_.clear();
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    if (hosts_[h]->next_activity_time() > target) {
      hosts_[h]->skip_idle_to(target);
      ++engine_stats_.bulk_skips;
    } else {
      active_hosts_.push_back(h);
    }
  }
  engine_stats_.dispatches += active_hosts_.size();
  // Each index touches exactly one host and hosts share no mutable state
  // between cluster events (the hv::Host contract), so the fork-join
  // computes the same host states in whatever thread interleaving — with
  // one executor it is a plain loop — and the barrier restores the
  // synchronized-fleet picture before any cluster event can look. Only
  // active hosts pay the dispatch.
  pool_.parallel_for(active_hosts_.size(), [this, target](std::size_t k) {
    hosts_[active_hosts_[k]]->run_until(target);
  });
}

void Cluster::run_until(common::SimTime until) {
  if (!started_) {
    install_periodic_tasks();
    // The fault schedule is armed once, here, onto the same queue the
    // periodic tasks use: a fault lands at a fixed (time, insertion-seq)
    // position, so any tie with a manager tick or SLA sample breaks the
    // same way in every engine — faults never perturb determinism. The
    // control plane arms after the injector (a command tying a crash
    // observes the post-crash world), and raw schedule_at hooks arm last,
    // in call order — the seam the control fuzz test uses to occupy the
    // exact queue positions ControlPlane::arm would.
    if (injector_) injector_->arm(*this, events_);
    if (control_) control_->arm(*this, events_);
    for (auto& [at, fn] : hooks_) events_.schedule(at, std::move(fn));
    hooks_.clear();
    started_ = true;
  }
  // Hosts reach each cluster-event instant first (firing their own timers
  // up to and including it); cluster events themselves always run serially
  // on this thread, in the queue's deterministic (time, insertion-sequence)
  // order, whatever ExecutionPolicy says.
  sim::run_lockstep(events_, now_, until,
                    [this](common::SimTime target) { advance_hosts(target); });
}

std::optional<std::string> migration_divergence(const MigrationRecord& a,
                                                const MigrationRecord& b) {
  return common::FieldDiff{}
      .field("vm", a.vm, b.vm)
      .field("from", a.from, b.from)
      .field("to", a.to, b.to)
      .field("start", a.start, b.start)
      .field("stop", a.stop, b.stop)
      .field("end", a.end, b.end)
      .field("rounds", a.rounds, b.rounds)
      .field("transferred_mb", a.transferred_mb, b.transferred_mb)
      .field("downtime", a.downtime, b.downtime)
      .field("outcome", a.outcome, b.outcome)
      .field("credit_exported", a.credit_exported, b.credit_exported)
      .field("credit_imported", a.credit_imported, b.credit_imported)
      .first();
}

std::optional<std::string> first_divergence(const Cluster& a, const Cluster& b) {
  using common::FieldDiff;
  if (auto d = FieldDiff{}
                   .field("host_count", a.host_count(), b.host_count())
                   .field("vm_count", a.vm_count(), b.vm_count())
                   .field("migrations", a.migrations().size(), b.migrations().size())
                   .field("recoveries", a.recoveries().size(), b.recoveries().size())
                   .first())
    return d;
  for (HostId h = 0; h < a.host_count(); ++h)
    if (auto d = hv::first_divergence(a.host(h), b.host(h)))
      return "host " + std::to_string(h) + ": " + *d;
  for (std::size_t i = 0; i < a.migrations().size(); ++i)
    if (auto d = migration_divergence(a.migrations()[i], b.migrations()[i]))
      return "migration " + std::to_string(i) + " " + *d;
  for (std::size_t i = 0; i < a.recoveries().size(); ++i) {
    const VmRecovery& ra = a.recoveries()[i];
    const VmRecovery& rb = b.recoveries()[i];
    if (auto d = FieldDiff{}
                     .field("vm", ra.vm, rb.vm)
                     .field("crashed_at", ra.crashed_at, rb.crashed_at)
                     .field("restarted_at", ra.restarted_at, rb.restarted_at)
                     .first())
      return "recovery " + std::to_string(i) + " " + *d;
  }
  for (GlobalVmId g = 0; g < a.vm_count(); ++g)
    if (auto d = FieldDiff{}
                     .field("state", a.vm_state(g), b.vm_state(g))
                     .field("residence", a.residence(g), b.residence(g))
                     .field("sla violation_time", a.sla().violation_time(g),
                            b.sla().violation_time(g))
                     .field("sla observed_time", a.sla().observed_time(g),
                            b.sla().observed_time(g))
                     .field("downtime", a.vm_stats(g).downtime, b.vm_stats(g).downtime)
                     .first())
      return "vm " + std::to_string(g) + " " + *d;
  for (HostId h = 0; h < a.host_count(); ++h)
    if (auto d = FieldDiff{}
                     .field("powered_on", a.powered_on(h), b.powered_on(h))
                     .field("crashed", a.crashed(h), b.crashed(h))
                     .first())
      return "host " + std::to_string(h) + " " + *d;
  if (auto d = FieldDiff{}.energy("energy_joules", a.energy_joules(), b.energy_joules()).first())
    return d;

  // A run driven by hand-compiled events has no control plane to compare;
  // the logs are compared whenever both sides published one.
  if (a.control() == nullptr || b.control() == nullptr) return std::nullopt;
  const std::string la = a.control()->result_log();
  const std::string lb = b.control()->result_log();
  if (la == lb) return std::nullopt;
  // Name the first differing line of the two logs.
  const auto at = static_cast<std::size_t>(
      std::mismatch(la.begin(), la.end(), lb.begin(), lb.end()).first - la.begin());
  const std::size_t nl = at == 0 ? std::string::npos : la.rfind('\n', at - 1);
  const std::size_t start = nl == std::string::npos ? 0 : nl + 1;
  const auto line = [start](const std::string& log) {
    return "'" + log.substr(start, log.find('\n', start) - start) + "'";
  };
  return "control result log line " +
         std::to_string(std::count(la.begin(), la.begin() + start, '\n')) + ": " + line(la) +
         " vs " + line(lb);
}

}  // namespace pas::cluster
