// Multi-host cluster: N simulated hosts advancing in lockstep on a shared
// virtual clock, with VMs that live-migrate between them at runtime.
//
// Synchronization model: hosts never interact *except* through cluster
// events (migration phases, manager ticks, SLA sampling), and every cluster
// event fires at an instant where all hosts have been advanced to exactly
// that time. The run loop therefore alternates
//
//     advance every host to the next cluster event -> fire the event
//
// which makes cross-host interaction conservative: within a segment each
// host simulates independently (its event-driven fast path may skip freely
// — the segment bound caps every skip), and anything that mutates another
// host's runnable set (a migration attach, overhead injected into a
// hypervisor agent) happens only at segment boundaries, followed by
// Host::notify_workload_changed. This is how the fast path "learns" about
// remote migrations without any cross-host speculation, and why a cluster
// run is byte-identical with the fast path on and off (the cluster fuzz
// test pins this for ~100 random scenarios).
//
// Because hosts share no mutable state within a segment (the contract
// hv::Host documents and enforces), the "advance every host" half of the
// loop is embarrassingly parallel: the cluster always steps its hosts on a
// common::ThreadPool of ClusterConfig::threads executors (one executor
// spawns no thread and runs a plain loop), barriers, and then fires the
// cluster events serially on the coordinating thread in the queue's
// (time, insertion-sequence) order. Each host's computation is a pure
// function of its own state and the segment bound, so every observable
// (traces, migration records, SLA counters, energy totals) is
// byte-identical at any thread count;
// tests/cluster/cluster_parallel_test.cpp sweeps threads ∈ {1, 2, 4,
// hardware} over the fuzz scenarios to pin this.
//
// Topology: slots are LAZY. A cluster VM owns a slot only on hosts it has
// actually touched — its home at add_vm, plus each migration/recovery
// destination, created on first use (slot 0 of every host is its
// hypervisor agent; guest slots follow in per-host arrival order). Exactly
// one of a VM's slots holds the guest's workload at any time — the others
// park an IdleGuest that is never runnable — so migration remains a
// workload-pointer + credit handoff and per-host dense VmIds stay stable
// once created. Lazy creation is what makes fleet scale feasible: at
// ~10k hosts / 100k VMs the old every-VM-on-every-host layout would mean
// a billion slots; lazily it is 100k plus one per migration. Slot lookups
// go through per-host and per-VM sorted maps (slot_on / host_slots), and
// topology_version() counts every residency/power/lifecycle change so
// planners can skip ticks where nothing moved.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/hypervisor_agent.hpp"
#include "cluster/migration.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "hypervisor/host.hpp"
#include "metrics/cluster_energy_meter.hpp"
#include "metrics/sla_checker.hpp"
#include "platform/host_class.hpp"
#include "sim/event_queue.hpp"
#include "sim/periodic.hpp"

namespace pas::fault {
class FaultInjector;
}  // namespace pas::fault

namespace pas::ctl {
class ControlPlane;
}  // namespace pas::ctl

namespace pas::cluster {

class ClusterManager;

/// Slot index of a cluster VM on every host: slot 0 is the hypervisor
/// agent, guests follow in creation order.
inline constexpr common::VmId kFirstGuestSlot = 1;

struct ClusterVmConfig {
  hv::VmConfig vm;  // name, purchased credit, priority
  /// Memory footprint — the consolidation planner's binding resource and
  /// the migration cost driver.
  double memory_mb = 512.0;
  /// Page-dirty rate while running (pre-copy convergence).
  double dirty_mb_per_s = 50.0;
};

/// Sparse-driver telemetry: of the host-segments each run_until cut, how
/// many were really dispatched (Host::run_until) vs bulk-skipped on a
/// quiescence certificate (Host::skip_idle_to). A consolidated fleet
/// should show active_fraction well below 1 — the engine-scaling claim
/// the cluster bench gates (docs/BENCHMARKS.md, engine block).
struct EngineStats {
  std::uint64_t segments = 0;    // advance_hosts calls
  std::uint64_t dispatches = 0;  // hosts stepped the honest way
  std::uint64_t bulk_skips = 0;  // hosts crossed in one skip
  [[nodiscard]] double active_fraction() const {
    const double total = static_cast<double>(dispatches + bulk_skips);
    return total > 0.0 ? static_cast<double>(dispatches) / total : 1.0;
  }
};

struct ClusterConfig {
  /// Template applied to every host: quantum, monitor window, trace
  /// stride, event_driven_fast_path, ... Its ladder and power model are
  /// ignored — each host takes those from its class.
  hv::HostConfig host;
  /// Total executors stepping host segments (common::ThreadPool): 1 = the
  /// calling thread alone, no worker threads; 0 = one executor per
  /// hardware thread; N > 1 = N-1 workers plus the coordinating thread.
  /// Purely a wall-clock knob: every thread count computes byte-identical
  /// results (see the file header).
  std::size_t threads = 1;
  /// The fleet, one entry per host: entry h defines host h's frequency
  /// ladder, power model, memory, planner capacity and NUMA layout. Must be
  /// non-empty. A uniform fleet is N copies of one class
  /// (platform::uniform_fleet_classes); HostClass{} is the paper's ladder
  /// and desktop_2008 power model with 4096 MB.
  std::vector<platform::HostClass> host_classes;
  MigrationConfig migration;
  /// Factory for each host's scheduler; defaults to the paper's credit
  /// scheduler when empty.
  std::function<std::unique_ptr<hv::Scheduler>()> make_scheduler;
  /// Credit of each host's hypervisor agent (Dom0's migration helper).
  common::Percent agent_credit = 10.0;
};

/// Lifecycle of a cluster VM under faults and external control. Healthy,
/// uncommanded clusters only ever see kRunning; kOrphaned/kLost exist
/// because hosts can crash, kStopped because operators can say stop,
/// kInbound/kDeparted because a federation can move a guest between
/// clusters. Every change after registration is one of
///
///     kRunning  -> kOrphaned | kLost | kStopped | kDeparted
///     kOrphaned -> kRunning | kLost
///     kStopped  -> kRunning
///     kInbound  -> kRunning
///
/// (kLost and kDeparted are terminal), and each one bumps
/// topology_version(), which the manager watches.
enum class VmState : std::uint8_t {
  kRunning = 0,
  /// Its host crashed but the VM is restartable: the cluster holds its
  /// workload off-host until the manager's recovery path start_vm()s it
  /// elsewhere (or gives up and marks it lost).
  kOrphaned,
  /// Gone for good — crashed without restart, recovery abandoned, or lost
  /// mid-migration (MigrationOutcome::kLostSourceCrash).
  kLost,
  /// Administratively stopped (ctl stop_vm): the workload is held off-host
  /// like an orphan's, but deliberately — no SLA accrues and no recovery
  /// path touches it; only an explicit start_vm resumes it.
  kStopped,
  /// Arriving from another cluster (federation WAN migration, destination
  /// side): registered and slot-parked here, but the guest still runs on
  /// the source shard — no SLA samples, no planning, until
  /// complete_inbound flips it to kRunning at the link's attach.
  kInbound,
  /// Handed off to another cluster (federation WAN migration, source side,
  /// from the link's detach on). Terminal within THIS cluster — the guest
  /// lives on in the destination shard; no SLA, no planning, no recovery
  /// here.
  kDeparted,
};

/// One successful crash-recovery restart (for recovery-latency stats).
struct VmRecovery {
  GlobalVmId vm = 0;
  common::SimTime crashed_at{};
  common::SimTime restarted_at{};

  [[nodiscard]] common::SimTime latency() const { return restarted_at - crashed_at; }
};

/// Aggregate crash-recovery latency (orphan → running again) over a run's
/// VmRecovery records — the chaos bench's SLO block.
struct RecoveryStats {
  std::size_t count = 0;
  /// Lower-median nearest-rank p50 of the latencies (even n picks
  /// sorted[(n-1)/2]); zero when count == 0. Never an interpolation: an
  /// interpolated median of an even-count sample is a latency that never
  /// happened, and SimTime truncation of it would not be byte-stable.
  /// Pinned in tests/cluster/recovery_stats_test.cpp.
  common::SimTime p50{};
  common::SimTime max{};
  double mean_s = 0.0;
};

[[nodiscard]] RecoveryStats summarize_recoveries(const std::vector<VmRecovery>& recoveries);

/// Per-VM totals aggregated across every host the VM touched.
struct ClusterVmStats {
  common::SimTime total_busy{};
  common::Work total_work{};
  common::SimTime downtime{};
  std::uint32_t migrations = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Adds a VM resident on `home`, creating its slot there (slots on other
  /// hosts appear lazily if it ever migrates). Must precede the first
  /// run_until.
  GlobalVmId add_vm(ClusterVmConfig config, std::unique_ptr<wl::Workload> workload,
                    HostId home);

  /// Installs the online reconfiguration manager (optional — a cluster
  /// without one is a static multi-host simulation). Must precede the
  /// first run_until.
  void install_manager(std::unique_ptr<ClusterManager> manager);

  /// Advances every host, in lockstep, to absolute time `until`.
  void run_until(common::SimTime until);

  /// Starts a live migration of `vm` to `to`. Returns false (and does
  /// nothing) if the VM is already in flight or `to` is its current home.
  /// Powers the destination on. Callable from manager ticks and between
  /// run_until calls.
  bool migrate(GlobalVmId vm, HostId to);

  /// Flips a host's power state (VOVO). Powering off excludes the host's
  /// energy from the cluster total; the host keeps following the clock so
  /// power-on is instantaneous. Refuses (returns false) to power off a host
  /// with running resident VMs or an in-flight migration endpoint, and to
  /// power a crashed host back on.
  bool set_powered(HostId host, bool on);

  // --- fault hooks (called by fault::FaultInjector events and tests) ---

  /// Fails host `host` at the current instant. Ordering within the crash:
  /// first every migration with the host as an endpoint aborts (so
  /// destination-crash rollbacks land on a still-live source), then every
  /// running resident is torn off the host — held as kOrphaned for the
  /// manager's recovery path when `restart_orphans`, destroyed as kLost
  /// otherwise — and finally the host powers off. Refuses (returns false)
  /// to crash an already-crashed host or the last live one; a crashed host
  /// keeps following the clock (idle, energy-gated off) so the fleet stays
  /// lockstep. Also refuses while the host is an endpoint of a federation
  /// flight — it holds a fed-locked running VM (the source, through
  /// pre-copy) or a kInbound one (the destination) — until the flight
  /// resolves.
  bool crash_host(HostId host, bool restart_orphans);

  /// Abandons an orphaned VM (recovery retries exhausted): destroys the
  /// held workload, state becomes kLost. SLA windows stop accruing at the
  /// crash — a lost VM has no further accounting.
  void mark_lost(GlobalVmId vm);

  // --- external-control hooks (called by ctl::ControlPlane events) ---

  /// Administratively stops a running VM: its workload is swapped off the
  /// host and held (like an orphan's, but on purpose), the slot's cap drops
  /// to zero and its balance clears. No SLA accrues while stopped — the
  /// stop was requested, not suffered. Returns false unless the VM is
  /// kRunning and not in flight.
  bool stop_vm(GlobalVmId vm);

  /// Resumes a held VM — kStopped or kOrphaned — on live host `to` (not
  /// necessarily where it was): the workload re-attaches at its purchased
  /// credit, compensated for the destination's P-state, with an empty
  /// balance (the drain cleared it). Powers `to` on. An orphan's restart
  /// (the manager's recovery path) also charges the outage [crash, now] as
  /// one fully violated SLA window and appends a VmRecovery; a stopped VM's
  /// pause was requested, so it gets neither. Returns false unless the VM
  /// is held and `to` is alive.
  bool start_vm(GlobalVmId vm, HostId to);

  /// Installs the external control plane (optional). Must precede the first
  /// run_until; the accepted task stream is armed onto the cluster event
  /// queue when the run starts, AFTER the fault injector's schedule — at
  /// equal times a fault outranks a command, so commands racing a crash
  /// observe the post-crash world deterministically.
  void install_control(std::unique_ptr<ctl::ControlPlane> control);
  [[nodiscard]] ctl::ControlPlane* control() { return control_.get(); }
  [[nodiscard]] const ctl::ControlPlane* control() const { return control_.get(); }

  /// Schedules an arbitrary callback at a fixed queue position: hooks are
  /// armed at run start, after the injector and control plane, in call
  /// order. This is the test seam the control fuzz harness uses to
  /// hand-compile a command stream into raw cluster events occupying the
  /// exact (time, insertion-seq) positions ControlPlane::arm would give
  /// them. Must precede the first run_until.
  void schedule_at(common::SimTime at, std::function<void(common::SimTime)> fn);

  /// Aborts the in-flight migration of `vm` (see MigrationEngine::cancel).
  /// Returns false if none is in flight.
  bool abort_migration(GlobalVmId vm);

  /// Changes the migration-link bandwidth now, re-planning in-flight
  /// pre-copies (see MigrationEngine::set_link_bandwidth).
  void set_link_bandwidth(double mb_per_s);
  [[nodiscard]] double link_bandwidth() const { return engine_->config().link_mb_per_s; }

  /// Installs the fault injector (optional). Must precede the first
  /// run_until; the injector's schedule is armed onto the cluster event
  /// queue when the run starts.
  void install_faults(std::unique_ptr<fault::FaultInjector> injector);

  // --- federation hooks (called by fed::Federation, at synced instants
  // --- between host segments — the same positions cluster events occupy) --

  /// Registers a VM arriving from another cluster mid-run: creates and
  /// parks its slot on `home` (an IdleGuest — the guest itself is still
  /// running on the source shard), registers SLA accounting, powers `home`
  /// on, state kInbound. The workload arrives through the federation
  /// link's attach; complete_inbound then flips it to kRunning. Returns
  /// the VM's id in THIS cluster. Throws on a bad or crashed host.
  GlobalVmId admit_inbound(ClusterVmConfig config, HostId home);

  /// Source-side handoff at the federation link's detach: the engine has
  /// already drained the slot (workload + credit are in transit), so this
  /// just releases the federation lock and marks the VM kDeparted.
  /// Throws std::logic_error unless the VM is kRunning.
  void mark_departed(GlobalVmId vm);

  /// Destination-side completion at the federation link's attach: the
  /// engine has re-attached workload + credit on the VM's slot; this flips
  /// kInbound -> kRunning, charges the WAN pause as a fully violated SLA
  /// window (same contract as an intra-cluster stop-and-copy), and counts
  /// the migration. Throws std::logic_error unless the VM is kInbound.
  void complete_inbound(GlobalVmId vm, common::SimTime downtime);

  /// Federation transfer lock, set when a cross-cluster flight starts:
  /// the shard's own manager and control paths cannot migrate or stop the
  /// VM, and its host cannot crash — the federation owns its placement.
  /// mark_departed is the only unlock.
  void set_federation_lock(GlobalVmId vm);
  [[nodiscard]] bool federation_locked(GlobalVmId vm) const {
    return fed_locked_.at(vm) != 0;
  }

  // --- accessors ---
  [[nodiscard]] common::SimTime now() const { return now_; }
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] std::size_t vm_count() const { return vm_cfgs_.size(); }
  [[nodiscard]] hv::Host& host(HostId id) { return *hosts_.at(id); }
  [[nodiscard]] const hv::Host& host(HostId id) const { return *hosts_.at(id); }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  /// The platform class host `id` was built from.
  [[nodiscard]] const platform::HostClass& host_class(HostId id) const {
    return cfg_.host_classes.at(id);
  }
  /// Physical memory of host `id` (its class's) — the planner's binding
  /// resource.
  [[nodiscard]] double host_memory_mb(HostId id) const {
    return cfg_.host_classes.at(id).memory_mb;
  }
  [[nodiscard]] const ClusterVmConfig& vm_config(GlobalVmId vm) const {
    return vm_cfgs_.at(vm);
  }
  /// The VM's slot index on `host`. Throws if the VM never touched that
  /// host — check has_slot() first when unsure.
  [[nodiscard]] common::VmId slot_on(HostId host, GlobalVmId vm) const;
  [[nodiscard]] bool has_slot(HostId host, GlobalVmId vm) const;
  /// The VM's slot on its current residence (cached — the hot lookup).
  [[nodiscard]] common::VmId home_slot(GlobalVmId vm) const { return home_slot_.at(vm); }
  /// Every (vm, slot) pair on `host`, ascending by VM id — the
  /// deterministic order per-host sweeps (crash, DVFS re-cap, recovery
  /// reservation sums) walk.
  [[nodiscard]] const std::vector<std::pair<GlobalVmId, common::VmId>>& host_slots(
      HostId host) const {
    return host_slots_.at(host);
  }
  /// Bumped on every topology change: migration begin/done (any outcome),
  /// VM registration, every lifecycle transition, crash, and actual power
  /// flips. A planner that saw version v and converged can skip work until
  /// the version moves.
  [[nodiscard]] std::uint64_t topology_version() const { return topology_version_; }
  /// Host currently responsible for the VM (the source until a migration's
  /// attach completes).
  [[nodiscard]] HostId residence(GlobalVmId vm) const { return home_.at(vm); }
  [[nodiscard]] bool migrating(GlobalVmId vm) const { return engine_->in_flight(vm); }
  [[nodiscard]] VmState vm_state(GlobalVmId vm) const { return vm_state_.at(vm); }
  [[nodiscard]] bool crashed(HostId host) const { return crashed_.at(host) != 0; }
  [[nodiscard]] std::size_t crashed_count() const;
  /// VMs currently awaiting recovery, in ascending id order (the
  /// deterministic order the manager's recovery pass walks).
  [[nodiscard]] std::vector<GlobalVmId> orphaned_vms() const;
  [[nodiscard]] std::size_t running_vm_count() const;
  [[nodiscard]] std::size_t lost_vm_count() const;
  [[nodiscard]] const std::vector<VmRecovery>& recoveries() const { return recoveries_; }
  [[nodiscard]] ClusterManager* manager() { return manager_.get(); }
  [[nodiscard]] const ClusterManager* manager() const { return manager_.get(); }
  [[nodiscard]] const fault::FaultInjector* faults() const { return injector_.get(); }
  [[nodiscard]] bool powered_on(HostId host) const { return meter_.powered(host); }
  [[nodiscard]] std::size_t powered_on_count() const;
  /// True if the host holds running residents or an in-flight migration
  /// endpoint.
  [[nodiscard]] bool host_in_use(HostId host) const;
  [[nodiscard]] const MigrationEngine& engine() const { return *engine_; }
  [[nodiscard]] HypervisorAgent& agent(HostId host) { return *agents_.at(host); }

  // --- cluster-wide metrics ---
  /// VOVO-gated total energy (powered-off intervals excluded).
  [[nodiscard]] double energy_joules() const;
  /// One host's VOVO-gated energy — the per-class energy split in the
  /// cluster bench sums these by class.
  [[nodiscard]] double host_energy_joules(HostId host) const;
  /// Mean cluster power over the run so far.
  [[nodiscard]] double average_watts() const;
  [[nodiscard]] ClusterVmStats vm_stats(GlobalVmId vm) const;
  [[nodiscard]] const std::vector<MigrationRecord>& migrations() const {
    return engine_->completed();
  }
  /// Cluster-wide SLA accounting: per-VM absolute delivery vs purchased
  /// credit sampled every monitor window on the VM's resident host, plus
  /// every migration's stop-and-copy pause charged as a fully violated
  /// window (a paused VM delivers nothing, whatever it bought).
  [[nodiscard]] const metrics::SlaChecker& sla() const { return sla_; }

  /// Executors stepping host segments: ClusterConfig::threads, with 0
  /// resolved to the hardware thread count.
  [[nodiscard]] std::size_t execution_threads() const { return pool_.thread_count(); }

  /// Sparse-driver dispatch counters for the run so far.
  [[nodiscard]] const EngineStats& engine_stats() const { return engine_stats_; }

 private:
  void install_periodic_tasks();
  /// Advances every host to `target`: bulk-skips the quiescent ones and
  /// fork-joins the rest on the pool.
  void advance_hosts(common::SimTime target);
  void sample_sla(common::SimTime now);
  void on_migration_done(const MigrationRecord& record);
  /// The one registration path (add_vm, admit_inbound): a slot on `home`
  /// holding `workload`, SLA accounting, per-VM books, initial `state`.
  GlobalVmId register_vm(ClusterVmConfig config, std::unique_ptr<wl::Workload> workload,
                         HostId home, VmState state);
  /// The only writer of vm_state_ after registration: asserts the change
  /// is a legal lifecycle edge and bumps the topology version.
  void set_state(GlobalVmId vm, VmState to);
  /// Takes a running VM's guest off its residence slot (stop, crash):
  /// parks an IdleGuest there, zeroes the cap and the balance, and returns
  /// the workload for the caller to hold or drop.
  std::unique_ptr<wl::Workload> drain(GlobalVmId vm);
  /// The VM's slot on `host`, creating it (an IdleGuest parked mid-run) on
  /// first touch.
  common::VmId ensure_slot(HostId host, GlobalVmId vm);
  void record_slot(HostId host, GlobalVmId vm, common::VmId slot);
  /// The VM's slot on `host`, or nullopt if it never touched that host:
  /// the one lookup behind has_slot, slot_on and ensure_slot.
  [[nodiscard]] std::optional<common::VmId> find_slot(HostId host, GlobalVmId vm) const;

  ClusterConfig cfg_;
  std::vector<std::unique_ptr<hv::Host>> hosts_;
  std::vector<HypervisorAgent*> agents_;  // slot 0 of each host, owned there
  common::ThreadPool pool_;

  std::vector<ClusterVmConfig> vm_cfgs_;
  std::vector<HostId> home_;
  std::vector<common::VmId> home_slot_;  // slot on home_, cached
  /// Per host: (vm, slot) sorted by vm id. Per VM: (host, slot) sorted by
  /// host id. Two views of the same lazy-slot relation.
  std::vector<std::vector<std::pair<GlobalVmId, common::VmId>>> host_slots_;
  std::vector<std::vector<std::pair<HostId, common::VmId>>> vm_slots_;
  /// Per host, indexed by slot: the VM that slot belongs to (the inverse
  /// of host_slots_), kNoSlotOwner for the agent's slot 0. Slots past the
  /// end were never recorded and have no VM either.
  static constexpr GlobalVmId kNoSlotOwner = static_cast<GlobalVmId>(-1);
  std::vector<std::vector<GlobalVmId>> slot_vm_;
  std::uint64_t topology_version_ = 0;
  std::vector<VmState> vm_state_;
  /// Workload of each kOrphaned or kStopped VM, held off-host until
  /// start_vm / mark_lost. held_since_ is the orphaning instant (drives the
  /// SLA outage charge at an orphan's restart); administrative stops don't
  /// read it.
  std::vector<std::unique_ptr<wl::Workload>> held_wl_;
  std::vector<common::SimTime> held_since_;
  std::vector<std::uint8_t> crashed_;
  /// Per VM: nonzero while a federation cross-cluster flight owns it.
  std::vector<std::uint8_t> fed_locked_;
  std::vector<VmRecovery> recoveries_;

  sim::EventQueue events_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks_;
  std::unique_ptr<MigrationEngine> engine_;
  std::unique_ptr<ClusterManager> manager_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<ctl::ControlPlane> control_;
  /// Pre-start schedule_at hooks, armed (in order) after injector+control.
  std::vector<std::pair<common::SimTime, std::function<void(common::SimTime)>>> hooks_;

  metrics::ClusterEnergyMeter meter_;
  metrics::SlaChecker sla_;
  std::vector<common::SimTime> downtime_;
  std::vector<std::uint32_t> migration_count_;

  common::SimTime now_{};
  bool started_ = false;

  EngineStats engine_stats_;
  /// Scratch for advance_hosts' activity partition (hosts that must really
  /// run this segment); reused so the per-segment pass is allocation-free.
  std::vector<std::size_t> active_hosts_;
};

/// Field-by-field comparison of two migration records: nullopt when equal,
/// else "<field>: <a> vs <b>". The building block both the cluster and the
/// federation comparators use for their ledgers.
[[nodiscard]] std::optional<std::string> migration_divergence(const MigrationRecord& a,
                                                              const MigrationRecord& b);

/// The cluster tier's identity comparator: nullopt when `a` and `b` ran
/// identically, else a message naming the first host, row, migration or VM
/// that differs. Every host goes through hv::first_divergence; on top come
/// every MigrationRecord field, recoveries, each VM's state, residence, SLA
/// counters and downtime, each host's power and crash state, cluster
/// energy, and — when both runs installed a control plane — the control
/// result log. This is the contract behind "fast ≡ slow ≡ parallel".
[[nodiscard]] std::optional<std::string> first_divergence(const Cluster& a, const Cluster& b);

}  // namespace pas::cluster
