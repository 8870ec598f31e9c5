// The virtualized host: CPU + hypervisor scheduler + VMs + measurement.
//
// This is the substrate that stands in for "Xen 4.1.2 on a DELL Optiplex
// 755". Simulated time advances in scheduling quanta (default 10 ms, Xen's
// tick). Within each quantum the scheduler picks a VM, the VM performs work
// at the current frequency, and the time is charged against its credit.
// Periodic machinery — credit accounting, monitor windows, governor
// sampling, controller ticks, trace sampling — runs off a fixed set of at
// most five timers the host owns, interleaved with the quantum loop.
//
// Fast path: when a quantum ends with the CPU idle and no VM picked (no
// runnable VM, or every runnable VM over its cap), the host jumps simulated
// time in one step to the next instant anything can change — the earliest
// host timer, `until`, or the first quantum boundary at or after a
// workload's self-transition hint (see Workload::next_transition_time) —
// instead of idling quantum by quantum. On an active host a quantum costs
// O(VMs that ran), not O(resident VMs): the runnable set is maintained
// incrementally — only slots that were consumed or notified, plus slots
// whose transition hint expired, are re-polled — and a still-runnable VM
// receives its arrivals lazily (the advance_to coarsening contract,
// workload.hpp): just before it is consumed, and at the end of run_until,
// which leaves every runnable workload advanced to the start of the last
// quantum, as delivery at every quantum would have.
//
// Rotation run: on a saturated host, after a quantum that one pick filled
// with a VM that could fill another (Workload::fills), the host hands out
// successive full quanta as round-robin turns when the scheduler declares
// pick() a plain rotation over the runnable set (Scheduler::rotation_start)
// — turn i goes to the i-th runnable VM from the one in turn — with no
// pick, re-poll or timer check per quantum. Per
// turn stays exact and in the reference order: catch_up, consume, charge
// and cursor advance (Scheduler::take_turn), the monitor record, the VM's
// busy and work totals. Batched at the run's end: every runnable VM's
// window_wanting, the k equal busy energy chunks (one
// EnergyMeter::record_chunks, bit-exact), quantum_start_ and the re-poll
// list. Accounting fires in place at its due instants; the run stops
// before any other timer, `until`, a slice a timer would cut short, the
// first poll at or past hint_floor_ (an idle VM may wake there), a VM in
// turn that is not eligible (Scheduler::rotation_eligible) or whose
// workload cannot fill the budget (Workload::fills), and after a turn that
// left its VM unrunnable.
//
// All three optimizations reproduce the slow-stepped loop exactly (same
// event order, same traces); HostConfig::event_driven_fast_path turns them
// off for A/B reference runs.
//
// Determinism: given the same configuration and workload seeds, a run is
// bit-for-bit reproducible.
//
// No-shared-state contract (what lets the cluster's parallel driver step
// hosts on worker threads): a Host owns every piece of state it touches
// while advancing — scheduler, CPU/power models, workloads, timers,
// meters — and run_until reads and writes nothing outside the object.
// Conversely, NOTHING outside may mutate the host between the entry and
// exit of run_until: swap_workload, notify_workload_changed and agent
// work injection are segment-boundary operations, legal only while no
// run_until is in flight. The contract is enforced, not just documented —
// those mutators throw std::logic_error when called mid-advance (see
// docs/ARCHITECTURE.md, "parallel ≡ serial").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "cpu/cpu_model.hpp"
#include "cpu/cpufreq.hpp"
#include "cpu/power_model.hpp"
#include "governor/governor.hpp"
#include "hypervisor/controller.hpp"
#include "hypervisor/scheduler.hpp"
#include "hypervisor/vm.hpp"
#include "metrics/energy_meter.hpp"
#include "metrics/load_monitor.hpp"
#include "metrics/trace_recorder.hpp"

namespace pas::hv {

struct HostConfig {
  cpu::FrequencyLadder ladder = cpu::FrequencyLadder::paper_default();
  /// Scheduling quantum (Xen credit runs 10 ms ticks).
  common::SimTime quantum = common::msec(10);
  /// Load-monitor window and smoothing depth (paper footnote 5: average of
  /// three successive utilizations).
  common::SimTime monitor_window = common::seconds(1);
  std::size_t monitor_depth = 3;
  /// Stride between trace samples; 0 disables tracing.
  common::SimTime trace_stride = common::seconds(10);
  cpu::PowerModel power = cpu::PowerModel::desktop_2008();
  common::SimTime cpufreq_transition_latency = common::usec(50);
  /// Optional true-speed override installed into the CPU model (see
  /// cpu::CpuModel::set_speed_override; used by calibration's turbo
  /// machines).
  cpu::CpuModel::SpeedFn speed_override;
  /// Event-driven fast path (see file header). Produces identical
  /// simulation results; disable only for reference slow-stepped runs
  /// (regression tests, perf baselines).
  bool event_driven_fast_path = true;
};

class Host {
 public:
  Host(HostConfig config, std::unique_ptr<Scheduler> scheduler);
  ~Host();

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  /// Adds a VM and returns its dense id. Callable before the first
  /// run_until AND between segments of a running host (a cluster creating
  /// a migration/recovery slot lazily): the mid-run path grows the
  /// runnable-tracking arrays, widens the trace recorder (historical rows
  /// pad with zeros) and re-seats the controller view. Like every
  /// cross-host mutation, it must wait for the segment boundary — calling
  /// it while the host is advancing throws.
  common::VmId add_vm(VmConfig config, std::unique_ptr<wl::Workload> workload);

  /// Installs a DVFS governor (optional — PAS runs without one).
  void set_governor(std::unique_ptr<gov::Governor> governor);

  /// Installs a credit/DVFS controller (the PAS hook; optional).
  void set_controller(std::unique_ptr<Controller> controller);

  /// Advances simulation to absolute time `until`.
  void run_until(common::SimTime until);

  /// Earliest future instant at which this host can perform observable
  /// work, or now() when that cannot be proven. A return beyond now()
  /// is a *quiescence certificate*: the host is provably inert — no
  /// runnable VM, no expired transition hint, no governor/controller,
  /// scheduler credits at their refill fixed point, monitor reading
  /// all-zero — until the earliest workload self-transition hint. The
  /// sparse cluster driver (Cluster::advance_hosts) dispatches a host
  /// only when this falls at or before the segment target and bulk-skips
  /// it otherwise. The certificate is cached and invalidated by every
  /// mutation hatch (run_until, add_vm, notify_workload_changed, the
  /// non-const accessors), so calling this per segment is O(1) for an
  /// undisturbed idle host.
  [[nodiscard]] common::SimTime next_activity_time();

  /// Bulk-advances a quiescent host to `target`, byte-identical to
  /// run_until(target): the exact energy bits of the reference loop's idle
  /// chunks (one per merged periodic-fire instant, each run of equal-width
  /// chunks between two sparse fires summed in one step), the exact trace
  /// rows (bulk zero-fill at the trace stride), the exact (due, seq) of
  /// every timer. The cost is O(sparse fires + trace rows) — independent
  /// of how many accounting fires the span crosses. Precondition:
  /// next_activity_time() >= target; falls back to run_until(target)
  /// when the certificate does not cover the span, so misuse costs time,
  /// never correctness.
  void skip_idle_to(common::SimTime target);

  /// Replaces a VM slot's workload and returns the previous one — the
  /// mechanism behind live migration: the cluster layer detaches a guest
  /// from its source slot (parking an idle placeholder there) and attaches
  /// it into a slot on the destination host. Callable between run_until
  /// calls only (hosts in a cluster are always synchronized to a common
  /// instant at that point); calling it mid-advance throws std::logic_error
  /// — the no-shared-state contract. The fast path's cached runnable state for the
  /// slot is invalidated, so the next quantum re-polls the new workload
  /// exactly as the slow-stepped loop would.
  std::unique_ptr<wl::Workload> swap_workload(common::VmId id,
                                              std::unique_ptr<wl::Workload> replacement);

  /// Declares that a workload's state was changed externally (work injected
  /// into a hypervisor agent, a profile rewritten): the fast path drops its
  /// cached runnable flag and transition hint for the slot and re-polls at
  /// the next quantum. No-op in reference mode, which re-polls everything
  /// anyway.
  void notify_workload_changed(common::VmId id);

  // --- accessors ---
  [[nodiscard]] common::SimTime now() const { return now_; }
  [[nodiscard]] std::size_t vm_count() const { return vms_.size(); }
  [[nodiscard]] const Vm& vm(common::VmId id) const { return vms_.at(id); }
  // The non-const accessors are mutation hatches (migration credit moves,
  // the cluster manager's DVFS requests, calibration overrides), so each
  // drops the cached quiescence certificate — see next_activity_time().
  [[nodiscard]] wl::Workload& workload(common::VmId id) {
    activity_dirty_ = true;
    return *vms_.at(id).workload;
  }
  [[nodiscard]] Scheduler& scheduler() {
    activity_dirty_ = true;
    return *scheduler_;
  }
  [[nodiscard]] const Scheduler& scheduler() const { return *scheduler_; }
  [[nodiscard]] cpu::Cpufreq& cpufreq() {
    activity_dirty_ = true;
    return cpufreq_;
  }
  [[nodiscard]] const cpu::Cpufreq& cpufreq() const { return cpufreq_; }
  [[nodiscard]] const cpu::CpuModel& cpu() const { return cpu_; }
  [[nodiscard]] cpu::CpuModel& cpu_mutable() {
    activity_dirty_ = true;
    return cpu_;
  }
  [[nodiscard]] const metrics::LoadMonitor& monitor() const { return monitor_; }
  [[nodiscard]] const metrics::EnergyMeter& energy() const { return energy_; }
  [[nodiscard]] const metrics::TraceRecorder& trace() const { return *trace_; }
  [[nodiscard]] gov::Governor* governor() { return governor_.get(); }
  [[nodiscard]] Controller* controller() { return controller_.get(); }
  /// Total CPU-idle time so far.
  [[nodiscard]] common::SimTime idle_time() const { return idle_total_; }
  /// Fraction of the current monitor window each VM spent wanting the CPU
  /// (running or runnable); ~1 means saturated. Index = VmId.
  [[nodiscard]] double window_wanting_fraction(common::VmId id) const;
  /// Quanta handed out by rotation runs so far (see the file header); 0
  /// in reference mode. Deterministic: a function of the configuration,
  /// the workloads and the run_until/skip_idle_to calls.
  [[nodiscard]] std::uint64_t rotation_quanta() const { return rotation_quanta_; }
  /// The slots flagged saturated at the close of the last monitor window,
  /// ascending — all an SLA sweep has to visit (an unsaturated window
  /// never counts).
  [[nodiscard]] const std::vector<common::VmId>& saturated_slots() const {
    return saturated_slots_;
  }

 private:
  /// How the last quantum's scheduling loop ended; drives the fast path.
  /// A quantum whose tail found no pickable VM leaves the host in a state
  /// that cannot change until the next event or workload transition — the
  /// license to skip time.
  enum class IdleTail {
    kNone,        // the slice was filled with picked work
    kNoRunnable,  // the loop stopped because nothing was runnable
    kOverCap,     // runnable VMs remained but every one was over its cap
  };

  /// The periodic machinery, dispatched by a switch in fire_timers.
  enum class TimerKind : std::uint8_t { kAccounting, kMonitor, kGovernor, kController, kTrace };
  struct Timer {
    common::SimTime due;
    common::SimTime period;
    std::uint64_t seq;  // same-due timers fire in ascending seq
    TimerKind kind;
  };

  void install_timers();
  void arm_timer(TimerKind kind, common::SimTime period);
  /// Caches the earliest due over timers_ in next_due_.
  void update_next_due();
  /// The timer that fires next: earliest due, then lowest seq.
  [[nodiscard]] Timer& earliest_timer();
  /// Fires every timer due at or before `until` in (due, seq) order. A
  /// firing timer re-arms one period on and takes the newest seq before
  /// its handler runs, so it loses every tie until the others have fired.
  void fire_timers(common::SimTime until);
  void run_quantum(common::SimTime slice_end);
  /// Takes a rotation run from now_ toward `until` (see the file header)
  /// and returns the number of turns taken, 0 when the first turn is not
  /// provably pick()'s choice.
  std::uint64_t run_rotation(common::SimTime until);
  /// Re-polls the slots on `ran_list_` and, once `hint_floor_` has been
  /// reached, every slot whose transition hint expired; `active_ids_`
  /// follows each runnable flip. Still-runnable slots are left behind:
  /// catch_up delivers their arrivals when they are consumed.
  void refresh_workloads();
  /// advance_to(now_), runnable() and the hint for one slot; a runnable
  /// flip moves the slot into or out of `active_ids_`.
  void poll_workload(common::VmId id);
  /// Queues a consumed or externally changed slot for the next refresh.
  void note_ran(common::VmId id);
  /// Advances a slot's workload to `t` unless it is already there.
  void catch_up(common::VmId id, common::SimTime t);
  /// Earliest instant any workload may change runnable-state on its own.
  [[nodiscard]] common::SimTime earliest_transition_hint() const;
  /// First quantum boundary on the grid anchored at now_ at or after
  /// `hint` — where the slow-stepped loop would next poll the workloads.
  [[nodiscard]] common::SimTime next_poll_boundary(common::SimTime hint) const;
  /// Jumps `now_` across provably idle quanta (fast path).
  void skip_idle_time(common::SimTime until);
  /// Recomputes the quiescence certificate (see next_activity_time()).
  [[nodiscard]] common::SimTime compute_next_activity() const;
  void close_monitor_window(common::SimTime now);
  void governor_tick(common::SimTime now);
  void controller_tick(common::SimTime now);
  void trace_tick(common::SimTime now);

  HostConfig cfg_;
  cpu::CpuModel cpu_;
  cpu::Cpufreq cpufreq_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<gov::Governor> governor_;
  std::unique_ptr<Controller> controller_;

  std::vector<Vm> vms_;
  std::vector<common::VmId> vm_ids_;
  std::vector<common::Percent> initial_credits_;
  // Slots flagged saturated at the last monitor-window close, ascending.
  std::vector<common::VmId> saturated_slots_;
  HostView view_;

  metrics::LoadMonitor monitor_;
  metrics::EnergyMeter energy_;
  std::unique_ptr<metrics::TraceRecorder> trace_;

  // Created in this order at the first run_until (accounting, monitor,
  // governor, controller, trace), which also hands out their first seqs:
  // same-instant timers fire in that order at first and newest-fired-last
  // from then on.
  std::vector<Timer> timers_;
  std::uint64_t timer_seq_ = 0;  // the last seq handed out
  common::SimTime next_due_ = wl::kNoTransition;  // earliest timers_ due
  bool started_ = false;

  // Cached quiescence certificate (next_activity_time). Dropped by every
  // mutation hatch; only read/written between segments on the
  // coordinating thread, so a plain bool is race-free.
  common::SimTime activity_cache_{};
  bool activity_dirty_ = true;

  // Scratch for skip_idle_to's trace rows (allocation-free after the
  // first skip).
  std::vector<common::SimTime> skip_trace_times_;
  // True while run_until is in flight; guards the no-shared-state contract
  // (external mutators throw instead of racing a possibly-parallel segment).
  // Atomic because the violation it exists to catch IS a cross-thread race —
  // a plain bool would make the detection itself undefined. Relaxed order
  // suffices: correct runs only touch it from one thread at a time (the
  // pool barrier sequences segments), and for a violating run any
  // detection is best-effort by nature.
  std::atomic<bool> advancing_{false};
  common::SimTime now_{};
  common::SimTime idle_total_{};

  // Governor bookkeeping: cumulative busy at the previous governor sample.
  common::SimTime gov_last_sample_time_{};
  common::SimTime gov_last_cum_busy_{};

  // --- incremental runnable tracking (fast path) ---
  // Cached runnable() per VM, the workload's next self-transition hint, a
  // "consumed or notified since the last refresh" flag forcing a re-poll,
  // and the instant the workload was last advanced to.
  std::vector<std::uint8_t> wl_runnable_;
  std::vector<common::SimTime> wl_hint_;
  std::vector<std::uint8_t> wl_ran_;
  std::vector<common::SimTime> wl_advanced_;
  std::vector<common::VmId> active_ids_;  // runnable VMs, ascending id
  // The slots whose wl_ran_ flag is set, each once: what the next refresh
  // re-polls.
  std::vector<common::VmId> ran_list_;
  // A lower bound on every wl_hint_: while it lies ahead of now_ no hint
  // can have expired, so a refresh never needs to look past ran_list_.
  common::SimTime hint_floor_{};
  // Where the last quantum's refresh ran. The slow-stepped loop advanced
  // every runnable workload there; run_until's closing catch-up brings the
  // lazily skipped ones to the same instant.
  common::SimTime quantum_start_{};

  // Set by run_quantum: how its scheduling loop ended, and — for an
  // over-cap tail — the exact runnable set the scheduler rejected (the
  // skip is only valid while that set is unchanged).
  IdleTail idle_tail_ = IdleTail::kNone;
  std::vector<common::VmId> idle_break_set_;
  // Set by run_quantum and kept by a rotation run: one pick filled the
  // whole slice and its VM could fill the next (Workload::fills). Gates
  // the next rotation attempt, which rarely pays on a host whose quanta
  // are split or idle, or whose workloads never fill.
  bool try_rotation_ = false;
  std::uint64_t rotation_quanta_ = 0;

  // Scratch for the quantum loop (active minus blocked-this-slice).
  std::vector<common::VmId> runnable_scratch_;

  // Scratch for trace_tick (reused; keeps sampling allocation-free).
  std::vector<double> trace_scratch_global_, trace_scratch_absolute_,
      trace_scratch_credit_, trace_scratch_saturated_;
};

/// The host tier's identity comparator: nullopt when `a` and `b` ran
/// identically, else a message naming the first field (trace row, VM slot)
/// that differs. Covers every trace column, idle time, frequency
/// transitions, each slot's busy time, work and window_wanting, and energy
/// (the one tolerance: common::kEnergyRelTolerance). This is the contract
/// behind "fast path ≡ slow-stepped loop".
[[nodiscard]] std::optional<std::string> first_divergence(const Host& a, const Host& b);

}  // namespace pas::hv
