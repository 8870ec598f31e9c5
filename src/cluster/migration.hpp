// Live-migration model: pre-copy with dirty-page rounds, a stop-and-copy
// downtime window, and hypervisor CPU overhead on both ends.
//
// The cost model is the classic pre-copy iteration (Clark et al., the
// algorithm behind Xen's xl migrate, and the structure mirrored by the
// related migration-framework repo): round 0 pushes the VM's whole memory
// over the migration link; while a round of size S transfers (taking
// S / bandwidth seconds), the still-running guest redirties pages at its
// dirty rate, and the next round pushes exactly that redirtied set. Rounds
// shrink geometrically while dirty_rate < bandwidth; once the residual set
// falls under the stop-and-copy threshold (or the round budget runs out)
// the VM is paused, the residue is pushed, and execution resumes on the
// destination. The pause — downtime = residue / bandwidth + switch latency
// — is the SLA-visible cost; the per-round CPU charges on both hypervisor
// agents are the energy-visible cost.
//
// Failure semantics (the fault-injection subsystem's contract, see
// docs/ARCHITECTURE.md "Faults & recovery"):
//
//   * cancel() mid-pre-copy abandons the flight where it stands: rounds
//     already issued keep their injected overhead (the bytes were pushed),
//     unfired phase events are cancelled, and the guest — which never
//     stopped running on the source — is untouched. No credit ever left
//     the source, so the record carries exported == imported == 0.
//   * cancel() during the stop-and-copy pause rolls the guest back: the
//     held workload re-attaches to the SOURCE slot, the exported balance
//     is imported back there (exported == imported, the same conservation
//     contract as a completed flight), and the cap is re-established
//     compensated for the source's current P-state. The pause actually
//     experienced (cancel time − stop) is the record's downtime.
//   * A source-host crash during the pause is the one unrecoverable case:
//     the guest state exists only in transit, so the workload is destroyed
//     and the record marks the loss (imported == 0 — the crash, not the
//     engine, broke conservation, and the record says so).
//
//   * set_link_bandwidth() mid-flight re-plans every in-flight migration's
//     REMAINING rounds at the new rate: the round currently on the wire
//     completes on its committed schedule (its bytes are already windowed),
//     and the pre-copy loop is re-run from the next redirtied set with the
//     remaining round budget. A flight already in its pause is not
//     re-planned — the residue push has started.
//
// Everything here is a pure function of the inputs — fault events included,
// since those arrive as ordinary (deterministically ordered) cluster events
// — so a migration's event times are identical across fast-path, reference
// and parallel runs: the property the cluster differential tests pin down.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/hypervisor_agent.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "hypervisor/host.hpp"
#include "sim/event_queue.hpp"

namespace pas::cluster {

/// Index of a host within the cluster.
using HostId = std::uint32_t;
/// Cluster-wide VM index (its slot on every host is kFirstGuestSlot + id).
using GlobalVmId = std::uint32_t;

/// Pre-copy round budget; a guest dirtying faster than the link never
/// converges, so the residue is pushed after this many rounds regardless.
inline constexpr std::size_t kMaxPrecopyRounds = 8;

struct MigrationConfig {
  /// Effective migration-link bandwidth (a dedicated 10 GbE does ~1 GB/s).
  double link_mb_per_s = 1000.0;
  /// Residual dirty set small enough to stop-and-copy.
  double stop_copy_threshold_mb = 32.0;
  /// Fixed switch-over cost on top of the residual transfer (ARP updates,
  /// device re-attach).
  common::SimTime switch_latency = common::msec(20);
  /// Hypervisor CPU work per MB pushed/received, in max-frequency
  /// microseconds — charged to the source/destination agents per round.
  double source_cpu_us_per_mb = 100.0;
  double dest_cpu_us_per_mb = 60.0;
};

struct MigrationPlan {
  /// Pre-copy rounds; round 0 is the full memory image.
  std::vector<double> round_mb;
  /// Residual set pushed during the pause.
  double stop_copy_mb = 0.0;
  common::SimTime precopy_duration{};
  /// Stop-and-copy pause: residue transfer + switch latency.
  common::SimTime downtime{};

  [[nodiscard]] double transferred_mb() const {
    double mb = stop_copy_mb;
    for (const double r : round_mb) mb += r;
    return mb;
  }
};

/// Computes the round structure for a guest of `memory_mb` dirtying at
/// `dirty_mb_per_s`. Pure; throws std::invalid_argument on non-positive
/// memory or bandwidth.
[[nodiscard]] MigrationPlan plan_migration(double memory_mb, double dirty_mb_per_s,
                                           const MigrationConfig& config);

/// How a migration ended. Everything except kCompleted is an abort path;
/// only kLostSourceCrash loses the guest.
enum class MigrationOutcome : std::uint8_t {
  kCompleted = 0,
  /// Cancelled before the stop-and-copy pause: the guest never stopped
  /// running on the source. No credit moved (exported == imported == 0).
  kAbortedPrecopy,
  /// Cancelled during the pause: the guest rolled back to the source with
  /// its credit balance re-imported there (exported == imported).
  kAbortedStopCopy,
  /// The source host crashed during the pause: the guest state existed
  /// only in transit and is gone (imported == 0).
  kLostSourceCrash,
};

struct MigrationRecord {
  GlobalVmId vm = 0;
  HostId from = 0;
  HostId to = 0;
  common::SimTime start{};      // pre-copy begins
  common::SimTime stop{};       // stop-and-copy pause begins (detach)
  common::SimTime end{};        // execution resumes (destination, or source on rollback)
  std::size_t rounds = 0;       // pre-copy rounds actually issued
  double transferred_mb = 0.0;  // bytes actually pushed (issued rounds + residue)
  /// Pause actually experienced: the planned pause when completed, the
  /// truncated pause (end − stop) on a stop-and-copy abort, zero on a
  /// pre-copy abort.
  common::SimTime downtime{};
  MigrationOutcome outcome = MigrationOutcome::kCompleted;
  /// Credit balance carried across: export on the source == import on the
  /// destination — or back into the source on a rollback (the conservation
  /// contract). Only a source crash leaves imported == 0 < exported.
  common::SimTime credit_exported{};
  common::SimTime credit_imported{};

  [[nodiscard]] bool aborted() const { return outcome != MigrationOutcome::kCompleted; }
};

/// Drives migrations over the cluster's event queue: injects per-round
/// overhead into both hypervisor agents, detaches the guest at the pause,
/// and re-attaches it (workload object + credit balance + cap) on the
/// destination. One engine per cluster; multiple migrations of *different*
/// VMs may be in flight at once.
class MigrationEngine {
 public:
  /// The per-host handles a migration needs on each end.
  struct Endpoint {
    hv::Host* host = nullptr;
    common::VmId vm_slot = 0;
    HypervisorAgent* agent = nullptr;
    common::VmId agent_slot = 0;
  };

  using CompletionFn = std::function<void(const MigrationRecord&)>;

  MigrationEngine(MigrationConfig config, sim::EventQueue& events);

  /// Starts a live migration at `now`. Schedules every phase event up
  /// front; `done` fires at attach time, after the guest is runnable on the
  /// destination — or at cancel time with the record's abort outcome.
  /// Returns the plan by value (the engine's own copy dies with the flight
  /// at attach time). Precondition: !in_flight(vm) — violating it throws
  /// std::logic_error naming the VM.
  ///
  /// `on_detach` (optional) fires right after the stop-and-copy detach
  /// drained the source slot — the federation tier uses it to mark the
  /// guest as departed from the source shard while the residue is on the
  /// wire. `extra_switch_latency` (optional) is a per-flight addition to
  /// the config's switch latency — the class-aware switch-over penalty of
  /// a cross-class link move; it survives bandwidth re-plans.
  MigrationPlan begin(GlobalVmId vm, HostId from, HostId to, Endpoint source,
                      Endpoint dest, double memory_mb, double dirty_mb_per_s,
                      common::Percent credit_pct, common::SimTime now, CompletionFn done,
                      CompletionFn on_detach = {},
                      common::SimTime extra_switch_latency = {});

  /// Aborts the in-flight migration of `vm` at `now` (see the file header
  /// for the two abort paths). Returns false if the VM is not in flight.
  /// The completion callback fires with the aborted record.
  bool cancel(GlobalVmId vm, common::SimTime now);

  /// Aborts every flight with `host` as an endpoint — the crash path. A
  /// destination crash rolls the guest back to the source; a source crash
  /// during the pause loses the guest (kLostSourceCrash). A source crash
  /// during pre-copy aborts like cancel(): the guest is still resident on
  /// the (now dead) source, and the caller's crash sweep decides its fate.
  /// Returns the number of flights aborted.
  std::size_t abort_host_flights(HostId host, common::SimTime now);

  /// Changes the migration-link bandwidth and re-plans the remaining
  /// rounds of every in-flight pre-copy at the new rate (the round on the
  /// wire completes on its committed schedule; a flight in its pause is
  /// untouched). Throws std::invalid_argument on a non-positive rate.
  void set_link_bandwidth(double mb_per_s);

  [[nodiscard]] bool in_flight(GlobalVmId vm) const;
  /// True from the stop-and-copy pause until attach (the guest exists on
  /// neither host's schedule).
  [[nodiscard]] bool detached(GlobalVmId vm) const;
  /// True if any in-flight migration has `host` as source or destination.
  [[nodiscard]] bool endpoint_in_flight(HostId host) const;
  [[nodiscard]] std::size_t active_count() const { return flights_.size(); }
  /// In-flight VM ids in flight-start order (the deterministic "oldest
  /// first" order fault injection aborts in).
  [[nodiscard]] std::vector<GlobalVmId> in_flight_vms() const;
  [[nodiscard]] const std::vector<MigrationRecord>& completed() const { return completed_; }
  [[nodiscard]] const MigrationConfig& config() const { return cfg_; }

 private:
  struct Flight {
    MigrationRecord record;
    MigrationPlan plan;
    Endpoint source;
    Endpoint dest;
    common::Percent credit_pct = 0.0;
    double memory_mb = 0.0;
    double dirty_mb_per_s = 0.0;
    std::unique_ptr<wl::Workload> held;  // guest state during the pause
    CompletionFn done;
    CompletionFn on_detach;
    /// Per-flight addition to cfg_.switch_latency (class-aware switch-over
    /// penalty); plan_flight folds it into plan.downtime on every plan.
    common::SimTime switch_extra{};
    // Re-planning/cancel bookkeeping: per-round scheduled start instants,
    // the matching event ids, and how many round events have fired.
    std::vector<common::SimTime> round_starts;
    std::vector<sim::EventId> round_events;
    std::size_t rounds_fired = 0;
    sim::EventId stop_event = sim::kInvalidEvent;
    sim::EventId end_event = sim::kInvalidEvent;
  };

  void inject_round(Flight& flight, double mb);
  void detach(Flight& flight);
  void attach(Flight& flight);
  /// Extends the flight's plan from `pending` MB to push at `t` (the
  /// pre-copy recurrence at the current bandwidth), derives the record's
  /// stop, end, downtime, rounds and transferred_mb from it, and schedules
  /// the unfired round events plus the stop/attach events, recording their
  /// ids on the flight.
  void plan_flight(Flight& flight, double pending, common::SimTime t);
  /// Cancels every not-yet-fired event of the flight.
  void cancel_pending_events(Flight& flight);
  /// Removes the flight, records it, and fires the completion callback.
  void finish(Flight& flight);

  MigrationConfig cfg_;
  sim::EventQueue& events_;
  std::vector<std::unique_ptr<Flight>> flights_;  // stable addresses for event captures
  std::vector<MigrationRecord> completed_;
};

}  // namespace pas::cluster
