// Hypervisor VM-scheduler interface.
//
// The host drives any scheduler through four calls:
//   pick    — choose the VM to run now among the runnable set;
//   charge  — account the time the chosen VM actually ran;
//   account — periodic credit refill (the scheduler's accounting tick);
//   set_cap — dynamically adjust a VM's credit (what the PAS controller
//             does when the frequency changes).
//
// Implementations: sched::CreditScheduler (fixed credit, Xen Credit with a
// cap), sched::SedfScheduler (variable credit, Xen SEDF). The PAS
// contribution is NOT a separate scheduler class: per the paper it is the
// credit scheduler plus a credit/DVFS controller (core::PasController).
//
// ── Extension contract ──────────────────────────────────────────────────
// A new scheduler is correct when it upholds four promises; every one is
// load-bearing for an optimization or a cluster feature, so the
// differential suites (host fast-path tests, cluster fuzz + parallel
// sweeps) will catch a violation as a byte-level divergence:
//
//  1. pick() is time-idempotent (doc on pick below). License for the
//     host's fast path to re-ask "still nothing to run?" without
//     perturbing you.
//  2. rejection_is_stable() and the rotation contract tell the truth (doc
//     below). `true` lets the host collapse a whole over-cap idle span into
//     one skip; a rotation lets it hand out full quanta as round-robin
//     turns without a pick() each. Claiming either falsely makes the fast
//     path diverge from the reference loop — a silent divergence. When
//     unsure, keep the conservative default: it costs wall-clock, never
//     correctness.
//  3. export_credit()/import_credit() conserve (doc below). The cluster's
//     migration engine moves the returned balance verbatim from source to
//     destination; tests/cluster/migration_conservation_test.cpp asserts
//     the fleet-wide sum is unchanged across every hand-off.
//  4. No hidden clocks, no shared state. All state lives in the instance
//     (one per host — the cluster's parallel driver steps hosts on worker
//     threads), and all time arrives through the `now` parameters. A
//     static counter or wall-clock read breaks run-to-run determinism.
//
// Registration: add the class to sched/scheduler_factory.{hpp,cpp} and to
// the cluster fuzz generator's scheduler switch so the differential tests
// cover it. See docs/ARCHITECTURE.md ("A new scheduler").
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "hypervisor/vm.hpp"

namespace pas::hv {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Registers a VM. Ids arrive densely from 0 in creation order.
  virtual void add_vm(common::VmId id, const VmConfig& config) = 0;

  /// Chooses the VM to run at `now` from `runnable` (never empty), or
  /// common::kInvalidVm to leave the CPU idle (a fixed-credit scheduler
  /// idles when every runnable VM has exhausted its credit).
  ///
  /// `runnable` ascends strictly by id (the host keeps its runnable set
  /// sorted), so an implementation may search it instead of scanning it.
  ///
  /// Idempotence contract (the host's fast path relies on it): repeating
  /// pick with the same runnable set at later instants, with no
  /// charge()/account()/set_cap() in between, must return the same choice
  /// and leave observable scheduler state as if every repeat had been
  /// made. All lazily time-refreshed bookkeeping (SEDF period rollover)
  /// must therefore be a pure function of `now`, not of the call count.
  [[nodiscard]] virtual common::VmId pick(common::SimTime now,
                                          std::span<const common::VmId> runnable) = 0;

  /// Charges `busy` wall time of CPU use to `vm` (credits are a *time*
  /// share; see common/units.hpp).
  virtual void charge(common::VmId vm, common::SimTime busy) = 0;

  /// Accounting boundary: refill credits/periods, at once or folded in
  /// when next touched (CreditScheduler), as long as every read sees it.
  virtual void account(common::SimTime now) = 0;

  /// How often account() must run.
  [[nodiscard]] virtual common::SimTime accounting_period() const = 0;

  /// Sets the VM's current credit cap (percent of processor time). The PAS
  /// controller raises caps above the configured credit when the frequency
  /// drops — the sum across VMs may then exceed 100 % (paper §4.2).
  virtual void set_cap(common::VmId vm, common::Percent cap_pct) = 0;

  /// The VM's current cap (initially its configured credit).
  [[nodiscard]] virtual common::Percent cap(common::VmId vm) const = 0;

  /// True if a runnable set this scheduler just rejected (pick returned
  /// kInvalidVm) stays rejected until the next charge()/account()/
  /// set_cap() call — i.e. eligibility never revives with bare time. Lets
  /// the host skip the whole idle span in one step: on a `true` answer an
  /// over-cap tail fast-forwards to the next host timer (the earliest
  /// call that could change eligibility) with the rejected set revalidated
  /// at the boundary.
  ///
  /// What SEDF opts out of, and why: SEDF refills each VM's slice lazily,
  /// as a pure function of `now` (the period rollover happens inside
  /// pick()), so a VM the scheduler rejected at time t can become eligible
  /// at t + δ with no charge/account/set_cap in between — bare time IS a
  /// reviving input. SedfScheduler therefore returns false and the host
  /// idles its over-cap spans quantum by quantum, exactly like the
  /// reference loop. Fixed-credit schedulers (Credit, Credit2) refill only
  /// inside account(), so their rejections are stable and they keep the
  /// default. Defaulting a new scheduler to `false` is always safe;
  /// claiming `true` wrongly makes the fast path diverge from the
  /// reference loop (the fuzz suites catch this as a byte-level diff).
  [[nodiscard]] virtual bool rejection_is_stable() const { return true; }

  /// Rotation contract (opt-in; the defaults say "no rotation"). Lets the
  /// host's fast path hand out a run of full quanta as round-robin turns
  /// without a pick() per quantum (Host::run_until, "rotation run").
  ///
  /// rotation_start(runnable) returns the position in `runnable` of the VM
  /// whose turn it is when pick() over this exact set is a plain rotation
  /// — it would return that VM if eligible, and after it the next VM in
  /// `runnable`, wrapping, and so on — or runnable.size() when it is not
  /// (no rotation at all, or VMs in several priority tiers). It may also
  /// refuse when the VM in turn is not eligible: no run starts then anyway.
  ///
  /// rotation_eligible(vm), for the VM in turn: pick() would return it
  /// now. A false answer ends the run and the host falls back to pick().
  ///
  /// take_turn(vm, busy): exactly the state change of pick() returning
  /// `vm` followed by charge(vm, busy).
  ///
  /// Between turns the host calls account() at its due instants and
  /// nothing else, so eligibility may depend on charges and refills only.
  /// Claiming a rotation falsely diverges the fast path from the reference
  /// loop (the host fast-path tests catch it as a byte-level diff).
  [[nodiscard]] virtual std::size_t rotation_start(
      std::span<const common::VmId> runnable) const {
    return runnable.size();
  }
  [[nodiscard]] virtual bool rotation_eligible(common::VmId vm) const {
    (void)vm;
    return false;
  }
  virtual void take_turn(common::VmId vm, common::SimTime busy) {
    (void)vm;
    (void)busy;
  }

  /// True if the next account() call would be a no-op on all observable
  /// scheduler state — credits, as read, already at their refill fixed
  /// point (one of any number of refills), no cursor advance. The host's bulk
  /// idle skip (Host::skip_idle_to) uses this to prove that replaying the
  /// remaining accounting ticks of an idle span one by one would change
  /// nothing, so the span can be crossed in one step.
  ///
  /// Honesty contract, same shape as rejection_is_stable(): `false` is
  /// always safe (the host just keeps stepping tick by tick); `true` when
  /// account() would actually mutate state silently diverges the sparse
  /// cluster driver from the reference engine, and the fuzz suites catch
  /// it as a byte-level diff. The default is the safe answer; fixed-credit
  /// schedulers override it with their refill fixed-point test.
  [[nodiscard]] virtual bool refill_settled() const { return false; }

  /// Fraction of the *upcoming* run (for the VM just returned by pick())
  /// that converts into useful guest work, in (0,1]. 1.0 for guaranteed
  /// time; variable-credit schedulers may return less for extra-time grants
  /// (hypervisor overhead on borrowed slices: the CPU stays busy — which is
  /// what blocks DVFS down-scaling — but the guest gets less out of it).
  [[nodiscard]] virtual double work_efficiency(common::VmId vm) const {
    (void)vm;
    return 1.0;
  }

  /// Live-migration support: the VM's scheduling state that must travel
  /// with it (today: the credit balance, a *time* share — see
  /// common/units.hpp).
  ///
  /// Call sequence during a migration (cluster::MigrationEngine): at the
  /// stop-and-copy pause the engine reads export_credit(vm) on the SOURCE
  /// host's scheduler (a pure read — it must not mutate), records it in
  /// the MigrationRecord (credit_exported), then drains the source slot
  /// itself via import_credit(vm, 0) + set_cap(vm, 0) so credit exists in
  /// exactly one place and refills stop minting into the empty slot. At
  /// attach time it calls import_credit(vm, exported) on the DESTINATION
  /// host's scheduler (credit_imported). The conservation contract: export
  /// on A == import on B, credit neither minted nor burned in flight.
  /// import_credit therefore REPLACES the slot's balance (no merge, no
  /// clamp to burst limits — a migrating VM must not lose credit in
  /// flight); the engine relies on "import zero == drain".
  ///
  /// Schedulers without a transferable balance keep the defaults: export
  /// zero, ignore imports. SEDF is the in-tree example — its scheduling
  /// state is (deadline, remaining slice) against the HOST-LOCAL period
  /// grid; a deadline from host A is meaningless on host B's clock, and
  /// slices refill within one period anyway, so the honest hand-off is
  /// "carry nothing". The conservation test treats a default-returning
  /// scheduler as conserving trivially.
  [[nodiscard]] virtual common::SimTime export_credit(common::VmId vm) const {
    (void)vm;
    return common::SimTime{};
  }
  virtual void import_credit(common::VmId vm, common::SimTime balance) {
    (void)vm;
    (void)balance;
  }
};

}  // namespace pas::hv
