#include "hypervisor/host.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>
#include <string>

#include "common/divergence.hpp"

namespace pas::hv {

Host::Host(HostConfig config, std::unique_ptr<Scheduler> scheduler)
    : cfg_(config),
      cpu_(config.ladder),
      cpufreq_(cpu_, config.cpufreq_transition_latency),
      scheduler_(std::move(scheduler)),
      monitor_(config.monitor_window, config.monitor_depth),
      energy_(config.power) {
  if (scheduler_ == nullptr) throw std::invalid_argument("Host: scheduler required");
  if (cfg_.quantum.us() <= 0) throw std::invalid_argument("Host: quantum must be positive");
  if (cfg_.speed_override) cpu_.set_speed_override(cfg_.speed_override);
}

Host::~Host() = default;

common::VmId Host::add_vm(VmConfig config, std::unique_ptr<wl::Workload> workload) {
  if (advancing_.load(std::memory_order_relaxed))
    throw std::logic_error("Host: add_vm while the host is advancing "
                           "(cross-host mutation must wait for the segment boundary)");
  if (workload == nullptr) throw std::invalid_argument("Host: workload required");
  const auto id = static_cast<common::VmId>(vms_.size());
  Vm vm;
  vm.id = id;
  vm.config = std::move(config);
  vm.workload = std::move(workload);
  monitor_.register_vm(id);
  scheduler_->add_vm(id, vm.config);
  initial_credits_.push_back(vm.config.credit);
  vm_ids_.push_back(id);
  vms_.push_back(std::move(vm));
  if (started_) {
    // Mid-run arrival: a slot created between segments. Seed its runnable
    // tracking as "just ran, hint expired" so the next refresh polls it,
    // widen the trace (old rows pad with zeros to the new width), and
    // re-seat the view — its spans over vm_ids_/initial_credits_ may have
    // dangled on the push_back reallocations above.
    wl_runnable_.push_back(0);
    wl_hint_.push_back(common::SimTime{});
    wl_ran_.push_back(0);
    wl_advanced_.push_back(common::SimTime{});
    note_ran(id);
    activity_dirty_ = true;
    trace_->grow_vm_count(vms_.size());
    view_ = HostView{&cpufreq_, &monitor_, scheduler_.get(), vm_ids_, initial_credits_};
    if (controller_) controller_->attach(view_);
  }
  return id;
}

std::unique_ptr<wl::Workload> Host::swap_workload(common::VmId id,
                                                  std::unique_ptr<wl::Workload> replacement) {
  if (advancing_.load(std::memory_order_relaxed))
    throw std::logic_error("Host: swap_workload while the host is advancing "
                           "(cross-host mutation must wait for the segment boundary)");
  if (replacement == nullptr) throw std::invalid_argument("Host: replacement workload required");
  Vm& vm = vms_.at(id);
  std::unique_ptr<wl::Workload> old = std::move(vm.workload);
  vm.workload = std::move(replacement);
  vm.blocked_this_slice = false;
  notify_workload_changed(id);
  return old;
}

void Host::notify_workload_changed(common::VmId id) {
  if (advancing_.load(std::memory_order_relaxed))
    throw std::logic_error("Host: notify_workload_changed while the host is advancing "
                           "(cross-host mutation must wait for the segment boundary)");
  if (id >= vms_.size()) throw std::out_of_range("Host: bad VM id");
  activity_dirty_ = true;
  if (!started_) return;  // the first quantum polls everything anyway
  // Treat the slot exactly like one that just ran: the cached runnable flag
  // and transition hint may be stale, so the next refresh re-polls it.
  note_ran(id);
}

void Host::set_governor(std::unique_ptr<gov::Governor> governor) {
  if (started_) throw std::logic_error("Host: set_governor after run started");
  governor_ = std::move(governor);
  activity_dirty_ = true;
}

void Host::set_controller(std::unique_ptr<Controller> controller) {
  if (started_) throw std::logic_error("Host: set_controller after run started");
  controller_ = std::move(controller);
  activity_dirty_ = true;
}

double Host::window_wanting_fraction(common::VmId id) const {
  const double win = static_cast<double>(cfg_.monitor_window.us());
  return static_cast<double>(vms_.at(id).window_wanting.us()) / win;
}

void Host::install_timers() {
  view_ = HostView{&cpufreq_, &monitor_, scheduler_.get(), vm_ids_, initial_credits_};
  trace_ = std::make_unique<metrics::TraceRecorder>(vms_.size());

  // Incremental runnable tracking: everything starts "expired" so the first
  // quantum polls every workload.
  wl_runnable_.assign(vms_.size(), 0);
  wl_hint_.assign(vms_.size(), common::SimTime{});
  wl_ran_.assign(vms_.size(), 0);
  wl_advanced_.assign(vms_.size(), common::SimTime{});
  hint_floor_ = common::SimTime{};
  active_ids_.reserve(vms_.size());
  ran_list_.reserve(vms_.size());
  runnable_scratch_.reserve(vms_.size());

  trace_scratch_global_.reserve(vms_.size());
  trace_scratch_absolute_.reserve(vms_.size());
  trace_scratch_credit_.reserve(vms_.size());
  trace_scratch_saturated_.reserve(vms_.size());

  // Creation order fixes the first same-timestamp firing order:
  // accounting, then the monitor window close, then governor, then
  // controller, then tracing — so policies always observe a freshly closed
  // window.
  timers_.reserve(5);
  arm_timer(TimerKind::kAccounting, scheduler_->accounting_period());
  arm_timer(TimerKind::kMonitor, cfg_.monitor_window);
  if (governor_) arm_timer(TimerKind::kGovernor, governor_->period());
  if (controller_) {
    controller_->attach(view_);
    arm_timer(TimerKind::kController, controller_->period());
  }
  if (cfg_.trace_stride.us() > 0) arm_timer(TimerKind::kTrace, cfg_.trace_stride);
  update_next_due();
}

void Host::arm_timer(TimerKind kind, common::SimTime period) {
  timers_.push_back(Timer{period, period, ++timer_seq_, kind});
}

void Host::update_next_due() {
  next_due_ = wl::kNoTransition;
  for (const Timer& t : timers_) next_due_ = std::min(next_due_, t.due);
}

Host::Timer& Host::earliest_timer() {
  Timer* first = &timers_.front();
  for (Timer& t : timers_)
    if (t.due < first->due || (t.due == first->due && t.seq < first->seq)) first = &t;
  return *first;
}

void Host::fire_timers(common::SimTime until) {
  while (next_due_ <= until) {
    Timer& timer = earliest_timer();
    const common::SimTime at = timer.due;
    timer.due = at + timer.period;
    timer.seq = ++timer_seq_;
    update_next_due();
    switch (timer.kind) {
      case TimerKind::kAccounting: scheduler_->account(at); break;
      case TimerKind::kMonitor: close_monitor_window(at); break;
      case TimerKind::kGovernor: governor_tick(at); break;
      case TimerKind::kController: controller_tick(at); break;
      case TimerKind::kTrace: trace_tick(at); break;
    }
  }
}

void Host::close_monitor_window(common::SimTime now) {
  saturated_slots_.clear();
  for (const auto& vm : vms_) {
    // A VM that wanted the CPU for (almost) the whole window is saturated:
    // it would have used more capacity had the scheduler granted it.
    if (window_wanting_fraction(vm.id) >= 0.95) saturated_slots_.push_back(vm.id);
  }
  monitor_.close_window(now);
  for (auto& vm : vms_) vm.window_wanting = common::SimTime{};
}

void Host::governor_tick(common::SimTime now) {
  assert(governor_ != nullptr);
  const common::SimTime span = now - gov_last_sample_time_;
  if (span.us() <= 0) return;
  const common::SimTime busy = monitor_.cumulative_busy() - gov_last_cum_busy_;
  gov::Sample s;
  s.now = now;
  s.util = std::clamp(
      static_cast<double>(busy.us()) / static_cast<double>(span.us()), 0.0, 1.0);
  s.avg_util = monitor_.avg_global_load_pct() / 100.0;
  s.current_index = cpufreq_.current_index();
  const std::size_t target = governor_->decide(s, cpu_.ladder());
  cpufreq_.request(target);
  gov_last_sample_time_ = now;
  gov_last_cum_busy_ = monitor_.cumulative_busy();
}

void Host::controller_tick(common::SimTime now) {
  assert(controller_ != nullptr);
  controller_->on_tick(now, view_);
}

void Host::trace_tick(common::SimTime now) {
  // The column scratch buffers are reused across ticks, so sampling only
  // allocates when the recorder's own columns grow.
  trace_scratch_global_.clear();
  trace_scratch_absolute_.clear();
  trace_scratch_credit_.clear();
  trace_scratch_saturated_.clear();
  auto saturated = saturated_slots_.begin();  // ascending, like vms_
  for (const auto& vm : vms_) {
    const bool flagged = saturated != saturated_slots_.end() && *saturated == vm.id;
    if (flagged) ++saturated;
    trace_scratch_global_.push_back(monitor_.vm_global_load_pct(vm.id));
    trace_scratch_absolute_.push_back(monitor_.vm_absolute_load_pct(vm.id));
    trace_scratch_credit_.push_back(scheduler_->cap(vm.id));
    trace_scratch_saturated_.push_back(flagged ? 1.0 : 0.0);
  }
  trace_->append(now, cpu_.current_freq().value(), monitor_.global_load_pct(),
                 monitor_.absolute_load_pct(), trace_scratch_global_,
                 trace_scratch_absolute_, trace_scratch_credit_,
                 trace_scratch_saturated_);
}

void Host::refresh_workloads() {
  if (!cfg_.event_driven_fast_path) {
    // Reference mode: advance every workload every quantum — the
    // pre-refactor loop's cost model (and trivially its semantics);
    // run_quantum polls runnable() itself.
    for (auto& vm : vms_) {
      vm.workload->advance_to(now_);
      wl_advanced_[vm.id] = now_;
      vm.blocked_this_slice = false;
    }
    return;
  }
  if (hint_floor_ <= now_) {
    // Some transition hint may have expired: queue every expired slot for
    // the re-poll below and recompute the floor over the others (the
    // re-polled hints fold in as they are refreshed).
    hint_floor_ = wl::kNoTransition;
    for (const auto& vm : vms_) {
      if (wl_ran_[vm.id]) continue;
      if (wl_hint_[vm.id] <= now_)
        note_ran(vm.id);
      else
        hint_floor_ = std::min(hint_floor_, wl_hint_[vm.id]);
    }
  }
  // Re-poll the slots that were consumed, notified or expired. Every other
  // slot keeps its cached state: an idle one cannot wake before its hint,
  // and a runnable one can only gain work, which catch_up delivers before
  // it is consumed (a set blocked_this_slice implies a set wl_ran_, so
  // those flags need no clearing elsewhere).
  for (const common::VmId id : ran_list_) {
    poll_workload(id);
    hint_floor_ = std::min(hint_floor_, wl_hint_[id]);
  }
  ran_list_.clear();
}

void Host::poll_workload(common::VmId id) {
  Vm& vm = vms_[id];
  vm.workload->advance_to(now_);
  wl_advanced_[id] = now_;
  const bool runnable = vm.workload->runnable();
  if (runnable != static_cast<bool>(wl_runnable_[id])) {
    // Membership flip: keep active_ids_ sorted (the pick contract).
    wl_runnable_[id] = runnable ? 1 : 0;
    const auto pos = std::lower_bound(active_ids_.begin(), active_ids_.end(), id);
    if (runnable)
      active_ids_.insert(pos, id);
    else
      active_ids_.erase(pos);
  }
  wl_hint_[id] = vm.workload->next_transition_time(now_);
  wl_ran_[id] = 0;
  vm.blocked_this_slice = false;
}

void Host::note_ran(common::VmId id) {
  if (wl_ran_[id]) return;
  wl_ran_[id] = 1;
  ran_list_.push_back(id);
}

void Host::catch_up(common::VmId id, common::SimTime t) {
  if (wl_advanced_[id] >= t) return;
  vms_[id].workload->advance_to(t);
  wl_advanced_[id] = t;
}

common::SimTime Host::earliest_transition_hint() const {
  common::SimTime earliest = wl::kNoTransition;
  for (const common::SimTime h : wl_hint_) earliest = std::min(earliest, h);
  return earliest;
}

common::SimTime Host::next_poll_boundary(common::SimTime hint) const {
  const std::int64_t k =
      (hint.us() - now_.us() + cfg_.quantum.us() - 1) / cfg_.quantum.us();
  return now_ + cfg_.quantum * k;
}

void Host::run_quantum(common::SimTime slice_end) {
  const double ratio = cpu_.current_ratio();
  quantum_start_ = now_;

  idle_tail_ = IdleTail::kNone;
  bool any_blocked = false;
  int picks = 0;
  common::VmId last = common::kInvalidVm;
  common::Work last_budget;
  common::SimTime t = now_;
  while (t < slice_end) {
    // The schedulable set is the active (runnable) set minus VMs that
    // blocked earlier in this slice; the copy is only taken once a block
    // actually happens. Reference mode keeps the pre-refactor behaviour:
    // re-poll every workload and rebuild the set on every iteration.
    std::span<const common::VmId> runnable = active_ids_;
    if (!cfg_.event_driven_fast_path) {
      runnable_scratch_.clear();
      for (auto& vm : vms_)
        if (!vm.blocked_this_slice && vm.workload->runnable())
          runnable_scratch_.push_back(vm.id);
      runnable = runnable_scratch_;
    } else if (any_blocked) {
      runnable_scratch_.clear();
      for (const common::VmId id : active_ids_)
        if (!vms_[id].blocked_this_slice) runnable_scratch_.push_back(id);
      runnable = runnable_scratch_;
    }
    if (runnable.empty()) {
      idle_tail_ = IdleTail::kNoRunnable;
      break;
    }

    const common::VmId chosen = scheduler_->pick(t, runnable);
    const common::SimTime span = slice_end - t;
    if (chosen == common::kInvalidVm) {
      // Fixed-credit semantics: runnable VMs exist but all are over cap.
      // They keep "wanting" the CPU while it idles.
      for (common::VmId r : runnable) vms_[r].window_wanting += span;
      idle_tail_ = IdleTail::kOverCap;
      idle_break_set_.assign(runnable.begin(), runnable.end());
      break;
    }
    assert(std::find(runnable.begin(), runnable.end(), chosen) != runnable.end());
    ++picks;

    Vm& v = vms_[chosen];
    // Extra-time grants may convert to guest work at reduced efficiency;
    // the wall time is occupied either way (the CPU looks busy to DVFS).
    const double eff = scheduler_->work_efficiency(chosen);
    assert(eff > 0.0 && eff <= 1.0);
    const common::Work budget = cpu_.work_for(span) * eff;
    catch_up(chosen, now_);  // the arrivals a lazy refresh left undelivered
    const common::Work done = v.workload->consume(t, budget);
    note_ran(chosen);  // consume may have changed runnable-ness: re-poll
    last = chosen;
    last_budget = budget;
    common::SimTime busy;
    if (done >= budget) {
      busy = span;
    } else {
      v.blocked_this_slice = true;
      any_blocked = true;
      busy = std::min(cpu_.time_for(common::Work{done.mfus() / eff}), span);
    }
    if (busy.us() == 0) {
      if (done <= common::Work{}) continue;  // spurious wakeup: retry others
      busy = common::usec(1);
    }

    scheduler_->charge(chosen, busy);
    monitor_.record_run(chosen, busy, done);
    v.total_busy += busy;
    v.total_work += done;
    energy_.record(busy, ratio, busy);
    for (common::VmId r : runnable) vms_[r].window_wanting += busy;
    t += busy;
  }

  // The gate of the next rotation attempt: one pick filled the slice and
  // its VM could fill another. Where workloads never fill, an attempt
  // would cost more than the runs save.
  try_rotation_ = cfg_.event_driven_fast_path && picks == 1 && t == slice_end &&
                  vms_[last].workload->fills(last_budget);
  if (t < slice_end) {
    const common::SimTime idle = slice_end - t;
    idle_total_ += idle;
    energy_.record(idle, ratio, common::SimTime{});
  }
}

std::uint64_t Host::run_rotation(common::SimTime until) {
  const std::size_t n = active_ids_.size();
  const std::size_t first = scheduler_->rotation_start(active_ids_);
  if (first >= n) return 0;
  // Every turn is one full quantum that ends by `until` and by the next
  // timer other than accounting; accounting (armed first, so timers_[0])
  // fires alone between turns at its due instants, so the run fires it in
  // place (re-armed with the newest seq, as fire_timers would) and
  // recaches next_due_ once at the end.
  const common::SimTime q = cfg_.quantum;
  common::SimTime limit = until;
  for (std::size_t i = 1; i < timers_.size(); ++i) limit = std::min(limit, timers_[i].due);
  Timer& accounting = timers_.front();
  assert(accounting.kind == TimerKind::kAccounting);
  const common::Work full = cpu_.work_for(q);

  std::size_t pos = first;
  common::SimTime t = now_;
  std::uint64_t turns = 0;
  while (t + q <= limit) {
    if (turns > 0) {
      // The reference refresh here would re-poll the VM that just ran
      // (it stayed runnable: its arrivals wait for catch_up) and, from
      // hint_floor_ on, every expired hint — where an idle VM may wake.
      if (t >= hint_floor_) break;
      if (accounting.due == t) {
        accounting.due = t + accounting.period;
        accounting.seq = ++timer_seq_;
        scheduler_->account(t);
      }
    }
    if (accounting.due < t + q) break;  // it would cut this slice short
    const common::VmId id = active_ids_[pos];
    if (!scheduler_->rotation_eligible(id)) break;
    const common::Work budget = full * scheduler_->work_efficiency(id);
    catch_up(id, t);
    Vm& v = vms_[id];
    if (!v.workload->fills(budget)) break;
    // run_quantum's full-slice pick, in its order.
    const common::Work done = v.workload->consume(t, budget);
    scheduler_->take_turn(id, q);
    monitor_.record_run(id, q, done);
    v.total_busy += q;
    v.total_work += done;
    ++turns;
    t += q;
    if (!v.workload->runnable()) break;  // the next refresh drops it
    pos = pos + 1 == n ? 0 : pos + 1;
  }
  if (turns == 0) return 0;
  update_next_due();

  // The per-quantum records that do not depend on who ran: the runnable
  // set was constant, and the energy is `turns` equal full-busy chunks.
  energy_.record_chunks(q, cpu_.current_ratio(), q, turns);
  const common::SimTime wanted = q * static_cast<std::int64_t>(turns);
  for (const common::VmId r : active_ids_) vms_[r].window_wanting += wanted;
  pos = first;
  for (std::uint64_t j = 0; j < std::min<std::uint64_t>(turns, n); ++j) {
    note_ran(active_ids_[pos]);
    pos = pos + 1 == n ? 0 : pos + 1;
  }
  quantum_start_ = t - q;
  now_ = t;
  rotation_quanta_ += turns;
  return turns;
}

void Host::skip_idle_time(common::SimTime until) {
  // The quantum that just ended at now_ finished with no pickable VM. If
  // that is still true at this boundary, nothing can happen until (a) the
  // next timer (accounting refill, window close, governor/controller tick,
  // trace sample) — the only things that change credits or frequency
  // — (b) a workload self-transition, which the slow-stepped loop would
  // only observe at the first quantum boundary at or after it, or (c)
  // `until`. Jump there in one step.
  //
  // "Still true" is validated by re-polling the workloads exactly as the
  // next quantum would: an empty active set extends a no-runnable tail; an
  // unchanged active set extends an over-cap tail (the scheduler already
  // rejected precisely that set, and no charge/account ran since, so
  // re-asking it would both return the same answer and leave the same
  // state — the pick idempotence contract, scheduler.hpp).
  if (idle_tail_ == IdleTail::kOverCap && !scheduler_->rejection_is_stable())
    return;  // the rejection may expire with bare time (SEDF period refill)
  refresh_workloads();
  if (idle_tail_ == IdleTail::kNoRunnable) {
    if (!active_ids_.empty()) return;
  } else {
    if (active_ids_ != idle_break_set_) return;
  }

  const common::SimTime hint = earliest_transition_hint();

  if (idle_tail_ == IdleTail::kOverCap) {
    // Timers change credits (accounting refill, controller set_cap), so an
    // over-cap skip must stop at the next one.
    common::SimTime target = std::min(until, next_due_);
    if (hint < target) {
      if (hint <= now_) return;  // an "unknown" hint: re-poll every quantum
      target = std::min(target, next_poll_boundary(hint));
    }
    if (target <= now_) return;
    const common::SimTime span = target - now_;
    // Same per-quantum accrual the slow loop applies: over-cap VMs want the
    // CPU for every skipped instant. The hint bound guarantees the active
    // set is constant across the whole span.
    for (common::VmId r : active_ids_) vms_[r].window_wanting += span;
    idle_total_ += span;
    energy_.record(span, cpu_.current_ratio(), common::SimTime{});
    now_ = target;
    return;
  }

  // No-runnable skip: timers cannot make a workload runnable (they
  // touch credits, frequency, monitor and trace — never workload state), so
  // the skip may cross them. Hop event to event so each idle segment is
  // accounted at the frequency then in force (a governor tick mid-skip
  // changes the idle power draw), firing handlers at their exact times in
  // the exact order the slow loop would. The quantum grid re-anchors at
  // every timer crossed — an off-grid timer cuts the reference loop's
  // slice short and later boundaries shift with it — so the hint wake-up
  // boundary is recomputed per segment from the segment's own start.
  while (now_ < until) {
    const common::SimTime seg_end = std::min(until, next_due_);
    common::SimTime stop = seg_end;
    if (hint < seg_end) {
      if (hint <= now_) break;  // the slow loop polls at this very boundary
      stop = std::min(stop, next_poll_boundary(hint));
    }
    if (stop > now_) {
      const common::SimTime span = stop - now_;
      idle_total_ += span;
      energy_.record(span, cpu_.current_ratio(), common::SimTime{});
      now_ = stop;
    }
    if (stop < seg_end) break;  // woke for the hint: re-poll in run_until
    fire_timers(now_);
  }
}

common::SimTime Host::compute_next_activity() const {
  // Quiescence certificate: every condition below must hold for a bulk
  // skip to reproduce the reference loop byte for byte. Each line names
  // the divergence it rules out.
  if (!cfg_.event_driven_fast_path || !started_) return now_;
  // Governor/controller ticks read monitor state and move frequency/caps;
  // replaying them is the reference loop's job.
  if (governor_ || controller_) return now_;
  // An over-cap tail accrues window_wanting per skipped instant and wakes
  // on credit refills — only a fully idle (no-runnable) host is inert.
  if (idle_tail_ != IdleTail::kNoRunnable) return now_;
  if (!active_ids_.empty()) return now_;
  // A saturation flag would alter the next monitor close.
  if (!saturated_slots_.empty()) return now_;
  for (const auto& vm : vms_) {
    const auto id = vm.id;
    // A consumed/notified slot or an expired hint forces a re-poll; a
    // pending window_wanting would alter the next monitor close; any of
    // these and the host must really run.
    if (wl_ran_[id] || wl_runnable_[id]) return now_;
    if (wl_hint_[id] <= now_) return now_;
    if (vm.window_wanting != common::SimTime{}) return now_;
  }
  // The periodic fires crossed by a skip must be provable no-ops: credits
  // at the refill fixed point (so also of the k refills a lazy scheduler
  // would fold in: the skip calls no account()), monitor reading all-zero
  // with full smoothing rings.
  if (!scheduler_->refill_settled()) return now_;
  if (!monitor_.idle_settled()) return now_;
  // Inert until the earliest workload self-transition (kNoTransition for
  // a host of pure idlers: skippable to any horizon).
  return earliest_transition_hint();
}

common::SimTime Host::next_activity_time() {
  if (activity_dirty_) {
    activity_cache_ = compute_next_activity();
    activity_dirty_ = false;
  }
  return activity_cache_;
}

void Host::skip_idle_to(common::SimTime target) {
  if (target <= now_) return;
  if (next_activity_time() < target) {
    // The certificate does not cover the span (or the host is simply not
    // quiescent): take the honest path. Misuse costs time, never bytes.
    run_until(target);
    return;
  }
  if (advancing_.load(std::memory_order_relaxed))
    throw std::logic_error("Host: skip_idle_to while the host is advancing");
  struct AdvanceGuard {
    std::atomic<bool>& flag;
    ~AdvanceGuard() { flag.store(false, std::memory_order_relaxed); }
  } guard{advancing_};
  advancing_.store(true, std::memory_order_relaxed);

  // What the reference loop would do from a quiescent state: one
  // quantum-bounded idle chunk (run_quantum), then skip_idle_time hopping
  // timer due to timer due, firing the timers in exact (due, seq) order —
  // each a state no-op except the trace sampler — and recording one idle
  // energy chunk per hop. Frequency cannot change (no governor/controller
  // and nothing runs), so one ratio read serves every chunk, exactly as
  // each reference segment would have read it.
  const double ratio = cpu_.current_ratio();

  // Chunk 1: the slice run_quantum would have cut at the quantum, the
  // target or the first timer — whichever is earliest.
  common::SimTime prev = now_;
  {
    const common::SimTime b0 = std::min({now_ + cfg_.quantum, target, next_due_});
    if (b0 > prev) {
      energy_.record(b0 - prev, ratio, common::SimTime{});
      prev = b0;
    }
  }

  // Fire merge, one run at a time, on the real timers: take the earliest
  // (due, seq) timer up to and including the target (the reference's
  // trailing fire_timers fires timers due exactly at `until`). Once it has
  // fired it holds the newest seq, so it loses every tie and keeps firing
  // exactly while its dues stay before every other timer's — between two
  // fires of the sparse timers (monitor window, trace sampler) that is the
  // whole run of the shortest-period timer (accounting). Distinct instants
  // bound energy chunks, so a run of k fires is one partial chunk up to its
  // first fire and k - 1 equal chunks of one period, recorded in one step;
  // the run draws k seqs, as k real fires would. The trace timer's fires
  // collect rows.
  skip_trace_times_.clear();
  const common::SimTime beyond = target + common::usec(1);
  for (;;) {
    Timer& best = earliest_timer();
    if (best.due > target) break;
    common::SimTime other = beyond;  // earliest due among the rest
    for (const Timer& t : timers_)
      if (&t != &best) other = std::min(other, t.due);
    const std::int64_t fires =
        other > best.due ? (other - best.due - common::usec(1)) / best.period + 1 : 1;
    const common::SimTime last = best.due + best.period * (fires - 1);
    if (best.due > prev) energy_.record(best.due - prev, ratio, common::SimTime{});
    energy_.record_chunks(best.period, ratio, common::SimTime{},
                          static_cast<std::uint64_t>(fires - 1));
    prev = last;
    if (best.kind == TimerKind::kTrace)
      for (common::SimTime t = best.due; t <= last; t += best.period)
        skip_trace_times_.push_back(t);
    timer_seq_ += static_cast<std::uint64_t>(fires);
    best.seq = timer_seq_;
    best.due = last + best.period;
  }
  update_next_due();
  if (target > prev) energy_.record(target - prev, ratio, common::SimTime{});

  idle_total_ += target - now_;
  now_ = target;

  if (!skip_trace_times_.empty()) {
    // Every skipped trace row is the same constant row the sampler would
    // have built: loads zero, caps and frequency unchanged.
    trace_scratch_credit_.clear();
    for (const auto& vm : vms_)
      trace_scratch_credit_.push_back(scheduler_->cap(vm.id));
    trace_->append_idle_rows(skip_trace_times_, cpu_.current_freq().value(),
                             trace_scratch_credit_);
  }

  // Quiescence survives a skip by construction (nothing above re-polls a
  // workload or moves scheduler/monitor state), so the certificate —
  // bounded by the unchanged transition hints — stays valid: no
  // activity_dirty_ here. The skip cost O(runs + trace rows): about two
  // merge steps per sparse fire crossed, however many accounting fires.
}

void Host::run_until(common::SimTime until) {
  // No-shared-state contract (see the header): while this host advances —
  // possibly on a worker thread of the cluster's parallel driver — nothing
  // may mutate it from outside. The guard turns a violation (a migration
  // attach or agent injection racing a running segment) into a hard error
  // instead of a silent nondeterminism.
  if (advancing_.load(std::memory_order_relaxed))
    throw std::logic_error("Host: reentrant run_until");
  struct AdvanceGuard {
    std::atomic<bool>& flag;
    ~AdvanceGuard() { flag.store(false, std::memory_order_relaxed); }
  } guard{advancing_};
  advancing_.store(true, std::memory_order_relaxed);
  activity_dirty_ = true;  // a real advance invalidates the certificate
  if (!started_) {
    install_timers();
    started_ = true;
  }
  while (now_ < until) {
    fire_timers(now_);
    // Every fired timer re-armed a period on, so the earliest due is
    // strictly in the future here.
    assert(next_due_ > now_);
    refresh_workloads();
    if (try_rotation_ && run_rotation(until) > 0) continue;
    const common::SimTime slice_end = std::min({now_ + cfg_.quantum, until, next_due_});
    run_quantum(slice_end);
    now_ = slice_end;
    if (cfg_.event_driven_fast_path && idle_tail_ != IdleTail::kNone && now_ < until)
      skip_idle_time(until);
  }
  fire_timers(now_);
  // Deliver what the lazy refreshes withheld: between run_until calls each
  // runnable workload stands at the last quantum's start, where delivery
  // at every quantum would have left it. Slots re-polled by a later skip
  // are already past that instant and stay untouched.
  for (const common::VmId id : active_ids_) catch_up(id, quantum_start_);
}

std::optional<std::string> first_divergence(const Host& a, const Host& b) {
  using common::FieldDiff;
  if (auto d = FieldDiff{}
                   .field("vm_count", a.vm_count(), b.vm_count())
                   .field("trace rows", a.trace().size(), b.trace().size())
                   .first())
    return d;
  for (std::size_t i = 0; i < a.trace().size(); ++i) {
    const auto ra = a.trace().sample(i);
    const auto rb = b.trace().sample(i);
    const auto row = [i] { return "trace row " + std::to_string(i) + " "; };
    if (auto d = FieldDiff{}
                     .field("t", ra.t, rb.t)
                     .field("freq_mhz", ra.freq_mhz, rb.freq_mhz)
                     .field("global_load_pct", ra.global_load_pct, rb.global_load_pct)
                     .field("absolute_load_pct", ra.absolute_load_pct, rb.absolute_load_pct)
                     .first())
      return row() + *d;
    for (std::size_t v = 0; v < ra.vm_global_pct.size(); ++v)
      if (auto d = FieldDiff{}
                       .field("vm_global_pct", ra.vm_global_pct[v], rb.vm_global_pct[v])
                       .field("vm_absolute_pct", ra.vm_absolute_pct[v], rb.vm_absolute_pct[v])
                       .field("vm_credit_pct", ra.vm_credit_pct[v], rb.vm_credit_pct[v])
                       .field("vm_saturated", ra.vm_saturated[v], rb.vm_saturated[v])
                       .first())
        return row() + "vm " + std::to_string(v) + " " + *d;
  }
  for (common::VmId v = 0; v < a.vm_count(); ++v)
    if (auto d = FieldDiff{}
                     .field("total_busy", a.vm(v).total_busy, b.vm(v).total_busy)
                     .field("total_work", a.vm(v).total_work, b.vm(v).total_work)
                     .field("window_wanting", a.vm(v).window_wanting, b.vm(v).window_wanting)
                     .first())
      return "vm " + std::to_string(v) + " " + *d;
  return FieldDiff{}
      .field("idle_time", a.idle_time(), b.idle_time())
      .field("freq transitions", a.cpufreq().transition_count(),
             b.cpufreq().transition_count())
      .energy("energy_joules", a.energy().joules(), b.energy().joules())
      .first();
}

}  // namespace pas::hv
