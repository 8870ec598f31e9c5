// Self-rearming periodic task on top of the EventQueue: the cluster's and
// the federation's periodic machinery (manager, SLA sample, planner). A
// host's own ticks run off its fixed timer set instead (hv::Host).
#pragma once

#include <utility>

#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace pas::sim {

/// Fires `fn(now)` every `period`, starting at `first` (absolute). The task
/// owns its rearm logic; destroying it (or calling stop()) cancels the next
/// firing. Must not outlive the queue. Rearming schedules a lambda that
/// captures only `this`, which std::function keeps in its local buffer, so
/// a periodic tick never allocates for its callback.
class PeriodicTask {
 public:
  PeriodicTask(EventQueue& queue, common::SimTime first, common::SimTime period,
               EventFn fn)
      : queue_(queue), period_(period), fn_(std::move(fn)) {
    arm(first);
  }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  ~PeriodicTask() { stop(); }

  void stop() {
    if (pending_ != kInvalidEvent) {
      queue_.cancel(pending_);
      pending_ = kInvalidEvent;
    }
  }

 private:
  void arm(common::SimTime when) {
    pending_ = queue_.schedule(when, [this](common::SimTime now) {
      pending_ = kInvalidEvent;
      arm(now + period_);
      fn_(now);
    });
  }

  EventQueue& queue_;
  common::SimTime period_;
  EventFn fn_;
  EventId pending_ = kInvalidEvent;
};

}  // namespace pas::sim
