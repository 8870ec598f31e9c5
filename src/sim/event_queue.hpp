// Discrete-event core: a time-ordered queue of callbacks.
//
// The cluster and the federation coordinate their fleets through this
// queue: periodic machinery (manager ticks, SLA samples, the federation
// planner), migration phases, faults and control commands are events in
// it. Ordering is deterministic: ties on time break by insertion sequence.
// (A host's own periodic ticks — at most five — run off its fixed timer
// set with the same tie rule; see hv::Host.)
//
// Implementation: a std::vector min-heap of (when, seq, id) entries next to
// a map from each live id to its current seq and callback. cancel() only
// erases the map entry, and reschedule() pushes a fresh (when, seq) entry
// for the same id, so the heap may hold dead entries: ones whose id is gone
// from the map or whose seq no longer matches it. Every cancel, reschedule
// and fire pops dead heads, so the heap's front is always live and
// next_event_time(), pending() and empty() stay exact. Ids come from a
// counter and are never reused, so a stale id can never touch a later
// event. This traffic is a few events per simulated second across a whole
// fleet (the hosts' own ticks never enter the queue), so a plain heap and
// std::function callbacks cost nothing measurable end to end.
//
// Threading model: an EventQueue is single-threaded by design and stays
// that way under the parallel engines: a cluster's or federation's queue is
// touched only by its coordinating thread between segment barriers. No
// locks needed, and the (time, seq) dispatch order is what makes event
// replay deterministic at any thread count (docs/ARCHITECTURE.md).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"

namespace pas::sim {

using EventFn = std::function<void(common::SimTime)>;

/// Handle for cancelling a scheduled event.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `when`. Events scheduled for a time in
  /// the past fire at the next dispatch.
  EventId schedule(common::SimTime when, EventFn fn);

  /// Cancels a pending event; returns false if it already fired or was
  /// cancelled.
  bool cancel(EventId id);

  /// Moves a pending event to `when`, drawing a fresh (largest) insertion
  /// sequence — exactly the order cancel() + schedule() of the same
  /// callback would produce, but the id stays valid. Returns false if `id`
  /// already fired or was cancelled.
  bool reschedule(EventId id, common::SimTime when);

  /// Runs every event with time <= `until`, in (time, insertion) order.
  /// Events may schedule further events; those also run if due.
  void run_until(common::SimTime until);

  /// Time of the earliest pending event, or `fallback` if none.
  [[nodiscard]] common::SimTime next_event_time(common::SimTime fallback) const {
    return heap_.empty() ? fallback : heap_.front().when;
  }

  [[nodiscard]] std::size_t pending() const { return live_.size(); }
  [[nodiscard]] bool empty() const { return live_.empty(); }

 private:
  struct Entry {
    common::SimTime when;
    std::uint64_t seq;  // global insertion sequence; breaks time ties
    EventId id;
  };
  struct Live {
    std::uint64_t seq;  // the seq of this id's one live heap entry
    EventFn fn;
  };

  /// Heap order for std::push_heap/pop_heap: the front is the smallest
  /// (when, seq).
  [[nodiscard]] static bool later(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  void push(common::SimTime when, std::uint64_t seq, EventId id);
  /// Pops cancelled and superseded entries off the front of the heap.
  void pop_dead_heads();

  std::vector<Entry> heap_;
  std::unordered_map<EventId, Live> live_;
  std::uint64_t next_seq_ = 1;
  EventId next_id_ = kInvalidEvent + 1;
};

/// The lockstep loop of the cluster (over hosts) and the federation (over
/// shards): `advance(t)` brings every member to the next instant `events`
/// acts at, then that instant's events fire, so an event always observes —
/// and mutates — members synchronized to its own timestamp. An empty tail
/// (no event in (now, until]) is one advance, with no per-iteration
/// dispatch.
template <typename Advance>
void run_lockstep(EventQueue& events, common::SimTime& now, common::SimTime until,
                  Advance&& advance) {
  while (now < until) {
    const common::SimTime next_event = events.next_event_time(until);
    if (events.empty() || next_event > until) {
      advance(until);
      now = until;
      return;
    }
    if (next_event > now) {
      advance(next_event);
      now = next_event;
    }
    events.run_until(now);
    // The queue never leaves a dead entry at its head, so firing leaves the
    // head strictly in the future (or the queue empty) — the invariant
    // that lets the next iteration trust a single peek.
    assert(events.next_event_time(until) > now || events.empty());
  }
}

}  // namespace pas::sim
