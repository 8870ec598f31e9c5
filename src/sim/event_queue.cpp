#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pas::sim {

void EventQueue::push(common::SimTime when, std::uint64_t seq, EventId id) {
  heap_.push_back({when, seq, id});
  std::push_heap(heap_.begin(), heap_.end(), later);
}

void EventQueue::pop_dead_heads() {
  while (!heap_.empty()) {
    const Entry& head = heap_.front();
    const auto it = live_.find(head.id);
    if (it != live_.end() && it->second.seq == head.seq) return;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
}

EventId EventQueue::schedule(common::SimTime when, EventFn fn) {
  // A live entry never makes the head dead, so no pop is needed here.
  const EventId id = next_id_++;
  const std::uint64_t seq = next_seq_++;
  live_.emplace(id, Live{seq, std::move(fn)});
  push(when, seq, id);
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (live_.erase(id) == 0) return false;
  pop_dead_heads();
  return true;
}

bool EventQueue::reschedule(EventId id, common::SimTime when) {
  const auto it = live_.find(id);
  if (it == live_.end()) return false;
  it->second.seq = next_seq_++;
  push(when, it->second.seq, id);
  pop_dead_heads();  // the old entry may have been the head
  return true;
}

void EventQueue::run_until(common::SimTime until) {
  while (!heap_.empty() && heap_.front().when <= until) {
    const Entry head = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
    const auto it = live_.find(head.id);
    assert(it != live_.end() && it->second.seq == head.seq);
    // Retire the event before invoking it: the handler may schedule or
    // cancel events, and the queue must already be consistent.
    EventFn fn = std::move(it->second.fn);
    live_.erase(it);
    pop_dead_heads();
    fn(head.when);
  }
}

}  // namespace pas::sim
