// Deterministic ready-queue for event-driven execution on top of the
// simulated network.
//
// The DAG executor (src/dqp/executor) runs many queries through one
// scheduler: an operator becomes *ready* when all of its inputs have
// produced their outputs, and fires at a simulated start time computed from
// those inputs' ready_at times. Ready events pop in (time, query, task)
// order — time first so the simulation advances monotonically per node,
// then query id and task id as total tie-breakers — which makes every run
// with the same inputs reproduce the same event order bit for bit. There is
// no wall-clock anywhere in the key, so replays are exact.
//
// The queue is one vector kept as a binary min-heap by the standard heap
// algorithms. Because the key is a total order, the pop sequence does not
// depend on the heap's layout or on push order.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "net/network.hpp"

namespace ahsw::net {

/// Query id reserved for injected (non-query) events — fault-schedule
/// entries merged into the same queue. The maximum id, so at equal sim time
/// an injected event sorts after every real query's tasks: a fault stamped
/// at time T affects work strictly after T, never work scheduled at T.
inline constexpr std::uint32_t kInjectionQueryId = 0xffffffffu;

/// One schedulable unit of work: task `task` of query `query` may start at
/// simulated time `at`.
struct ReadyEvent {
  SimTime at = 0;
  std::uint32_t query = 0;
  std::uint32_t task = 0;

  /// Strict weak ordering by (at, query, task): earlier time first, then
  /// lower query id, then lower task id. Total — no two distinct events of
  /// one run compare equal, so heap order is deterministic.
  [[nodiscard]] friend bool operator<(const ReadyEvent& a,
                                      const ReadyEvent& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    if (a.query != b.query) return a.query < b.query;
    return a.task < b.task;
  }
};

/// Min-queue of ready events popping in exact (at, query, task) order.
class EventQueue {
 public:
  void push(ReadyEvent e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), kLater);
  }

  /// Remove and return the smallest event. Precondition: !empty().
  ReadyEvent pop() {
    assert(!heap_.empty() && "pop() on an empty EventQueue");
    std::pop_heap(heap_.begin(), heap_.end(), kLater);
    const ReadyEvent out = heap_.back();
    heap_.pop_back();
    return out;
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// The smallest event without removing it. Precondition: !empty().
  [[nodiscard]] const ReadyEvent& top() const noexcept { return heap_.front(); }

 private:
  // The standard heap algorithms keep the largest element first.
  static constexpr auto kLater = [](const ReadyEvent& a,
                                    const ReadyEvent& b) noexcept {
    return b < a;
  };

  std::vector<ReadyEvent> heap_;  // min-heap: heap_.front() is the smallest
};

}  // namespace ahsw::net
