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
// Layout (rebuilt for bulk, see ROADMAP "scale the simulator itself"): a
// 4-ary indexed min-heap orders the *distinct timestamps* only; the events
// sharing one timestamp live in a per-timestamp bucket, itself a binary
// min-heap of packed (query, task) keys. Batch workloads cluster heavily
// on shared timestamps (same-epoch scatter legs, injection storms), so the
// expensive top-level heap moves happen once per timestamp while draining
// the co-timed events costs only small intra-bucket sifts on 8-byte keys —
// the O(1)-amortized bulk drain the 10k-query sweeps rely on. Bucket
// storage is recycled through a free list, so steady-state push/pop does
// not allocate.
#pragma once

#include <cstdint>
#include <vector>

#include "common/point_map.hpp"
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
  void push(ReadyEvent e);

  /// Remove and return the smallest event. Precondition: !empty().
  ReadyEvent pop();

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The smallest event without removing it. Precondition: !empty().
  [[nodiscard]] const ReadyEvent& top() const noexcept { return top_; }

 private:
  using BucketId = std::uint32_t;

  /// All events sharing one timestamp, as a binary min-heap of
  /// (query << 32) | task keys — the packed integer compares exactly like
  /// ReadyEvent's (query, task) tie-breakers, including kInjectionQueryId
  /// sorting after every real query.
  struct Bucket {
    SimTime at = 0;
    std::vector<std::uint64_t> heap;
  };

  [[nodiscard]] bool earlier(BucketId a, BucketId b) const noexcept {
    return buckets_[a].at < buckets_[b].at;
  }
  void sift_up_time(std::size_t pos) noexcept;
  void sift_down_time(std::size_t pos) noexcept;
  void refresh_top() noexcept;

  std::vector<BucketId> time_heap_;  // 4-ary min-heap over bucket ids
  std::vector<Bucket> buckets_;      // arena indexed by BucketId
  std::vector<BucketId> free_;       // recycled bucket slots
  // Bucket of each timestamp, keyed by its bit pattern (-0.0 normalized
  // onto +0.0).
  common::PointMap<std::uint64_t, BucketId> index_;
  std::size_t size_ = 0;
  ReadyEvent top_{};  // materialized minimum; valid while !empty()
};

}  // namespace ahsw::net
