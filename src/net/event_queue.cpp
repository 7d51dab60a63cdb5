#include "net/event_queue.hpp"

#include <cassert>
#include <cstring>

namespace ahsw::net {

namespace {

constexpr std::size_t kArity = 4;  // top-level heap over distinct timestamps

/// Stable hash key for a timestamp. -0.0 and +0.0 compare equal as
/// SimTimes, so they must map to one bucket; normalizing before taking the
/// bit pattern keeps the index consistent with `<` on SimTime.
[[nodiscard]] std::uint64_t time_key(SimTime at) noexcept {
  if (at == 0) at = 0;  // collapse -0.0 onto +0.0
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(at));
  std::memcpy(&bits, &at, sizeof(bits));
  return bits;
}

[[nodiscard]] std::uint64_t pack(std::uint32_t query,
                                 std::uint32_t task) noexcept {
  return (static_cast<std::uint64_t>(query) << 32) | task;
}

/// Binary min-heap push over packed (query, task) keys.
void bucket_push(std::vector<std::uint64_t>& h, std::uint64_t key) {
  h.push_back(key);
  std::size_t pos = h.size() - 1;
  while (pos > 0) {
    std::size_t parent = (pos - 1) / 2;
    if (h[parent] <= h[pos]) break;
    std::swap(h[parent], h[pos]);
    pos = parent;
  }
}

/// Binary min-heap pop; returns the smallest packed key.
std::uint64_t bucket_pop(std::vector<std::uint64_t>& h) {
  std::uint64_t out = h.front();
  h.front() = h.back();
  h.pop_back();
  std::size_t pos = 0;
  const std::size_t n = h.size();
  while (true) {
    std::size_t best = pos;
    std::size_t left = 2 * pos + 1;
    if (left < n && h[left] < h[best]) best = left;
    if (left + 1 < n && h[left + 1] < h[best]) best = left + 1;
    if (best == pos) break;
    std::swap(h[pos], h[best]);
    pos = best;
  }
  return out;
}

}  // namespace

void EventQueue::sift_up_time(std::size_t pos) noexcept {
  while (pos > 0) {
    std::size_t parent = (pos - 1) / kArity;
    if (!earlier(time_heap_[pos], time_heap_[parent])) break;
    std::swap(time_heap_[pos], time_heap_[parent]);
    pos = parent;
  }
}

void EventQueue::sift_down_time(std::size_t pos) noexcept {
  const std::size_t n = time_heap_.size();
  while (true) {
    std::size_t best = pos;
    const std::size_t first = kArity * pos + 1;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    for (std::size_t c = first; c < last; ++c) {
      if (earlier(time_heap_[c], time_heap_[best])) best = c;
    }
    if (best == pos) break;
    std::swap(time_heap_[pos], time_heap_[best]);
    pos = best;
  }
}

void EventQueue::refresh_top() noexcept {
  const Bucket& b = buckets_[time_heap_.front()];
  top_ = ReadyEvent{b.at, static_cast<std::uint32_t>(b.heap.front() >> 32),
                    static_cast<std::uint32_t>(b.heap.front() & 0xffffffffu)};
}

void EventQueue::push(ReadyEvent e) {
  const std::uint64_t key = time_key(e.at);
  if (const BucketId* held = index_.find(key)) {
    bucket_push(buckets_[*held].heap, pack(e.query, e.task));
  } else {
    BucketId id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
    } else {
      id = static_cast<BucketId>(buckets_.size());
      buckets_.emplace_back();
    }
    Bucket& b = buckets_[id];
    b.at = e.at;
    b.heap.clear();
    b.heap.push_back(pack(e.query, e.task));
    index_.try_emplace(key, id);
    time_heap_.push_back(id);
    sift_up_time(time_heap_.size() - 1);
  }
  if (size_ == 0 || e < top_) top_ = e;
  ++size_;
}

ReadyEvent EventQueue::pop() {
  assert(size_ > 0 && "pop() on an empty EventQueue");
  const ReadyEvent out = top_;
  const BucketId id = time_heap_.front();
  Bucket& b = buckets_[id];
  bucket_pop(b.heap);
  if (b.heap.empty()) {
    // Timestamp drained: one top-level heap move retires the whole bucket
    // (its vector keeps its capacity for reuse through the free list).
    index_.erase(time_key(b.at));
    free_.push_back(id);
    time_heap_.front() = time_heap_.back();
    time_heap_.pop_back();
    if (!time_heap_.empty()) sift_down_time(0);
  }
  --size_;
  if (size_ > 0) refresh_top();
  return out;
}

}  // namespace ahsw::net
