// Simulated message-passing substrate.
//
// The paper targets a real ad-hoc network of personal devices; we substitute
// a deterministic simulator (see DESIGN.md §3). Every inter-node interaction
// is charged to this Network: it accounts messages and bytes per traffic
// category and computes message latency from a cost model, so benchmarks can
// report exactly the two optimization criteria the paper names — total
// inter-site data transmission and response time.
//
// Response time uses explicit logical clocks: callers thread a SimTime
// through their interaction; sequential steps add latencies, parallel
// branches take the max at their merge point. There is no hidden global
// event loop, which keeps executions reproducible and easy to reason about.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>

namespace ahsw::net {

/// Logical node address; unique across index and storage nodes.
using NodeAddress = std::uint32_t;
inline constexpr NodeAddress kNoAddress = 0xffffffffu;

/// Simulated time in milliseconds.
using SimTime = double;

/// Traffic categories, so experiments can separate index-maintenance cost
/// from query cost (e.g. E2 vs E3 in DESIGN.md).
enum class Category : std::uint8_t {
  kRouting = 0,   // DHT lookup / stabilization traffic
  kIndex = 1,     // location-table publish / retract / slice transfer
  kQuery = 2,     // sub-query shipping (query text + plan metadata)
  kData = 3,      // intermediate solution sets / data shipping
  kResult = 4,    // final results returned to the query initiator
};
inline constexpr int kCategoryCount = 5;

[[nodiscard]] std::string_view category_name(Category c) noexcept;

/// Latency model: fixed per-message cost plus size-proportional cost.
struct CostModel {
  double per_message_ms = 2.0;   // propagation + protocol overhead per hop
  double per_byte_ms = 0.001;    // 1/bandwidth (1 MB/s ~ 0.001 ms/B)
  double timeout_ms = 200.0;     // failure detection penalty

  [[nodiscard]] double latency(std::size_t bytes) const noexcept {
    return per_message_ms + per_byte_ms * static_cast<double>(bytes);
  }
};

/// Aggregate traffic counters. `bytes` is what the cost model charged — the
/// wire (compressed) size for payloads shipped through net::wire —
/// `raw_bytes` the uncompressed counterpart, so the compression ratio is
/// observable wherever traffic is (docs/cost_model.md "Compressed wire
/// charging").
struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t messages_by[kCategoryCount] = {};
  std::uint64_t bytes_by[kCategoryCount] = {};
  std::uint64_t timeouts = 0;
  /// Timeouts split by the traffic category of the interaction that hit the
  /// dead peer (routing probes vs. sub-query contacts), so failure-detection
  /// cost is attributable the same way transmission cost is.
  std::uint64_t timeouts_by[kCategoryCount] = {};

  [[nodiscard]] TrafficStats delta_since(const TrafficStats& base) const;

  /// Add another stats block (typically a per-query delta) into this one,
  /// aggregate and per-category counters alike. The one sanctioned way to
  /// roll per-query traffic into a report total (rule A2): hand-rolled
  /// `total.bytes += ...` sums silently drift when a counter is added here.
  void accumulate(const TrafficStats& delta) noexcept;
};

/// One charged message, as seen by a tracer. `bytes` is the charged (wire)
/// size; `raw_bytes` the uncompressed size of the same payload (== bytes
/// for messages with no compressed encoding).
struct MessageEvent {
  NodeAddress from = kNoAddress;
  NodeAddress to = kNoAddress;
  std::size_t bytes = 0;
  std::size_t raw_bytes = 0;
  SimTime sent_at = 0;
  SimTime arrives_at = 0;
  Category category = Category::kRouting;
};

/// One charged failure-detection timeout, as seen by a tracer. `suspect` is
/// the node the sender gave up on (kNoAddress when unknown); `category` is
/// the traffic category of the interaction that ran into the dead peer.
struct TimeoutEvent {
  NodeAddress suspect = kNoAddress;
  Category category = Category::kRouting;
  SimTime at = 0;          // when the sender started waiting
  SimTime gave_up_at = 0;  // at + timeout_ms: when it moved on
};

/// The simulated network: address allocation, failure injection, and the
/// charging of messages against the cost model.
class Network {
 public:
  explicit Network(CostModel model = {}) : model_(model) {}

  /// Allocate a fresh node address.
  [[nodiscard]] NodeAddress allocate_address() { return next_address_++; }

  /// Charge one message `from` -> `to` carrying `bytes` payload starting at
  /// `now`; returns its arrival time. A node-local interaction (from == to)
  /// is free. Sending to a failed node still transmits (and is charged) —
  /// callers discover the failure by timeout; see `timeout()`.
  ///
  /// `bytes` is the wire (charged) size; callers shipping payloads with a
  /// compressed encoding (net::wire) pass the uncompressed size as
  /// `raw_bytes` so both ends of the ratio are accounted. 0 (the default)
  /// means "no separate raw size": raw accounting then mirrors `bytes`.
  SimTime send(NodeAddress from, NodeAddress to, std::size_t bytes,
               SimTime now, Category category, std::size_t raw_bytes = 0);

  /// Charge a failure-detection timeout at `now`; returns when the sender
  /// gives up. Bumps the aggregate and per-category timeout counters and
  /// notifies the timeout tracer with the suspected-dead node, so observers
  /// see failure-detection cost the same way they see transmission cost.
  /// Every call site names the suspect (kNoAddress when unknown) and the
  /// category: neither has a default, so no timeout is booked silently
  /// against a category its caller did not choose.
  SimTime timeout(SimTime now, NodeAddress suspect, Category category);

  /// Mark a node as failed / recovered. Failed nodes never reply.
  void fail(NodeAddress n) {
    if (failed_.insert(n).second) ++liveness_changes_[n];
  }
  void recover(NodeAddress n) {
    if (failed_.erase(n) > 0) ++liveness_changes_[n];
  }
  [[nodiscard]] bool is_failed(NodeAddress n) const {
    return failed_.contains(n);
  }
  /// How often `n` has failed or recovered: a node that failed and
  /// recovered between two reads shows as a change, which is_failed hides.
  [[nodiscard]] std::uint64_t liveness_changes(NodeAddress n) const {
    auto it = liveness_changes_.find(n);
    return it == liveness_changes_.end() ? 0 : it->second;
  }

  [[nodiscard]] const TrafficStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = TrafficStats{}; }
  /// Overwrite the aggregate counters with a snapshot taken earlier via
  /// `stats()`. The parallel batch driver uses this to re-apply recorded
  /// state actions on the master overlay without re-charging their traffic
  /// (the charges already live in the per-query reports).
  void restore_stats(const TrafficStats& stats) { stats_ = stats; }

  [[nodiscard]] const CostModel& cost_model() const noexcept { return model_; }

  /// Observe every charged message (node-local interactions are not
  /// messages and are not traced). Pass nullptr to detach. Used by tests to
  /// assert protocol message sequences and by tools for debugging.
  using Tracer = std::function<void(const MessageEvent&)>;
  void set_tracer(Tracer tracer) { tracer_ = std::move(tracer); }
  [[nodiscard]] const Tracer& tracer() const noexcept { return tracer_; }

  /// Observe every charged timeout (see `timeout()`). Pass nullptr to
  /// detach. Separate from the message tracer because a timeout is the
  /// *absence* of a message: it carries no bytes, only charged wait.
  using TimeoutTracer = std::function<void(const TimeoutEvent&)>;
  void set_timeout_tracer(TimeoutTracer tracer) {
    timeout_tracer_ = std::move(tracer);
  }
  [[nodiscard]] const TimeoutTracer& timeout_tracer() const noexcept {
    return timeout_tracer_;
  }

 private:
  CostModel model_;
  TrafficStats stats_;
  std::set<NodeAddress> failed_;
  std::map<NodeAddress, std::uint64_t> liveness_changes_;
  NodeAddress next_address_ = 1;
  Tracer tracer_;
  TimeoutTracer timeout_tracer_;
};

}  // namespace ahsw::net
