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

namespace ahsw::sparql {
struct IdRows;
class MergeAccumulator;
class SolutionSet;
}  // namespace ahsw::sparql

namespace ahsw::net {

class Charge;

namespace wire {
// The only makers of a payload's charge; declared with their siblings in
// net/wire.hpp.
[[nodiscard]] Charge charge(const sparql::SolutionSet& s);
[[nodiscard]] Charge charge(const sparql::MergeAccumulator& acc);
[[nodiscard]] Charge charge(const sparql::IdRows& rows);
}  // namespace wire

/// Logical node address; unique across index and storage nodes.
using NodeAddress = std::uint32_t;
inline constexpr NodeAddress kNoAddress = 0xffffffffu;

/// Simulated time in milliseconds.
using SimTime = double;

/// Traffic categories, so experiments can separate index-maintenance cost
/// from query cost (e.g. E2 vs E3 in DESIGN.md).
enum class Category : std::uint8_t {
  kRouting = 0,   // DHT lookup / ring maintenance traffic
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

/// Aggregate traffic counters. `bytes` is what the cost model charged (each
/// message's Charge::wire()), `raw_bytes` the uncompressed counterpart
/// (Charge::raw()), so the compression ratio is observable wherever traffic
/// is (docs/cost_model.md "Compressed wire charging").
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

  /// Count one charged message of `category`: `wire` bytes billed, `raw`
  /// their uncompressed counterpart. With record_timeout, the one place
  /// that decides how an event counts; the network and the span ledger
  /// both count through it.
  void record_message(Category category, std::size_t wire,
                      std::size_t raw) noexcept {
    const auto c = static_cast<std::size_t>(category);
    ++messages;
    bytes += wire;
    raw_bytes += raw;
    ++messages_by[c];
    bytes_by[c] += wire;
  }
  /// Count one failure-detection timeout of `category`.
  void record_timeout(Category category) noexcept {
    ++timeouts;
    ++timeouts_by[static_cast<std::size_t>(category)];
  }

  [[nodiscard]] TrafficStats delta_since(const TrafficStats& base) const;

  /// Add another stats block (typically a per-query delta) into this one,
  /// aggregate and per-category counters alike. The one sanctioned way to
  /// roll per-query traffic into a report total (rule A2): hand-rolled
  /// `total.bytes += ...` sums silently drift when a counter is added here.
  void accumulate(const TrafficStats& delta) noexcept;

  friend bool operator==(const TrafficStats&,
                         const TrafficStats&) noexcept = default;
};

/// One charged message, as seen by a tracer: `bytes` and `raw_bytes` are
/// its Charge's wire() and raw() (equal for a fixed-format message).
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

/// What one message charges: `wire()`, the size the cost model bills, and
/// `raw()`, the uncompressed size of the same payload. Only net::wire's
/// `charge` makes a payload's charge; every other message has a fixed
/// format with no compressed encoding and is `fixed(n)`. No constructor
/// takes a bare size, so a raw byte count cannot be billed as wire traffic.
class Charge {
 public:
  [[nodiscard]] static constexpr Charge fixed(std::size_t bytes) noexcept {
    return Charge(bytes, bytes);
  }

  [[nodiscard]] constexpr std::size_t wire() const noexcept { return wire_; }
  [[nodiscard]] constexpr std::size_t raw() const noexcept { return raw_; }

  /// One message carrying both payloads (a header and its rows).
  [[nodiscard]] friend constexpr Charge operator+(Charge a,
                                                  Charge b) noexcept {
    return Charge(a.wire_ + b.wire_, a.raw_ + b.raw_);
  }

 private:
  constexpr Charge(std::size_t wire, std::size_t raw) noexcept
      : wire_(wire), raw_(raw) {}

  friend Charge wire::charge(const sparql::SolutionSet& s);
  friend Charge wire::charge(const sparql::MergeAccumulator& acc);
  friend Charge wire::charge(const sparql::IdRows& rows);

  std::size_t wire_;
  std::size_t raw_;
};

/// The simulated network: address allocation, failure injection, and the
/// charging of messages against the cost model.
class Network {
 public:
  explicit Network(CostModel model = {}) : model_(model) {}

  /// Allocate a fresh node address.
  [[nodiscard]] NodeAddress allocate_address() { return next_address_++; }

  /// Charge one message `from` -> `to` starting at `now`; returns its
  /// arrival time. The cost model bills `charge.wire()`; `charge.raw()`
  /// goes to the raw counter. A node-local interaction (from == to) is
  /// free. Sending to a failed node still transmits (and is charged) —
  /// callers discover the failure by timeout; see `timeout()`.
  SimTime send(NodeAddress from, NodeAddress to, Charge charge, SimTime now,
               Category category) {
    return transmit(from, to, charge.wire(), charge.raw(), now, category);
  }

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
  // send's body, on the two sizes: a Charge taken by value out of line is
  // spilled and reloaded on every message.
  SimTime transmit(NodeAddress from, NodeAddress to, std::size_t wire,
                   std::size_t raw, SimTime now, Category category);

  CostModel model_;
  TrafficStats stats_;
  std::set<NodeAddress> failed_;
  std::map<NodeAddress, std::uint64_t> liveness_changes_;
  NodeAddress next_address_ = 1;
  Tracer tracer_;
  TimeoutTracer timeout_tracer_;
};

}  // namespace ahsw::net
