// Per-query trace spans with phase-attributed cost.
//
// The paper's two optimization criteria — total inter-site data transmission
// and response time (Sect. III-E, IV) — are only actionable when they can be
// attributed to the Fig. 3 workflow phases (index lookup -> sub-query ship
// -> local exec -> chain merge -> post-process). A QueryTrace is a tree of
// spans, one per phase and per strategy step, each carrying logical
// start/end time, message/byte counts with per-category breakdowns, timeout
// counts, and the node addresses involved.
//
// Attribution is driven by the network tracer: a bound QueryTrace observes
// every charged message and timeout and books it against the innermost open
// span (exactly one span per event, so summing self-counters over a span
// tree reproduces the query's TrafficStats delta). Span structure follows
// the processor's call structure via the RAII SpanScope recorder; with a
// null trace every scope is a no-op, so instrumented code pays nothing when
// observability is off.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"

namespace ahsw::dqp {
class DagExecutor;
}  // namespace ahsw::dqp

namespace ahsw::obs {

using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = 0xffffffffu;

/// What a span measures: one Fig. 3 workflow phase or one strategy step.
enum class SpanKind : std::uint8_t {
  kQuery = 0,      // root: one query end to end
  kPlan,           // parse + transform + global optimization (no traffic)
  kIndexLookup,    // two-level index consultation (Fig. 2)
  kRingRoute,      // Chord find_successor within a lookup
  kPattern,        // one triple pattern under one primitive strategy
  kSubQueryShip,   // shipping the sub-query (text + plan metadata)
  kLocalExec,      // per-provider local evaluation (scatter/gather)
  kChainHop,       // one provider visit of a chain (in-network merge)
  kShip,           // intermediate solution-set transfer
  kJoinSite,       // binary join/union executed at the selected site
  kPostProcess,    // final ship to the initiator + solution modifiers
  kTimeout,        // failure-detection wait on a dead peer (leaf)
  kRepair,         // lazy location-table repair (Sect. III-D)
  kRetry,          // one bounded re-dispatch after a dead-provider timeout
  kCache,          // location-row cache hit / miss / invalidation (leaf)
};
inline constexpr int kSpanKindCount = 15;

[[nodiscard]] std::string_view span_kind_name(SpanKind k) noexcept;

/// One node of the trace tree. Counters are *self* counters: every charged
/// event lands in exactly one span, so subtree totals are sums over spans.
struct Span {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  SpanKind kind = SpanKind::kQuery;
  std::string label;
  net::NodeAddress site = net::kNoAddress;  // primary node of this step
  net::SimTime begin = 0;
  net::SimTime end = 0;
  net::TrafficStats traffic;  // self counters, counted as the network counts
  /// Every node address that sent or received inside this span (sorted).
  std::vector<net::NodeAddress> peers;
  std::vector<SpanId> children;
};

/// A span tree (a forest when several queries share one trace), fed by the
/// network's message and timeout tracers while bound.
class QueryTrace {
 public:
  QueryTrace() = default;
  ~QueryTrace();
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  /// Install this trace as the network's message + timeout tracer. A
  /// previously installed tracer keeps observing (events are forwarded), so
  /// test tracers and traces compose. Rebinding to the same network is a
  /// no-op; binding to another network unbinds first.
  void bind(net::Network& network);
  /// Restore the tracers that were installed before `bind`. Called by the
  /// destructor, so a stack-allocated trace cannot dangle.
  void unbind();
  [[nodiscard]] bool bound() const noexcept { return net_ != nullptr; }

  /// Drop all recorded spans (the binding is kept). Lets one trace be
  /// reused across queries without accumulating a forest.
  void clear();

  /// Graft a closed subtree of `donor` into this trace as a new root,
  /// copying every span and remapping ids (children keep their relative
  /// order). Returns the new root's id in this trace. The parallel batch
  /// driver uses this to merge per-worker span forests onto the master
  /// trace in query-id order, so a merged forest renders exactly like the
  /// serial driver's. No span may be open here (`active() == kNoSpan`).
  SpanId adopt_subtree(const QueryTrace& donor, SpanId root);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const Span& span(SpanId id) const { return spans_.at(id); }
  [[nodiscard]] const std::vector<SpanId>& roots() const noexcept {
    return roots_;
  }
  [[nodiscard]] SpanId active() const noexcept {
    return stack_.empty() ? kNoSpan : stack_.back();
  }

  /// Subtree totals (self counters summed over `id` and its descendants).
  [[nodiscard]] net::TrafficStats subtree(SpanId id) const;

  /// Events charged while the trace was bound but no span was open (e.g.
  /// setup traffic). Kept out of every span so span sums stay meaningful.
  [[nodiscard]] const net::TrafficStats& unattributed() const noexcept {
    return unattributed_;
  }

 private:
  // Span structure is driven only by these three calls, and only a
  // SpanScope or the DAG executor may make them: a scope closes what it
  // opens, and the executor's open_span/close_span/reopen_span helpers
  // re-enter a task's span around each firing, because firings of
  // different queries interleave and cannot hold one C++ scope per task.
  // Any other caller does not compile, so every span tree stays balanced
  // (an unbalanced tree corrupts I5 attribution).
  friend class SpanScope;
  friend class dqp::DagExecutor;

  /// Open a span as a child of the innermost open span (a new root when no
  /// span is open). Returns its id.
  SpanId open(SpanKind kind, std::string label, net::SimTime at,
              net::NodeAddress site = net::kNoAddress);
  /// Close the innermost open span (must be `id`). The end time is the max
  /// of the begin time, `at`, and all activity observed inside the span.
  void close(SpanId id, net::SimTime at);

  /// Push an existing (closed) span back onto the attribution stack: new
  /// spans opened while it is active become its children and traffic lands
  /// in its self counters again. Close with `close(id, ...)` as usual. The
  /// DAG executor uses this to attach each operator firing under its query's
  /// root (or pattern) span even though firings of different queries
  /// interleave in event order.
  void reopen(SpanId id);

  void on_message(const net::MessageEvent& e);
  void on_timeout(const net::TimeoutEvent& e);
  void add_peer(Span& s, net::NodeAddress addr);

  std::vector<Span> spans_;
  std::vector<SpanId> stack_;
  std::vector<SpanId> roots_;
  net::Network* net_ = nullptr;
  net::Network::Tracer prev_tracer_;
  net::Network::TimeoutTracer prev_timeout_tracer_;
  net::TrafficStats unattributed_;
};

/// RAII recorder: opens a span on construction, closes it on destruction.
/// With a null trace every operation is a no-op, so instrumentation sites
/// need no branching.
class SpanScope {
 public:
  SpanScope(QueryTrace* trace, SpanKind kind, std::string label,
            net::SimTime at, net::NodeAddress site = net::kNoAddress)
      : trace_(trace) {
    if (trace_ != nullptr) {
      id_ = trace_->open(kind, std::move(label), at, site);
    }
  }
  ~SpanScope() {
    if (trace_ != nullptr) trace_->close(id_, end_hint_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Record the logical completion time (folded into the span's end on
  /// close; activity observed later still extends it).
  void finish(net::SimTime at) { end_hint_ = at; }

  [[nodiscard]] SpanId id() const noexcept { return id_; }

 private:
  QueryTrace* trace_;
  SpanId id_ = kNoSpan;
  net::SimTime end_hint_ = 0;
};

}  // namespace ahsw::obs
