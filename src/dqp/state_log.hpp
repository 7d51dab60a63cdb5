// The parallel driver's record-and-replay discipline, as a type.
//
// A query mutates shared overlay state in two ways only: the paper's lazy
// index repair after a dead-provider timeout (Sect. III-D) and its
// initiator's location-row cache (docs/caching.md). The parallel batch
// driver keeps those mutations serial-equivalent by recording each one as a
// StateAction on the worker's cloned overlay and replaying the logs on the
// master in the serial driver's (time, query, task) order.
//
// The executor reaches the overlay through one RecordingOverlay. Its reads
// go through `const HybridOverlay&`; its only non-const calls are `locate`
// and `network()` (per-worker clone state the driver merges separately) and
// five mutators. Each mutator builds its StateAction once, applies it
// through `apply` — the function the driver replays logs through — and
// appends it to the attached log, if any. The executor holds no non-const
// HybridOverlay, so a shared-state mutation that bypasses the log does not
// compile.
#pragma once

#include <cstdint>
#include <vector>

#include "net/event_queue.hpp"
#include "overlay/overlay.hpp"

namespace ahsw::dqp {

/// One shared-overlay mutation performed by the executor on behalf of a
/// query. The ordering key is the *enclosing fire's* event key — the serial
/// scheduler orders whole fires, and mutations within one fire happen in
/// program order (`seq` preserves it across the merge). `when` is the
/// simulated time the mutation itself used.
struct StateAction {
  enum class Kind : std::uint8_t {
    kCacheLookup,      // cache_for(initiator).lookup(key, when)
    kCacheInsert,      // cache_for(initiator).insert(key, providers, ...)
    kSubscribe,        // subscribe_invalidations(key, initiator)
    kCacheInvalidate,  // cache_for(initiator).invalidate(key)
    kReportDead,       // report_dead_provider(initiator, key, dead, when)
  };
  Kind kind = Kind::kCacheLookup;
  net::SimTime at = 0;        // enclosing fire's event time
  std::uint32_t qid = 0;      // enclosing fire's query id
  std::uint32_t task = 0;     // enclosing fire's task id
  std::uint32_t seq = 0;      // program order within the fire / worker log
  net::SimTime when = 0;      // sim time the mutation was made at
  net::NodeAddress initiator = net::kNoAddress;
  chord::Key key = 0;                        // location-row key
  net::NodeAddress dead = net::kNoAddress;   // kReportDead: dead provider
  chord::Key index_node = 0;                 // kCacheInsert: serving owner
  std::vector<overlay::Provider> providers;  // kCacheInsert: row snapshot
};

/// Ordered per-worker log of shared-state mutations (append-only; already
/// sorted by (at, qid, task, seq) because the worker's event loop is).
using StateLog = std::vector<StateAction>;

/// What applying an action reports back to the executor that made it:
/// the row a cache lookup hit (nullptr on a miss), and whether a cache
/// insert leased the row or an invalidation dropped one.
struct Applied {
  const overlay::CachedRow* row = nullptr;
  bool changed = false;
};

/// Perform `a` on `ov`: the one mutation path of a StateAction, run by the
/// executor as it makes the action and by the parallel driver's replay.
Applied apply(overlay::HybridOverlay& ov, const StateAction& a);

/// The executor's handle on the overlay (see the file comment).
class RecordingOverlay {
 public:
  explicit RecordingOverlay(overlay::HybridOverlay& ov) noexcept : ov_(&ov) {}

  [[nodiscard]] const overlay::HybridOverlay& view() const noexcept {
    return *ov_;
  }

  // Per-worker clone state: the ring lookup (which may re-attach the
  // requester) and the network the shard charges its traffic to.
  overlay::HybridOverlay::Located locate(net::NodeAddress requester,
                                         const rdf::TriplePattern& p,
                                         net::SimTime now) {
    return ov_->locate(requester, p, now);
  }
  [[nodiscard]] net::Network& network() noexcept { return ov_->network(); }

  /// Append every action to `log` (nullptr: apply only).
  void attach(StateLog* log) noexcept { log_ = log; }
  /// Stamp the following actions with the fire in progress.
  void enter_fire(const net::ReadyEvent& ev) noexcept { fire_ = ev; }

  // The recorded mutators.
  const overlay::CachedRow* cache_lookup(net::NodeAddress initiator,
                                         chord::Key key, net::SimTime when);
  /// Cache `loc`'s row, fetched at `loc.completed_at`. Returns true when
  /// the row was leased. The action borrows `loc.providers` and hands
  /// them back, so a run without a log copies them only into the cache.
  bool cache_insert(net::NodeAddress initiator, chord::Key key,
                    overlay::HybridOverlay::Located& loc);
  void subscribe(net::NodeAddress initiator, chord::Key key,
                 net::SimTime when);
  bool cache_invalidate(net::NodeAddress initiator, chord::Key key,
                        net::SimTime when);
  void report_dead(net::NodeAddress reporter, chord::Key key,
                   net::NodeAddress dead, net::SimTime when);

 private:
  /// Apply `a`, then append it to the log when one is attached.
  Applied perform(StateAction&& a);
  /// Stamp `a` with the fire in progress and append it to the log.
  void append(StateAction&& a);

  overlay::HybridOverlay* ov_;
  StateLog* log_ = nullptr;
  net::ReadyEvent fire_;
  std::uint32_t seq_ = 0;  // next StateAction seq
};

}  // namespace ahsw::dqp
