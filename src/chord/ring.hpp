// Chord distributed hash table (Stoica et al., SIGCOMM 2001).
//
// The paper's index nodes "self-organize and form a ring topology"; this
// module is that ring. Identifiers live in an m-bit space (m configurable so
// tests can reproduce the paper's 4-bit Fig. 1 example); each node keeps a
// finger table, a successor list and a predecessor pointer. Routing uses
// only per-node state — the global node map exists for ground-truth
// assertions and test setup, never for message forwarding decisions.
//
// All inter-node steps are charged to the simulated network so experiments
// can measure lookup hops, join cost and failure-repair cost.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "net/network.hpp"
#include "obs/trace.hpp"

namespace ahsw::chord {

using Key = std::uint64_t;

struct RingConfig {
  int bits = 64;                 // m: identifier space is [0, 2^m)
  int successor_list_length = 4; // r: tolerated consecutive failures
};

/// Per-node Chord state. Only this state (plus messages) is consulted when
/// routing on behalf of this node.
struct NodeState {
  Key id = 0;
  net::NodeAddress address = net::kNoAddress;
  std::optional<Key> predecessor;
  std::vector<Key> successors;  // [0] = immediate successor
  std::vector<Key> fingers;     // fingers[i] ~ successor(id + 2^i), size m
};

/// x in (lo, hi] on the ring (modular interval; empty ring => full circle).
[[nodiscard]] bool in_open_closed(Key x, Key lo, Key hi) noexcept;
/// x in (lo, hi) on the ring.
[[nodiscard]] bool in_open_open(Key x, Key lo, Key hi) noexcept;

class Ring {
 public:
  explicit Ring(net::Network& network, RingConfig config = {});

  // -- key space ------------------------------------------------------------

  /// Mask a 64-bit hash into the m-bit identifier space.
  [[nodiscard]] Key truncate(std::uint64_t h) const noexcept {
    return bits_ >= 64 ? h : (h & ((Key{1} << bits_) - 1));
  }

  // -- membership -------------------------------------------------------------

  /// Bootstrap the very first ring node with an explicit identifier.
  Key create(net::NodeAddress address, Key id);

  struct JoinResult {
    Key id = 0;
    int lookup_hops = 0;
    net::SimTime completed_at = 0;
  };

  /// Join a new node via `bootstrap` (an existing ring node). Performs the
  /// successor lookup through the overlay (charged), splices neighbor
  /// pointers, builds the new node's fingers, and fires the transfer hook
  /// for the key range the new node takes over from its successor.
  JoinResult join(net::NodeAddress address, Key id, Key bootstrap,
                  net::SimTime now);

  /// Graceful departure: hands the departing node's key range to its
  /// successor (transfer hook) and splices neighbors.
  void leave(Key id, net::SimTime now);

  /// Abrupt failure: the node stops responding. State is kept until
  /// `repair()` so that routing realistically trips over the corpse.
  void fail(Key id);

  /// Drop failed nodes from the ring and fix successor lists, fingers and
  /// predecessors of the survivors (one charged probe each). The index
  /// layer promotes replica rows itself (HybridOverlay::repair).
  void repair(net::SimTime now);

  // -- lookup -------------------------------------------------------------------

  struct LookupResult {
    Key owner = 0;
    net::NodeAddress owner_address = net::kNoAddress;
    int hops = 0;           // forwarding steps taken
    bool ok = false;
    // The answer's arrival at from_node; on failure, the time the lookup
    // gave up (after any dead-successor timeouts).
    net::SimTime completed_at = 0;
  };

  /// Find successor(key): the ring node whose arc covers `key`. Iterative
  /// forwarding from `from_node` using fingers / successor lists only;
  /// failed next-hops cost a timeout and are routed around. With a trace
  /// attached, the whole lookup is one ring-route span (routing messages and
  /// dead-successor timeouts land in it).
  LookupResult find_successor(Key from_node, Key key, net::SimTime now);

  /// Attach the trace that find_successor records ring-route spans into
  /// (nullptr detaches). The ring never owns the trace.
  void set_trace(obs::QueryTrace* trace) noexcept { trace_ = trace; }

  /// Point this ring at another simulated network (same cost model). Used
  /// when a copied ring must charge its traffic to a worker-local network
  /// instead of the network its source was built on (overlay cloning).
  void rebind_network(net::Network& network) noexcept { net_ = &network; }

  // -- maintenance ------------------------------------------------------------

  /// Oracle finger construction for all nodes (free; used to bootstrap
  /// experiments at a known-good state, standing in for a long sequence of
  /// converged finger-fixing rounds).
  void fix_all_fingers_oracle();

  // -- hooks ---------------------------------------------------------------------

  /// Called when `new_owner` takes over (range_lo, range_hi] from
  /// `old_owner` (index-node join: the location-table slice transfer of
  /// Sect. III-C; graceful leave: the takeover of Sect. III-D).
  using TransferHook = std::function<void(Key old_owner, Key new_owner,
                                          Key range_lo, Key range_hi,
                                          net::SimTime when)>;
  void set_transfer_hook(TransferHook hook) { transfer_ = std::move(hook); }

  // -- introspection (ground truth for tests / experiment setup) -----------------

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] bool contains(Key id) const { return nodes_.count(id) > 0; }
  [[nodiscard]] const NodeState& state(Key id) const { return nodes_.at(id); }
  /// Mutable ground-truth state: a fault-injection hook for tests and the
  /// invariant auditor's seeded-corruption suite (tests/check). Production
  /// code routes every mutation through join/leave/fail/repair. Counts as a
  /// topology change.
  [[nodiscard]] NodeState& mutable_state(Key id) {
    ++topology_;
    return nodes_.at(id);
  }
  [[nodiscard]] const std::map<Key, NodeState>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] net::NodeAddress address_of(Key id) const {
    return nodes_.at(id).address;
  }
  /// Ground-truth successor(key) from the sorted map (test oracle).
  [[nodiscard]] Key oracle_successor(Key key) const;
  /// Live ring nodes in id order.
  [[nodiscard]] std::vector<Key> live_ids() const;
  /// Lowest live node id (nullopt when every node is failed) — the
  /// allocation-free fast path for bootstrap and storage re-attachment,
  /// which only ever want live_ids().front().
  [[nodiscard]] std::optional<Key> first_live_id() const;
  [[nodiscard]] const RingConfig& config() const noexcept { return config_; }

  /// Counts ring topology changes: membership (create, join, leave, a repair
  /// that drops failed nodes), failures (fail) and every successor-list
  /// change, wherever it happens (join, leave, repair,
  /// fix_all_fingers_oracle). Finger updates do not count. The overlay
  /// compares it across repairs: replica placement follows the successor
  /// lists and row ownership follows membership.
  [[nodiscard]] std::uint64_t topology() const noexcept { return topology_; }

 private:
  [[nodiscard]] bool alive(Key id) const;
  /// First live entry of `n`'s successor list (charging timeouts for dead
  /// ones); nullopt if all dead.
  std::optional<Key> first_live_successor(const NodeState& n,
                                          net::SimTime& now);
  /// Closest preceding live finger of `key` from `n`'s tables.
  [[nodiscard]] Key closest_preceding(const NodeState& n, Key key) const;
  /// Rebuild the ground-truth successor list for a node (post-splice).
  void refresh_successor_list(NodeState& n);

  net::Network* net_;
  RingConfig config_;
  int bits_;
  std::map<Key, NodeState> nodes_;
  TransferHook transfer_;
  obs::QueryTrace* trace_ = nullptr;
  std::uint64_t topology_ = 0;
};

}  // namespace ahsw::chord
