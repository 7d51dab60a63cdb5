// The hybrid P2P overlay (Sect. III): index nodes on a Chord ring, storage
// nodes attached to index nodes, and the two-level distributed index that
// maps a triple-pattern key to the storage nodes providing matching triples.
//
// Level 1: Chord maps Hash(attributes) -> the index node owning that key.
// Level 2: that index node's location table maps the key -> providers with
// frequencies (Table I).
//
// Data never leaves its provider: storage nodes publish only (key, address,
// frequency) entries — the paper's core departure from RDFPeers.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "chord/ring.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "overlay/keys.hpp"
#include "overlay/location_cache.hpp"
#include "overlay/location_table.hpp"
#include "rdf/store.hpp"

namespace ahsw::overlay {

struct OverlayConfig {
  chord::RingConfig ring;
  /// Copies of every location-table row: 1 = primary only (no fault
  /// tolerance), k = primary + (k-1) ring successors (Sect. III-D).
  int replication_factor = 1;
  /// Seed for identifier generation.
  std::uint64_t seed = 0x5eed;
  /// The paper's six-key scheme (S, P, O, SP, PO, SO). Setting this to
  /// false publishes only the three RDFPeers-style single-attribute keys;
  /// two-attribute patterns then locate through their most selective single
  /// attribute and over-approximate the provider set (ablation of the
  /// design choice in Sect. III-B).
  bool pair_keys = true;
};

/// An index node: a ring member hosting a location-table shard.
struct IndexNodeState {
  chord::Key id = 0;
  net::NodeAddress address = net::kNoAddress;
  LocationTable table;     // rows this node owns (primary)
  LocationTable replicas;  // rows replicated from ring predecessors
};

/// A storage node: keeps its own triples, attaches to one index node.
struct StorageNodeState {
  explicit StorageNodeState(rdf::TermDictionary& dict) : store(dict) {}

  net::NodeAddress address = net::kNoAddress;
  chord::Key attached_index = 0;
  /// Interns into the overlay's dictionary (HybridOverlay::dictionary()).
  rdf::TripleStore store;
  /// Keys this node has published, with frequencies (for retraction on
  /// departure and republication after index-layer data loss).
  std::map<chord::Key, std::uint32_t> published;
  /// Relative capacity, the QoS attribute consumed by the third-site join
  /// strategy (Ye et al.; Sect. II of the paper).
  double capacity = 1.0;
};

class HybridOverlay {
 public:
  explicit HybridOverlay(net::Network& network, OverlayConfig config = {});

  /// Deep-copy this overlay onto `network` (a worker-local copy of the
  /// master network). The clone carries the full ring, index, storage and
  /// cache state; its ring transfer hook is re-pointed at the clone and any
  /// attached trace is dropped (the parallel driver re-attaches a
  /// shard-private trace for traced batches). Heap-allocated
  /// so the rebound hook's captured pointer stays stable. The clone's
  /// stores intern into its own copy of the term dictionary, so no
  /// dictionary is shared across threads. The parallel batch driver gives
  /// each worker one clone; the master instance is never mutated by worker
  /// execution.
  [[nodiscard]] std::unique_ptr<HybridOverlay> clone_for_worker(
      net::Network& network) const;
  /// A move keeps the heap-held dictionary the stores are bound to. A copy
  /// is made only by clone_for_worker.
  HybridOverlay(HybridOverlay&&) = default;
  HybridOverlay& operator=(const HybridOverlay&) = delete;

  // -- membership ---------------------------------------------------------

  /// Add an index node with a pseudo-random identifier.
  chord::Key add_index_node(net::SimTime now = 0);
  /// Add an index node with an explicit ring identifier (paper topology
  /// tests use the Fig. 1 ids in a 4-bit space).
  chord::Key add_index_node_with_id(chord::Key id, net::SimTime now = 0);

  /// Add a storage node attached round-robin to a live index node.
  net::NodeAddress add_storage_node();
  /// Add a storage node attached to a specific index node.
  net::NodeAddress add_storage_node_attached(chord::Key index_id);

  /// Graceful index-node departure: the successor inherits the location
  /// table (Sect. III-D).
  void index_node_leave(chord::Key id, net::SimTime now);
  /// Crash an index node (no notification; replicas mask the loss).
  void index_node_fail(chord::Key id);
  /// Crash a storage node; location tables stay stale until lazy repair.
  void storage_node_fail(net::NodeAddress addr);
  /// Graceful storage departure: retract every published entry.
  net::SimTime storage_node_leave(net::NodeAddress addr, net::SimTime now);
  /// A crashed-and-recovered storage node re-announces itself: every
  /// remembered published entry is re-pushed as a snapshot, which also
  /// clears any tombstone the lazy repair buried it under. The caller must
  /// have recovered the node in the network first. Returns the completion
  /// time of the slowest republish.
  net::SimTime storage_node_rejoin(net::NodeAddress addr, net::SimTime now);

  /// Ring repair + promotion of replica rows to their new owners.
  void repair(net::SimTime now);
  /// Oracle-driven anti-entropy: drop every currently-failed storage address
  /// from every primary and replica row (tombstoning it, as the lazy purge
  /// would). Lazy repair only cleans rows queries actually hit; the fault
  /// harness runs this as its convergence step so post-convergence audits
  /// (invariant I6) have a precise precondition. Charges no traffic — it
  /// models the eventual outcome of repair, not a protocol.
  void purge_failed_everywhere();
  /// Have every live storage node republish its index entries (the lazy
  /// fallback when replication is off and index state was lost).
  net::SimTime republish_all(net::SimTime now);

  // -- data ----------------------------------------------------------------

  /// Insert triples at a storage node and publish the six index keys per
  /// triple (aggregated per key). The only writer of the overlay's
  /// dictionary: it refreshes the term order once the triples are interned.
  /// Returns the completion time.
  net::SimTime share_triples(net::NodeAddress addr,
                             const std::vector<rdf::Triple>& triples,
                             net::SimTime now);
  /// Remove triples and retract the matching index entries.
  net::SimTime unshare_triples(net::NodeAddress addr,
                               const std::vector<rdf::Triple>& triples,
                               net::SimTime now);

  // -- query support --------------------------------------------------------

  struct Located {
    std::vector<Provider> providers;  // ascending frequency
    chord::Key index_node = 0;        // owner that served the row
    int hops = 0;                     // ring routing hops
    bool broadcast = false;           // fully unbound pattern: flood instead
    bool ok = false;
    net::SimTime completed_at = 0;
    /// Served from the initiator's LocationCache (zero index traffic); the
    /// age makes the frequency snapshot's staleness auditable downstream
    /// (the planner notes it, the auditor bounds it).
    bool cached = false;
    net::SimTime snapshot_age_ms = 0;
  };

  /// Resolve the providers of a triple pattern through the two-level index
  /// (Fig. 2): requester -> its index node -> ring lookup -> owner's
  /// location table -> provider list back to the requester. For the fully
  /// unbound pattern, sets `broadcast` and lists all live storage nodes.
  Located locate(net::NodeAddress requester, const rdf::TriplePattern& p,
                 net::SimTime now);

  /// Lazy location-table repair (Sect. III-D): after a query timeout on
  /// `dead`, the reporter tells the owning index node to drop its entries.
  net::SimTime report_dead_provider(net::NodeAddress reporter,
                                    const rdf::TriplePattern& p,
                                    net::NodeAddress dead, net::SimTime now);

  // -- location-row caching (docs/caching.md) ------------------------------

  /// Install the cache configuration for every initiator-side cache.
  /// Clears existing caches and lease subscriptions (a config change resets
  /// the world; not counted as invalidations).
  void configure_caches(const CacheConfig& config);
  [[nodiscard]] const CacheConfig& cache_config() const noexcept {
    return cache_config_;
  }
  /// The initiator's location-row cache, created on first use with the
  /// installed config. Deterministic: keyed by address only.
  [[nodiscard]] LocationCache& cache_for(net::NodeAddress initiator);
  [[nodiscard]] const std::map<net::NodeAddress, LocationCache>& caches()
      const noexcept {
    return caches_;
  }
  /// Register `initiator` for owner-pushed invalidations of `key`'s row —
  /// the lease behind hot-row extra-replication. One-shot: the subscription
  /// is consumed by the first push (the row is gone from the cache, so the
  /// next miss re-fetches and re-subscribes). Registration itself is free:
  /// it rides the lookup response that delivered the row.
  void subscribe_invalidations(chord::Key key, net::NodeAddress initiator);
  /// Cache counters summed across every initiator.
  [[nodiscard]] CacheStats cache_stats_total() const;

  /// Attach the trace that locate()/report_dead_provider() record
  /// index-lookup and repair spans into; forwarded to the ring so lookups
  /// nest ring-route spans inside (nullptr detaches).
  void set_trace(obs::QueryTrace* trace) noexcept {
    trace_ = trace;
    ring_.set_trace(trace);
  }

  // -- accessors ----------------------------------------------------------------

  [[nodiscard]] rdf::TripleStore& store_of(net::NodeAddress addr) {
    return storage_.at(addr).store;
  }
  [[nodiscard]] const rdf::TripleStore& store_of(net::NodeAddress addr) const {
    return storage_.at(addr).store;
  }
  [[nodiscard]] StorageNodeState& storage_state(net::NodeAddress addr) {
    return storage_.at(addr);
  }
  [[nodiscard]] const std::map<chord::Key, IndexNodeState>& index_nodes()
      const noexcept {
    return index_;
  }
  /// Mutable index-node state: a fault-injection hook for the invariant
  /// auditor's seeded-corruption tests (tests/check). Production code
  /// routes every mutation through publish/retract/transfer/repair.
  [[nodiscard]] IndexNodeState& index_state(chord::Key id) {
    return index_.at(id);
  }
  [[nodiscard]] const std::map<net::NodeAddress, StorageNodeState>&
  storage_nodes() const noexcept {
    return storage_;
  }
  [[nodiscard]] bool is_storage_node(net::NodeAddress addr) const {
    return storage_.count(addr) > 0;
  }
  /// Live storage-node addresses, ascending.
  [[nodiscard]] std::vector<net::NodeAddress> live_storage_addresses() const;

  [[nodiscard]] net::Network& network() noexcept { return *net_; }
  [[nodiscard]] const net::Network& network() const noexcept { return *net_; }
  [[nodiscard]] chord::Ring& ring() noexcept { return ring_; }
  [[nodiscard]] const chord::Ring& ring() const noexcept { return ring_; }
  [[nodiscard]] const OverlayConfig& config() const noexcept {
    return config_;
  }

  /// The ring node that fields DHT requests for `requester`: itself for an
  /// index node, the attached index node for a storage node (re-attaching
  /// to a live one first if the old attachment died).
  [[nodiscard]] chord::Key entry_ring_node(net::NodeAddress requester);

  /// The term dictionary every storage node's store interns into: the ids
  /// of their scans resolve through it.
  [[nodiscard]] const rdf::TermDictionary& dictionary() const noexcept {
    return *dict_;
  }

  /// A merged store containing every live storage node's triples — the
  /// single-site oracle distributed execution is validated against. It
  /// interns into a private dictionary.
  [[nodiscard]] rdf::TripleStore merged_store() const;

  /// The location-table row key a pattern resolves through, honoring the
  /// pair_keys ablation (nullopt for the fully unbound pattern). Public so
  /// the executor's cache path and the auditor can address cached rows by
  /// the same key locate() resolves.
  [[nodiscard]] std::optional<chord::Key> row_key(
      const rdf::TriplePattern& p) const;

 private:
  /// Deep copy for clone_for_worker: the copy's stores intern into the
  /// copy's own dictionary (same ids). Everything else is copied as is.
  HybridOverlay(const HybridOverlay& other);

  /// How publish_keys applies a delivered (key, provider, freq) entry.
  enum class PublishOp : std::uint8_t {
    kAdd,       // additive publish (new triples shared)
    kRetract,   // subtract freq, remove at zero (unshare / leave)
    kSnapshot,  // set freq exactly; idempotent, revives tombstones (rejoin)
  };

  /// Deliver one publish/retract/snapshot per (key, freq) of `keys` from
  /// `from` to each key's owning index node and its replicas. Every message
  /// is sent per key, in key order, as if each key went alone: the entry
  /// hop, the ring hops, the owner hop, one push per replica and the
  /// invalidation pushes. The writes then land grouped by owner, one
  /// forward walk per owner table, and the owners' resulting entries are
  /// mirrored one forward walk per replica table. Returns the completion
  /// time of the slowest key (`now` when there is none).
  net::SimTime publish_keys(net::NodeAddress from,
                            const std::map<chord::Key, std::uint32_t>& keys,
                            PublishOp op, net::SimTime now);
  /// The owner's replica holders: its first replication_factor - 1 ring
  /// successors with index state (Sect. III-D); none with replication off
  /// or once the owner has left the ring.
  std::vector<IndexNodeState*> replica_targets(chord::Key owner);
  /// Push `rows` (ascending by key, entries as the owner holds them) to the
  /// owner's replicas: one push per entry and replica, one row merge per
  /// row and replica.
  void replicate_rows(IndexNodeState& owner, std::span<const Row> rows,
                      net::SimTime now);
  void on_transfer(chord::Key old_owner, chord::Key new_owner, chord::Key lo,
                   chord::Key hi, net::SimTime when);
  /// Push the owner's invalidation of `key` to every lease subscriber
  /// (consuming the subscriptions). `charge` bills one invalidation message
  /// per subscriber as `index` traffic from `owner_addr`; oracle paths
  /// (converge-time cleanup) pass false.
  void push_invalidations(chord::Key key, net::NodeAddress owner_addr,
                          net::SimTime now, bool charge);

  net::Network* net_;
  OverlayConfig config_;
  chord::Ring ring_;
  std::map<chord::Key, IndexNodeState> index_;
  /// Reverse index address -> ring id, maintained alongside index_: the
  /// per-request entry_ring_node path must not scan O(ring) states.
  std::map<net::NodeAddress, chord::Key> index_by_address_;
  /// One dictionary for the whole overlay, heap-held so the stores'
  /// pointers into it stay put. It only grows: terms of erased triples and
  /// departed nodes stay interned for the overlay's lifetime.
  std::unique_ptr<rdf::TermDictionary> dict_ =
      std::make_unique<rdf::TermDictionary>();
  std::map<net::NodeAddress, StorageNodeState> storage_;
  common::Rng id_rng_;
  std::size_t attach_counter_ = 0;
  obs::QueryTrace* trace_ = nullptr;
  CacheConfig cache_config_;
  std::map<net::NodeAddress, LocationCache> caches_;
  /// Lease subscriptions: row key -> initiators to notify on mutation.
  std::map<chord::Key, std::set<net::NodeAddress>> cache_subscribers_;
  // The per-key write path publish_keys batches: its oracle in
  // tests/support.
  friend struct OverlayReference;
};

}  // namespace ahsw::overlay
