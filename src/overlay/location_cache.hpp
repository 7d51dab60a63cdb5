// Initiator-side cache of location-table rows, with workload-adaptive
// leases for hot rows (the PHD-Store idea — move data placement toward the
// nodes that query it — recast onto the six-key index: a *leased* cached
// row is an extra replica pinned at the initiator that hammers it, kept
// coherent by owner-pushed invalidations instead of a TTL).
//
// Semantics:
//   - A cached row serves `lookup` until its TTL expires, it is invalidated
//     by a dead-provider timeout / retry exhaustion (the executor's
//     give-up path), or the owner pushes an invalidation (leased rows).
//   - Per-key access counts persist across invalidations; once a key has
//     been looked up `hot_threshold` times from this initiator, its next
//     insert is *leased*: the overlay subscribes the initiator at the row
//     owner, the owner pushes invalidations on every row mutation, and the
//     row earns the longer `hot_ttl_ms` because staleness is now bounded by
//     the push, not the clock.
//   - Unleased rows may serve data up to `ttl_ms` stale — the documented
//     staleness bound the auditor checks cached rows against (I3); leased
//     rows must match the authoritative row exactly (I4).
//
// Determinism: state depends only on the (time, query, task)-ordered
// execution history — no wall clock, no randomness — so batch replay with
// caching on stays byte-identical.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "chord/ring.hpp"
#include "net/network.hpp"
#include "overlay/location_table.hpp"

namespace ahsw::overlay {

/// Wire size of one owner-pushed invalidation (key + epoch).
inline constexpr std::size_t kInvalidationBytes = 16;

struct CacheConfig {
  bool enabled = false;
  /// How long an unleased cached row may serve lookups — the staleness
  /// bound for rows the owner does not push invalidations to.
  double ttl_ms = 400.0;
  /// Lookups of one key from one initiator before its rows are leased.
  std::uint32_t hot_threshold = 4;
  /// TTL for leased rows (coherence comes from owner pushes, so the clock
  /// bound only reclaims space).
  double hot_ttl_ms = 4000.0;
  /// Per-initiator row capacity; the earliest-expiring row is evicted.
  std::size_t max_rows = 64;

  friend bool operator==(const CacheConfig&, const CacheConfig&) = default;
};

/// Cache effectiveness counters. Mutated only inside LocationCache (the
/// accounting layer for cache events — ahsw-lint rule A2 enforces this);
/// consumers read snapshots and diff them with delta_since, mirroring
/// net::TrafficStats.
struct CacheStats {
  std::uint64_t hits = 0;           // lookups served from cache (zero traffic)
  std::uint64_t misses = 0;         // lookups that fell through to the ring
  std::uint64_t invalidations = 0;  // rows dropped by timeout/owner push
  std::uint64_t expirations = 0;    // rows dropped by TTL at lookup time
  std::uint64_t insertions = 0;     // rows cached after a miss
  std::uint64_t leases = 0;         // insertions that became leased (hot)

  void accumulate(const CacheStats& d) noexcept;
  [[nodiscard]] CacheStats delta_since(const CacheStats& before) const noexcept;
};

/// One cached location-table row.
struct CachedRow {
  std::vector<Provider> providers;  // ascending frequency (lookup order)
  chord::Key index_node = 0;        // owner that served the row
  net::SimTime inserted_at = 0;     // snapshot time (drives staleness age)
  net::SimTime expires_at = 0;      // TTL horizon
  bool leased = false;              // owner pushes invalidations to us
};

/// The per-initiator cache. Owned by HybridOverlay (one per initiator
/// address, created on first use); the DAG executor consults it before
/// issuing a ring lookup and invalidates on dead-provider give-up.
class LocationCache {
 public:
  explicit LocationCache(CacheConfig config = {}) : config_(config) {}

  /// The cached row for `key` if present and fresh at `now`; counts a hit.
  /// An expired row is dropped (counted as expiration) and, like an absent
  /// row, counts a miss. Every call bumps the key's access count — the
  /// workload signal that drives leasing.
  [[nodiscard]] const CachedRow* lookup(chord::Key key, net::SimTime now);

  /// Cache a row snapshot fetched at `now`. Returns true when the row was
  /// leased (the caller must subscribe the initiator at the row owner).
  bool insert(chord::Key key, std::vector<Provider> providers,
              chord::Key index_node, net::SimTime now);

  /// Drop one cached row (dead-provider timeout, retry exhaustion, or an
  /// owner-pushed invalidation). Returns true if the row was present.
  bool invalidate(chord::Key key);

  /// Drop every cached row listing `address` (bulk convergence cleanup).
  /// Returns the number of rows dropped.
  std::size_t invalidate_provider(net::NodeAddress address);

  /// Drop everything silently (reconfiguration; not counted as
  /// invalidations since nothing observable was served stale).
  void clear();

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::map<chord::Key, CachedRow>& rows() const noexcept {
    return rows_;
  }
  [[nodiscard]] std::uint32_t access_count(chord::Key key) const {
    auto it = accesses_.find(key);
    return it == accesses_.end() ? 0u : it->second;
  }

 private:
  void evict_for_capacity();

  CacheConfig config_;
  CacheStats stats_;
  std::map<chord::Key, CachedRow> rows_;
  /// Per-key lookup counts from this initiator. Persist across
  /// invalidations and evictions: heat is a property of the workload, not
  /// of one cached copy.
  std::map<chord::Key, std::uint32_t> accesses_;
};

}  // namespace ahsw::overlay
