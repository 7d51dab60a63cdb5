#include "overlay/location_cache.hpp"

#include <utility>

namespace ahsw::overlay {

void CacheStats::accumulate(const CacheStats& d) noexcept {
  hits += d.hits;
  misses += d.misses;
  invalidations += d.invalidations;
  expirations += d.expirations;
  insertions += d.insertions;
  leases += d.leases;
}

CacheStats CacheStats::delta_since(const CacheStats& before) const noexcept {
  CacheStats d;
  d.hits = hits - before.hits;
  d.misses = misses - before.misses;
  d.invalidations = invalidations - before.invalidations;
  d.expirations = expirations - before.expirations;
  d.insertions = insertions - before.insertions;
  d.leases = leases - before.leases;
  return d;
}

const CachedRow* LocationCache::lookup(chord::Key key, net::SimTime now) {
  ++accesses_[key];
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (now >= it->second.expires_at) {
    rows_.erase(it);
    ++stats_.expirations;
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second;
}

bool LocationCache::insert(chord::Key key, std::vector<Provider> providers,
                           chord::Key index_node, net::SimTime now) {
  CachedRow row;
  row.providers = std::move(providers);
  row.index_node = index_node;
  row.inserted_at = now;
  row.leased = access_count(key) >= config_.hot_threshold;
  row.expires_at = now + (row.leased ? config_.hot_ttl_ms : config_.ttl_ms);
  bool leased = row.leased;
  auto [it, fresh] = rows_.insert_or_assign(key, std::move(row));
  (void)it;
  if (fresh) evict_for_capacity();
  ++stats_.insertions;
  if (leased) ++stats_.leases;
  return leased;
}

bool LocationCache::invalidate(chord::Key key) {
  if (rows_.erase(key) == 0) return false;
  ++stats_.invalidations;
  return true;
}

std::size_t LocationCache::invalidate_provider(net::NodeAddress address) {
  std::size_t dropped = 0;
  for (auto it = rows_.begin(); it != rows_.end();) {
    bool lists = false;
    for (const Provider& p : it->second.providers) {
      if (p.address == address) {
        lists = true;
        break;
      }
    }
    if (lists) {
      it = rows_.erase(it);
      ++stats_.invalidations;
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

void LocationCache::evict_for_capacity() {
  while (rows_.size() > config_.max_rows) {
    // Deterministic victim: earliest expiry, ties by key order. No LRU
    // clocks, no randomness — replay must reproduce the same evictions.
    auto victim = rows_.begin();
    for (auto it = std::next(rows_.begin()); it != rows_.end(); ++it) {
      if (it->second.expires_at < victim->second.expires_at) victim = it;
    }
    rows_.erase(victim);
  }
}

}  // namespace ahsw::overlay
