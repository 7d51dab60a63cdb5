#include "overlay/overlay.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

#include "common/audit_switch.hpp"

namespace ahsw::overlay {

namespace {
// key + address + frequency
constexpr net::Charge kPublish = net::Charge::fixed(24);
// Owner-to-replica pushes additionally carry the owner's per-entry version
// (replicas mirror it verbatim and use it to reject reordered pushes), so
// they are 4 bytes wider than a plain publish.
constexpr net::Charge kReplicaPush = net::Charge::fixed(28);
constexpr net::Charge kRequest = net::Charge::fixed(32);  // key + requester
}  // namespace

HybridOverlay::HybridOverlay(net::Network& network, OverlayConfig config)
    : net_(&network),
      config_(config),
      ring_(network, config.ring),
      id_rng_(config.seed) {
  ring_.set_transfer_hook([this](chord::Key old_owner, chord::Key new_owner,
                                 chord::Key lo, chord::Key hi,
                                 net::SimTime when) {
    on_transfer(old_owner, new_owner, lo, hi, when);
  });
}

HybridOverlay::HybridOverlay(const HybridOverlay& other)
    : net_(other.net_),
      config_(other.config_),
      ring_(other.ring_),
      index_(other.index_),
      index_by_address_(other.index_by_address_),
      dict_(std::make_unique<rdf::TermDictionary>(*other.dict_)),
      storage_(other.storage_),
      id_rng_(other.id_rng_),
      attach_counter_(other.attach_counter_),
      trace_(other.trace_),
      cache_config_(other.cache_config_),
      caches_(other.caches_),
      cache_subscribers_(other.cache_subscribers_),
      replicas_synced_(other.replicas_synced_),
      synced_topology_(other.synced_topology_),
      synced_liveness_(other.synced_liveness_),
      replica_sync_violations_(other.replica_sync_violations_) {
  // The copied stores still point at the other overlay's dictionary.
  for (auto& [addr, s] : storage_) s.store.rebind(*dict_);
}

std::unique_ptr<HybridOverlay> HybridOverlay::clone_for_worker(
    net::Network& network) const {
  auto clone = std::unique_ptr<HybridOverlay>(new HybridOverlay(*this));
  clone->net_ = &network;
  clone->ring_.rebind_network(network);
  // The copied transfer hook still captures the master overlay; re-point it
  // at the clone (unique_ptr keeps the address stable).
  HybridOverlay* raw = clone.get();
  clone->ring_.set_transfer_hook([raw](chord::Key old_owner,
                                       chord::Key new_owner, chord::Key lo,
                                       chord::Key hi, net::SimTime when) {
    raw->on_transfer(old_owner, new_owner, lo, hi, when);
  });
  // The master's trace must not leak into the clone: spans recorded off it
  // would interleave nondeterministically across threads. The parallel
  // driver re-attaches a shard-private trace for traced batches.
  clone->trace_ = nullptr;
  clone->ring_.set_trace(nullptr);
  return clone;
}

chord::Key HybridOverlay::add_index_node(net::SimTime now) {
  chord::Key id = ring_.truncate(id_rng_.next());
  while (ring_.contains(id)) id = ring_.truncate(id_rng_.next());
  return add_index_node_with_id(id, now);
}

chord::Key HybridOverlay::add_index_node_with_id(chord::Key id,
                                                 net::SimTime now) {
  id = ring_.truncate(id);
  net::NodeAddress addr = net_->allocate_address();
  if (ring_.size() == 0) {
    ring_.create(addr, id);
  } else {
    // Bootstrap through any live ring node (lowest id, deterministically).
    ring_.join(addr, id, *ring_.first_live_id(), now);
  }
  IndexNodeState state;
  state.id = id;
  state.address = addr;
  index_.emplace(id, std::move(state));
  index_by_address_[addr] = id;
  return id;
}

net::NodeAddress HybridOverlay::add_storage_node() {
  assert(!index_.empty());
  std::vector<chord::Key> live = ring_.live_ids();
  chord::Key target = live[attach_counter_++ % live.size()];
  return add_storage_node_attached(target);
}

net::NodeAddress HybridOverlay::add_storage_node_attached(
    chord::Key index_id) {
  assert(index_.count(index_id) > 0);
  StorageNodeState s(*dict_);
  s.address = net_->allocate_address();
  s.attached_index = index_id;
  net::NodeAddress addr = s.address;
  storage_.emplace(addr, std::move(s));
  return addr;
}

std::vector<net::NodeAddress> HybridOverlay::live_storage_addresses() const {
  std::vector<net::NodeAddress> out;
  for (const auto& [addr, s] : storage_) {
    if (!net_->is_failed(addr)) out.push_back(addr);
  }
  return out;
}

chord::Key HybridOverlay::entry_ring_node(net::NodeAddress requester) {
  auto si = storage_.find(requester);
  if (si == storage_.end()) {
    // An index node fields its own requests; the address index replaces
    // the former O(ring) scan over index_.
    auto ii = index_by_address_.find(requester);
    if (ii != index_by_address_.end()) return ii->second;
    assert(false && "unknown requester address");
    return 0;
  }
  StorageNodeState& s = si->second;
  if (!ring_.contains(s.attached_index) ||
      net_->is_failed(ring_.address_of(s.attached_index))) {
    // Re-attach to the lowest live index node (deterministic; no full
    // live-id materialization on this per-request path).
    std::optional<chord::Key> live = ring_.first_live_id();
    assert(live.has_value() && "no live index nodes");
    s.attached_index = *live;
  }
  return s.attached_index;
}

void HybridOverlay::on_transfer(chord::Key old_owner, chord::Key new_owner,
                                chord::Key lo, chord::Key hi,
                                net::SimTime when) {
  auto oi = index_.find(old_owner);
  auto ni = index_.find(new_owner);
  if (oi == index_.end()) return;
  // The new owner may not be registered yet during its own join; stash the
  // slice under its id — add_index_node_with_id registers right after join,
  // so create the state eagerly here.
  if (ni == index_.end()) {
    IndexNodeState fresh;
    fresh.id = new_owner;
    fresh.address = ring_.contains(new_owner) ? ring_.address_of(new_owner)
                                              : net::kNoAddress;
    ni = index_.emplace(new_owner, std::move(fresh)).first;
    if (ni->second.address != net::kNoAddress) {
      index_by_address_[ni->second.address] = new_owner;
    }
  }
  RowSnapshot slice = oi->second.table.extract_range(
      lo, hi, [this](chord::Key k) { return ring_.truncate(k); });
  if (slice.empty()) return;
  std::size_t bytes = 8;
  for (const Row& r : slice) {
    bytes += LocationTable::row_bytes(r.providers.size());
  }
  net_->send(oi->second.address, ni->second.address, net::Charge::fixed(bytes),
             when, net::Category::kIndex);
  ni->second.table.absorb(slice);
  // Re-replicate the transferred entries as their new owner now holds them:
  // replica placement follows ownership, otherwise a later crash of the new
  // owner would lose rows whose replicas still trail the old owner.
  for (Row& r : slice) {
    for (Provider& p : r.providers) {
      KeyedEntry held{r.key, p};
      ni->second.table.held({&held, 1});
      p = held.provider;
    }
  }
  replicate_rows(ni->second, slice, when);
}

std::vector<IndexNodeState*> HybridOverlay::replica_targets(chord::Key owner) {
  std::vector<IndexNodeState*> out;
  if (config_.replication_factor <= 1 || !ring_.contains(owner)) return out;
  const auto copies = static_cast<std::size_t>(config_.replication_factor - 1);
  for (chord::Key succ : ring_.state(owner).successors) {
    if (out.size() >= copies) break;
    auto it = index_.find(succ);
    if (it != index_.end() && succ != owner) out.push_back(&it->second);
  }
  return out;
}

std::size_t HybridOverlay::replicate_rows(IndexNodeState& owner,
                                          std::span<const Row> rows,
                                          net::SimTime now, bool merge) {
  const std::vector<IndexNodeState*> targets = replica_targets(owner.id);
  // The pushes are charged in the order of one push per entry and replica;
  // each replica then merges the rows whole.
  for (const Row& r : rows) {
    for (std::size_t i = 0; i < r.providers.size(); ++i) {
      for (IndexNodeState* replica : targets) {
        net_->send(owner.address, replica->address, kReplicaPush, now,
                   net::Category::kIndex);
      }
    }
  }
  std::size_t changed = 0;
  if (merge) {
    for (IndexNodeState* replica : targets) {
      changed += replica->replicas.mirror(rows);
    }
  }
  return changed;
}

std::uint64_t HybridOverlay::index_liveness() const {
  std::uint64_t changes = 0;
  for (const auto& [id, ix] : index_) {
    changes += net_->liveness_changes(ix.address);
  }
  return changes;
}

bool HybridOverlay::replicas_in_sync() const {
  return replicas_synced_ && ring_.topology() == synced_topology_ &&
         index_liveness() == synced_liveness_;
}

void HybridOverlay::configure_caches(const CacheConfig& config) {
  cache_config_ = config;
  caches_.clear();
  cache_subscribers_.clear();
}

LocationCache& HybridOverlay::cache_for(net::NodeAddress initiator) {
  auto it = caches_.find(initiator);
  if (it == caches_.end()) {
    it = caches_.emplace(initiator, LocationCache(cache_config_)).first;
  }
  return it->second;
}

void HybridOverlay::subscribe_invalidations(chord::Key key,
                                            net::NodeAddress initiator) {
  cache_subscribers_[key].insert(initiator);
}

CacheStats HybridOverlay::cache_stats_total() const {
  CacheStats total;
  for (const auto& [addr, cache] : caches_) total.accumulate(cache.stats());
  return total;
}

void HybridOverlay::push_invalidations(chord::Key key,
                                       net::NodeAddress owner_addr,
                                       net::SimTime now, bool charge) {
  auto it = cache_subscribers_.find(key);
  if (it == cache_subscribers_.end()) return;
  for (net::NodeAddress initiator : it->second) {
    auto ci = caches_.find(initiator);
    if (ci != caches_.end()) ci->second.invalidate(key);
    if (charge) {
      net_->send(owner_addr, initiator, kInvalidation, now,
                 net::Category::kIndex);
    }
  }
  // One-shot leases: the cached rows are gone, so the next miss re-fetches
  // and re-subscribes if the key is still hot.
  cache_subscribers_.erase(it);
}

net::SimTime HybridOverlay::publish_keys(
    net::NodeAddress from, const std::map<chord::Key, std::uint32_t>& keys,
    PublishOp op, net::SimTime now) {
  // Send pass: every key's messages, in key order. No send depends on what
  // a table holds, so the writes can follow in bulk.
  struct Delivered {
    IndexNodeState* owner;
    KeyedEntry write;
  };
  std::vector<Delivered> delivered;
  delivered.reserve(keys.size());
  net::SimTime latest = now;
  const chord::Key entry = entry_ring_node(from);
  const net::NodeAddress entry_addr = ring_.address_of(entry);
  // Consecutive keys mostly share an owner; its replicas are walked once.
  const IndexNodeState* targets_of = nullptr;
  std::vector<IndexNodeState*> targets;
  for (const auto& [key, freq] : keys) {
    net::SimTime t = net_->send(from, entry_addr, kPublish, now,
                                net::Category::kIndex);
    // Rows are keyed by the full hash Kj; the ring routes its truncation.
    chord::Ring::LookupResult lr =
        ring_.find_successor(entry, ring_.truncate(key), t);
    auto it = index_.end();
    if (lr.ok) {
      t = net_->send(entry_addr, lr.owner_address, kPublish, lr.completed_at,
                     net::Category::kIndex);
      it = index_.find(lr.owner);
    }
    latest = std::max(latest, t);
    if (it == index_.end()) continue;
    IndexNodeState& owner = it->second;
    if (targets_of != &owner) {
      targets = replica_targets(owner.id);
      targets_of = &owner;
    }
    for (IndexNodeState* replica : targets) {
      net_->send(owner.address, replica->address, kReplicaPush, t,
                 net::Category::kIndex);
    }
    // Owner-side mutation: leased cached copies of this row are now stale —
    // push their invalidations (charged, they are real messages).
    push_invalidations(key, owner.address, t, /*charge=*/true);
    delivered.push_back({&owner, {key, {from, freq, 0}}});
  }

  // Write pass: one forward walk per owner table (the stable sort keeps
  // keys ascending within an owner). The owner's resulting entries, read
  // the same way, are queued for each of its replicas.
  std::stable_sort(delivered.begin(), delivered.end(),
                   [](const Delivered& a, const Delivered& b) {
                     return a.owner->id < b.owner->id;
                   });
  std::vector<KeyedEntry> batch;
  std::vector<std::pair<IndexNodeState*, std::vector<KeyedEntry>>> mirrors;
  for (auto group = delivered.begin(); group != delivered.end();) {
    IndexNodeState& owner = *group->owner;
    batch.clear();
    for (; group != delivered.end() && group->owner == &owner; ++group) {
      batch.push_back(group->write);
    }
    switch (op) {
      case PublishOp::kAdd:
        owner.table.publish(batch);
        break;
      case PublishOp::kRetract:
        owner.table.retract(batch);
        break;
      case PublishOp::kSnapshot:
        owner.table.upsert(batch);
        break;
    }
    targets = replica_targets(owner.id);
    if (targets.empty()) continue;
    owner.table.held(batch);
    for (IndexNodeState* replica : targets) {
      auto m = std::find_if(mirrors.begin(), mirrors.end(),
                            [&](const auto& q) { return q.first == replica; });
      if (m == mirrors.end()) m = mirrors.insert(m, {replica, {}});
      m->second.insert(m->second.end(), batch.begin(), batch.end());
    }
  }

  // Mirror pass: one forward walk per replica table, its entries (runs from
  // several owners) back in key order.
  for (auto& [replica, entries] : mirrors) {
    std::sort(entries.begin(), entries.end(),
              [](const KeyedEntry& a, const KeyedEntry& b) {
                return a.key < b.key;
              });
    replica->replicas.mirror(entries);
  }
  return latest;
}

net::SimTime HybridOverlay::share_triples(
    net::NodeAddress addr, const std::vector<rdf::Triple>& triples,
    net::SimTime now) {
  StorageNodeState& s = storage_.at(addr);
  const std::size_t kinds = config_.pair_keys ? kIndexKeyKinds : 3u;
  std::map<chord::Key, std::uint32_t> delta;
  for (const rdf::Triple& t : triples) {
    if (!s.store.insert(t)) continue;  // duplicate: nothing to publish
    std::array<chord::Key, kIndexKeyKinds> keys = index_keys(t);
    for (std::size_t k = 0; k < kinds; ++k) ++delta[keys[k]];
  }
  s.store.refresh_order();  // the overlay dictionary ranks the new terms
  // Publishes for distinct keys proceed in parallel; completion is the max.
  const net::SimTime latest = publish_keys(addr, delta, PublishOp::kAdd, now);
  for (const auto& [key, freq] : delta) s.published[key] += freq;
  return latest;
}

net::SimTime HybridOverlay::unshare_triples(
    net::NodeAddress addr, const std::vector<rdf::Triple>& triples,
    net::SimTime now) {
  StorageNodeState& s = storage_.at(addr);
  const std::size_t kinds = config_.pair_keys ? kIndexKeyKinds : 3u;
  std::map<chord::Key, std::uint32_t> delta;
  for (const rdf::Triple& t : triples) {
    if (!s.store.erase(t)) continue;
    std::array<chord::Key, kIndexKeyKinds> keys = index_keys(t);
    for (std::size_t k = 0; k < kinds; ++k) ++delta[keys[k]];
  }
  const net::SimTime latest =
      publish_keys(addr, delta, PublishOp::kRetract, now);
  for (const auto& [key, freq] : delta) {
    auto it = s.published.find(key);
    if (it != s.published.end()) {
      it->second = it->second > freq ? it->second - freq : 0;
      if (it->second == 0) s.published.erase(it);
    }
  }
  return latest;
}

std::optional<chord::Key> HybridOverlay::row_key(
    const rdf::TriplePattern& p) const {
  std::optional<PatternKey> pk = key_for_pattern(p);
  if (!pk.has_value()) return std::nullopt;
  if (!config_.pair_keys && (pk->kind == IndexKeyKind::kSP ||
                             pk->kind == IndexKeyKind::kPO ||
                             pk->kind == IndexKeyKind::kSO)) {
    // Three-key ablation mode: downgrade to the most selective single
    // bound attribute (subject, then object, then predicate). Providers
    // are an over-approximation; they filter locally.
    if (const rdf::Term* s = p.bound_s()) return index_key(IndexKeyKind::kS, *s);
    if (const rdf::Term* o = p.bound_o()) return index_key(IndexKeyKind::kO, *o);
    if (const rdf::Term* pr = p.bound_p()) return index_key(IndexKeyKind::kP, *pr);
  }
  return pk->key;
}

HybridOverlay::Located HybridOverlay::locate(net::NodeAddress requester,
                                             const rdf::TriplePattern& p,
                                             net::SimTime now) {
  Located res;
  std::optional<chord::Key> pk = row_key(p);
  if (!pk.has_value()) {
    // (?s, ?p, ?o): the index cannot narrow anything — flood all providers.
    res.broadcast = true;
    res.ok = true;
    res.completed_at = now;
    for (net::NodeAddress addr : live_storage_addresses()) {
      res.providers.push_back(Provider{
          addr, static_cast<std::uint32_t>(storage_.at(addr).store.size())});
    }
    return res;
  }

  chord::Key key = *pk;
  obs::SpanScope span(
      trace_, obs::SpanKind::kIndexLookup,
      trace_ ? "key " + std::to_string(ring_.truncate(key)) : std::string(),
      now, requester);
  chord::Key entry = entry_ring_node(requester);
  net::NodeAddress entry_addr = ring_.address_of(entry);
  net::SimTime t = net_->send(requester, entry_addr, kRequest, now,
                              net::Category::kIndex);
  chord::Ring::LookupResult lr =
      ring_.find_successor(entry, ring_.truncate(key), t);
  if (!lr.ok) {
    res.completed_at = lr.completed_at;
    return res;
  }
  t = net_->send(entry_addr, lr.owner_address, kRequest, lr.completed_at,
                 net::Category::kIndex);
  res.hops = lr.hops;
  res.index_node = lr.owner;

  auto it = index_.find(lr.owner);
  if (it == index_.end()) {
    res.completed_at = t;
    return res;
  }
  res.providers = it->second.table.lookup(key);
  res.ok = true;
  res.completed_at =
      net_->send(lr.owner_address, requester,
                 net::Charge::fixed(
                     LocationTable::response_bytes(res.providers.size())),
                 t, net::Category::kIndex);
  span.finish(res.completed_at);
  return res;
}

net::SimTime HybridOverlay::report_dead_provider(net::NodeAddress reporter,
                                                 chord::Key key,
                                                 net::NodeAddress dead,
                                                 net::SimTime now) {
  chord::Key owner = ring_.oracle_successor(ring_.truncate(key));
  auto it = index_.find(owner);
  if (it == index_.end()) return now;
  obs::SpanScope span(
      trace_, obs::SpanKind::kRepair,
      trace_ ? "purge dead provider " + std::to_string(dead) : std::string(),
      now, reporter);
  net::SimTime t = net_->send(reporter, it->second.address, kPublish, now,
                              net::Category::kIndex);
  it->second.table.purge(key, dead);
  // Forward the purge to the owner's replicas: a replica row left unpurged
  // resurrects the dead provider as soon as the primary fails and repair()
  // promotes it.
  for (IndexNodeState* replica : replica_targets(owner)) {
    net_->send(it->second.address, replica->address, kReplicaPush, t,
               net::Category::kIndex);
    replica->replicas.purge(key, dead);
  }
  // The row changed (the dead provider is gone): leased cached copies are
  // stale. The reporter's own cache is invalidated by the executor's
  // give-up path; other initiators learn through the owner push.
  push_invalidations(key, it->second.address, t, /*charge=*/true);
  span.finish(t);
  return t;
}

void HybridOverlay::index_node_leave(chord::Key id, net::SimTime now) {
  assert(index_.count(id) > 0);
  ring_.leave(id, now);  // fires the transfer hook: table moves to successor
  auto it = index_.find(id);
  if (it != index_.end()) index_by_address_.erase(it->second.address);
  index_.erase(id);
}

void HybridOverlay::index_node_fail(chord::Key id) {
  assert(index_.count(id) > 0);
  ring_.fail(id);
}

void HybridOverlay::storage_node_fail(net::NodeAddress addr) {
  assert(storage_.count(addr) > 0);
  net_->fail(addr);
}

net::SimTime HybridOverlay::storage_node_leave(net::NodeAddress addr,
                                               net::SimTime now) {
  const net::SimTime latest = publish_keys(
      addr, storage_.at(addr).published, PublishOp::kRetract, now);
  storage_.erase(addr);
  return latest;
}

net::SimTime HybridOverlay::storage_node_rejoin(net::NodeAddress addr,
                                                net::SimTime now) {
  StorageNodeState& s = storage_.at(addr);
  assert(!net_->is_failed(addr) && "recover the node before rejoining");
  // Snapshot semantics, not additive: the primary row may still carry the
  // pre-crash entry (lazy repair only purges rows a query actually hit), and
  // where it was purged the tombstone must be revived, not max-merged around.
  return publish_keys(addr, s.published, PublishOp::kSnapshot, now);
}

void HybridOverlay::repair(net::SimTime now) {
  // Drop ring state of failed index nodes, then promote replica rows whose
  // arc the survivors inherited.
  std::vector<chord::Key> failed;
  for (const auto& [id, ix] : index_) {
    if (ring_.contains(id) && net_->is_failed(ix.address)) failed.push_back(id);
  }
  ring_.repair(now);
  for (chord::Key f : failed) {
    auto fi = index_.find(f);
    if (fi != index_.end()) index_by_address_.erase(fi->second.address);
    index_.erase(f);
  }

  // Recovery reconciliation: every surviving replica holder routes its
  // rows to the key's *current* oracle owner (which, after arbitrary join/
  // crash interleavings, need not be the holder itself). reconcile() takes
  // the newer per-entry version (equal versions merge by max frequency), so
  // several holders pushing the same row stay idempotent and a stale holder
  // cannot resurrect an old, higher frequency; owners then re-seed replicas
  // at their own successors.
  //
  // In sync, both merges would change nothing: every write path mirrors its
  // change to the replicas as it lands. Repair then makes every send, in
  // the same order, and merges nothing. Audited runs merge anyway and count
  // any row a merge in sync changes (docs/fault_injection.md).
  const bool synced = replicas_in_sync();
  const bool merge = !synced || common::audit_enabled();
  std::size_t changed = 0;
  std::vector<chord::Key> live;
  for (const auto& [id, ix] : index_) {
    if (ring_.contains(id)) live.push_back(id);
  }
  // Ring members ascending by id, with their index state (null without):
  // the oracle successor of a ring point is the first member at or after
  // it, wrapping to the lowest.
  std::vector<std::pair<chord::Key, IndexNodeState*>> members;
  members.reserve(ring_.size());
  for (const auto& [id, node] : ring_.nodes()) {
    auto it = index_.find(id);
    members.emplace_back(id, it == index_.end() ? nullptr : &it->second);
  }
  auto owner_of = [&](chord::Key key) -> IndexNodeState* {
    auto it = std::lower_bound(
        members.begin(), members.end(), ring_.truncate(key),
        [](const auto& m, chord::Key point) { return m.first < point; });
    return (it == members.end() ? members.front() : *it).second;
  };
  std::vector<std::pair<IndexNodeState*, const Row*>> routed;
  std::vector<const Row*> group;
  std::vector<chord::Key> promoted;
  for (chord::Key holder_id : live) {
    IndexNodeState& holder = index_.at(holder_id);
    routed.clear();
    promoted.clear();
    for (const Row& r : holder.replicas.rows()) {
      IndexNodeState* owner = owner_of(r.key);
      if (owner == nullptr) continue;
      if (owner != &holder) {
        net_->send(holder.address, owner->address,
                   net::Charge::fixed(
                       LocationTable::row_bytes(r.providers.size())),
                   now, net::Category::kIndex);
      } else {
        promoted.push_back(r.key);
      }
      if (merge) routed.emplace_back(owner, &r);
    }
    // One forward walk per owner table; the stable sort keeps each owner's
    // rows ascending by key.
    std::stable_sort(routed.begin(), routed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first->id < b.first->id;
                     });
    for (auto run = routed.begin(); run != routed.end();) {
      IndexNodeState& owner = *run->first;
      group.clear();
      for (; run != routed.end() && run->first == &owner; ++run) {
        group.push_back(run->second);
      }
      changed += owner.table.reconcile(group);
    }
    for (chord::Key key : promoted) holder.replicas.erase_row(key);
  }
  // Owners re-seed every row they now hold at their replicas.
  for (chord::Key owner_id : live) {
    IndexNodeState& owner = index_.at(owner_id);
    changed += replicate_rows(owner, owner.table.rows(), now, merge);
  }
  if (synced) replica_sync_violations_ += changed;
  // A repair whose merges changed rows is not yet a fixpoint: the rows it
  // re-seeded can move again at the next repair (an owner's row mirrored
  // into the replica table of the key's true owner is promoted there).
  replicas_synced_ = changed == 0;
  synced_topology_ = ring_.topology();
  synced_liveness_ = index_liveness();
}

void HybridOverlay::purge_failed_everywhere() {
  std::vector<net::NodeAddress> dead;
  for (const auto& [addr, s] : storage_) {
    if (net_->is_failed(addr)) dead.push_back(addr);
  }
  if (dead.empty()) return;
  for (auto& [id, ix] : index_) {
    for (net::NodeAddress addr : dead) {
      ix.table.purge_everywhere(addr);
      ix.replicas.purge_everywhere(addr);
    }
  }
  // Oracle cleanup extends to the caches: drop every cached row that still
  // lists a dead provider, so post-convergence audits (I6 over cached rows)
  // have the same precondition as the index layer. Charges nothing — like
  // the purge above, this models the eventual outcome, not a protocol.
  for (auto& [initiator, cache] : caches_) {
    for (net::NodeAddress addr : dead) cache.invalidate_provider(addr);
  }
}

net::SimTime HybridOverlay::republish_all(net::SimTime now) {
  net::SimTime latest = now;
  for (auto& [addr, s] : storage_) {
    if (net_->is_failed(addr)) continue;
    latest = std::max(
        latest, publish_keys(addr, s.published, PublishOp::kSnapshot, now));
  }
  return latest;
}

rdf::TripleStore HybridOverlay::merged_store() const {
  rdf::TripleStore merged;
  for (const auto& [addr, s] : storage_) {
    if (net_->is_failed(addr)) continue;
    s.store.for_each([&](const rdf::Triple& t) { merged.insert(t); });
  }
  return merged;
}

}  // namespace ahsw::overlay
