#include "support/publish_reference.hpp"

#include <algorithm>
#include <array>

#include "support/replica_reference.hpp"

namespace ahsw::overlay {
namespace {

using Ref = LocationTableReference;

// key + address + frequency
constexpr net::Charge kPublish = net::Charge::fixed(24);
constexpr net::Charge kReplicaPush = net::Charge::fixed(28);  // ... + version

}  // namespace

std::map<chord::Key, std::uint32_t> OverlayReference::key_deltas(
    const HybridOverlay& ov, const std::vector<rdf::Triple>& triples,
    const std::function<bool(const rdf::Triple&)>& apply) {
  const std::size_t kinds = ov.config_.pair_keys ? kIndexKeyKinds : 3u;
  std::map<chord::Key, std::uint32_t> delta;
  for (const rdf::Triple& t : triples) {
    if (!apply(t)) continue;
    std::array<chord::Key, kIndexKeyKinds> keys = index_keys(t);
    for (std::size_t k = 0; k < kinds; ++k) ++delta[keys[k]];
  }
  return delta;
}

net::SimTime OverlayReference::publish_key(HybridOverlay& ov,
                                           net::NodeAddress from,
                                           chord::Key key, std::uint32_t freq,
                                           PublishOp op, net::SimTime now) {
  chord::Key entry = ov.entry_ring_node(from);
  net::NodeAddress entry_addr = ov.ring_.address_of(entry);
  net::SimTime t = ov.net_->send(from, entry_addr, kPublish, now,
                                 net::Category::kIndex);
  chord::Ring::LookupResult lr =
      ov.ring_.find_successor(entry, ov.ring_.truncate(key), t);
  if (!lr.ok) return t;
  t = lr.completed_at;
  t = ov.net_->send(entry_addr, lr.owner_address, kPublish, t,
                    net::Category::kIndex);
  auto it = ov.index_.find(lr.owner);
  if (it == ov.index_.end()) return t;
  switch (op) {
    case PublishOp::kAdd:
      Ref::publish(it->second.table, key, from, freq);
      break;
    case PublishOp::kRetract:
      Ref::retract(it->second.table, key, from, freq);
      break;
    case PublishOp::kSnapshot:
      Ref::upsert(it->second.table, key, from, freq);
      break;
  }
  replicate_row(ov, it->second, key, from, t);
  ov.push_invalidations(key, it->second.address, t, /*charge=*/true);
  return t;
}

void OverlayReference::replicate_row(HybridOverlay& ov, IndexNodeState& owner,
                                     chord::Key key, net::NodeAddress provider,
                                     net::SimTime now) {
  Provider entry{provider, 0,
                 owner.table.tombstone_version(key, provider).value_or(0)};
  if (const Provider* held = find_entry(owner.table, key, provider)) entry = *held;
  for (IndexNodeState* replica : ov.replica_targets(owner.id)) {
    ov.net_->send(owner.address, replica->address, kReplicaPush, now,
                  net::Category::kIndex);
    Ref::upsert_replica(replica->replicas, key, provider, entry.frequency,
                        entry.version);
  }
}

net::SimTime OverlayReference::share_triples(
    HybridOverlay& ov, net::NodeAddress addr,
    const std::vector<rdf::Triple>& triples, net::SimTime now) {
  StorageNodeState& s = ov.storage_.at(addr);
  const std::map<chord::Key, std::uint32_t> delta = key_deltas(
      ov, triples, [&](const rdf::Triple& t) { return s.store.insert(t); });
  s.store.refresh_order();
  net::SimTime latest = now;
  for (const auto& [key, freq] : delta) {
    latest = std::max(latest,
                      publish_key(ov, addr, key, freq, PublishOp::kAdd, now));
    s.published[key] += freq;
  }
  return latest;
}

net::SimTime OverlayReference::unshare_triples(
    HybridOverlay& ov, net::NodeAddress addr,
    const std::vector<rdf::Triple>& triples, net::SimTime now) {
  StorageNodeState& s = ov.storage_.at(addr);
  const std::map<chord::Key, std::uint32_t> delta = key_deltas(
      ov, triples, [&](const rdf::Triple& t) { return s.store.erase(t); });
  net::SimTime latest = now;
  for (const auto& [key, freq] : delta) {
    latest = std::max(
        latest, publish_key(ov, addr, key, freq, PublishOp::kRetract, now));
    auto it = s.published.find(key);
    if (it != s.published.end()) {
      it->second = it->second > freq ? it->second - freq : 0;
      if (it->second == 0) s.published.erase(it);
    }
  }
  return latest;
}

net::SimTime OverlayReference::storage_node_leave(HybridOverlay& ov,
                                                  net::NodeAddress addr,
                                                  net::SimTime now) {
  net::SimTime latest = now;
  const std::map<chord::Key, std::uint32_t> published =
      ov.storage_.at(addr).published;
  for (const auto& [key, freq] : published) {
    latest = std::max(
        latest, publish_key(ov, addr, key, freq, PublishOp::kRetract, now));
  }
  ov.storage_.erase(addr);
  return latest;
}

net::SimTime OverlayReference::storage_node_rejoin(HybridOverlay& ov,
                                                   net::NodeAddress addr,
                                                   net::SimTime now) {
  net::SimTime latest = now;
  for (const auto& [key, freq] : ov.storage_.at(addr).published) {
    latest = std::max(
        latest, publish_key(ov, addr, key, freq, PublishOp::kSnapshot, now));
  }
  return latest;
}

net::SimTime OverlayReference::republish_all(HybridOverlay& ov,
                                             net::SimTime now) {
  net::SimTime latest = now;
  for (auto& [addr, s] : ov.storage_) {
    if (ov.net_->is_failed(addr)) continue;
    for (const auto& [key, freq] : s.published) {
      latest = std::max(
          latest, publish_key(ov, addr, key, freq, PublishOp::kSnapshot, now));
    }
  }
  return latest;
}

void OverlayReference::repair(HybridOverlay& ov, net::SimTime now) {
  std::vector<chord::Key> failed;
  for (const auto& [id, ix] : ov.index_) {
    if (ov.ring_.contains(id) && ov.net_->is_failed(ix.address)) {
      failed.push_back(id);
    }
  }
  ov.ring_.repair(now);
  for (chord::Key f : failed) {
    auto fi = ov.index_.find(f);
    if (fi != ov.index_.end()) ov.index_by_address_.erase(fi->second.address);
    ov.index_.erase(f);
  }

  // Each replica row goes to its oracle owner on its own.
  std::vector<chord::Key> live;
  for (const auto& [id, ix] : ov.index_) {
    if (ov.ring_.contains(id)) live.push_back(id);
  }
  for (chord::Key holder_id : live) {
    IndexNodeState& holder = ov.index_.at(holder_id);
    std::vector<chord::Key> promoted;
    for (const Row& r : holder.replicas.rows()) {
      chord::Key owner_id =
          ov.ring_.oracle_successor(ov.ring_.truncate(r.key));
      auto oi = ov.index_.find(owner_id);
      if (oi == ov.index_.end()) continue;
      if (owner_id != holder_id) {
        ov.net_->send(holder.address, oi->second.address,
                      net::Charge::fixed(
                          LocationTable::row_bytes(r.providers.size())),
                      now, net::Category::kIndex);
      } else {
        promoted.push_back(r.key);
      }
      Ref::reconcile(oi->second.table, RowSnapshot{r});
    }
    for (chord::Key key : promoted) holder.replicas.erase_row(key);
  }
  // Owners re-seed their replicas: one push per entry and replica.
  for (chord::Key owner_id : live) {
    IndexNodeState& owner = ov.index_.at(owner_id);
    const std::vector<IndexNodeState*> targets = ov.replica_targets(owner_id);
    for (const Row& r : owner.table.rows()) {
      for (std::size_t i = 0; i < r.providers.size(); ++i) {
        for (IndexNodeState* replica : targets) {
          ov.net_->send(owner.address, replica->address, kReplicaPush, now,
                        net::Category::kIndex);
        }
      }
    }
    for (IndexNodeState* replica : targets) {
      Ref::mirror(replica->replicas, owner.table.rows());
    }
  }
}

}  // namespace ahsw::overlay
