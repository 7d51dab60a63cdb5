#include "chord/ring.hpp"

#include <algorithm>
#include <cassert>

#include "common/hash.hpp"

namespace ahsw::chord {

namespace {
/// Size charged for one routing/control message (query id, key, addresses).
constexpr std::size_t kControlBytes = 64;
}  // namespace

bool in_open_closed(Key x, Key lo, Key hi) noexcept {
  if (lo == hi) return true;  // (n, n] wraps the whole ring
  if (lo < hi) return x > lo && x <= hi;
  return x > lo || x <= hi;
}

bool in_open_open(Key x, Key lo, Key hi) noexcept {
  if (lo == hi) return x != lo;  // (n, n) = everything but n
  if (lo < hi) return x > lo && x < hi;
  return x > lo || x < hi;
}

Ring::Ring(net::Network& network, RingConfig config)
    : net_(&network), config_(config), bits_(config.bits) {
  assert(bits_ >= 1 && bits_ <= 64);
}

Key Ring::key_for_address(net::NodeAddress addr) const noexcept {
  return truncate(common::mix64(0x5eed0000ULL + addr));
}

bool Ring::alive(Key id) const {
  auto it = nodes_.find(id);
  return it != nodes_.end() && !net_->is_failed(it->second.address);
}

Key Ring::oracle_successor(Key key) const {
  assert(!nodes_.empty());
  auto it = nodes_.lower_bound(key);
  if (it == nodes_.end()) it = nodes_.begin();
  return it->first;
}

std::vector<Key> Ring::live_ids() const {
  std::vector<Key> out;
  out.reserve(nodes_.size());
  for (const auto& [id, n] : nodes_) {
    if (!net_->is_failed(n.address)) out.push_back(id);
  }
  return out;
}

std::optional<Key> Ring::first_live_id() const {
  for (const auto& [id, n] : nodes_) {
    if (!net_->is_failed(n.address)) return id;
  }
  return std::nullopt;
}

void Ring::refresh_successor_list(NodeState& n) {
  const std::vector<Key> before = n.successors;
  n.successors.clear();
  auto it = nodes_.upper_bound(n.id);
  for (int i = 0; i < config_.successor_list_length; ++i) {
    if (nodes_.size() <= 1) break;
    if (it == nodes_.end()) it = nodes_.begin();
    if (it->first == n.id) break;  // wrapped all the way around
    n.successors.push_back(it->first);
    ++it;
  }
  if (n.successors.empty()) n.successors.push_back(n.id);  // singleton ring
  if (n.successors != before) ++topology_;
}

Key Ring::create(net::NodeAddress address, Key id) {
  id = truncate(id);
  assert(nodes_.empty());
  NodeState n;
  n.id = id;
  n.address = address;
  n.predecessor = id;
  n.successors = {id};
  n.fingers.assign(static_cast<std::size_t>(bits_), id);
  nodes_.emplace(id, std::move(n));
  ++topology_;
  return id;
}

std::optional<Key> Ring::first_live_successor(const NodeState& n,
                                              net::SimTime& now) {
  for (Key s : n.successors) {
    if (alive(s)) return s;
    // Probe the dead entry, give up, move on. The timeout is charged with
    // the suspect's address and routing category so observers and
    // per-category stats see the failure-detection cost (Sect. III-D).
    auto it = nodes_.find(s);
    net::NodeAddress suspect =
        it != nodes_.end() ? it->second.address : net::kNoAddress;
    now = net_->timeout(now, suspect, net::Category::kRouting);
  }
  return std::nullopt;
}

Key Ring::closest_preceding(const NodeState& n, Key key) const {
  // Highest live finger strictly between this node and the key; successor
  // list entries are candidates too (they are the low fingers, effectively).
  for (auto it = n.fingers.rbegin(); it != n.fingers.rend(); ++it) {
    if (in_open_open(*it, n.id, key) && alive(*it)) return *it;
  }
  for (auto it = n.successors.rbegin(); it != n.successors.rend(); ++it) {
    if (in_open_open(*it, n.id, key) && alive(*it)) return *it;
  }
  return n.id;
}

Ring::LookupResult Ring::find_successor(Key from_node, Key key,
                                        net::SimTime now) {
  LookupResult res;
  key = truncate(key);
  if (!alive(from_node)) return res;

  obs::SpanScope span(trace_, obs::SpanKind::kRingRoute,
                      trace_ ? "key " + std::to_string(key) : std::string(),
                      now, nodes_.at(from_node).address);

  const int max_hops = 4 * bits_ + 16;
  Key cur = from_node;
  for (int guard = 0; guard < max_hops; ++guard) {
    NodeState& n = nodes_.at(cur);
    std::optional<Key> succ = first_live_successor(n, now);
    if (!succ) return res;  // partitioned: every known successor is dead

    if (in_open_closed(key, cur, *succ)) {
      res.owner = *succ;
      res.owner_address = nodes_.at(*succ).address;
      res.hops = guard;
      res.ok = true;
      // The resolving node reports the answer back to the initiator.
      res.completed_at = net_->send(n.address, nodes_.at(from_node).address,
                                    kControlBytes, now, net::Category::kRouting);
      return res;
    }

    Key next = closest_preceding(n, key);
    if (next == cur) next = *succ;
    now = net_->send(n.address, nodes_.at(next).address, kControlBytes, now,
                     net::Category::kRouting);
    cur = next;
  }
  return res;  // routing loop guard tripped
}

Ring::JoinResult Ring::join(net::NodeAddress address, Key id, Key bootstrap,
                            net::SimTime now) {
  id = truncate(id);
  assert(!nodes_.empty());
  assert(nodes_.count(id) == 0 && "identifier collision");

  JoinResult jr;
  jr.id = id;

  // Ask the bootstrap node for successor(id).
  now = net_->send(net::kNoAddress, nodes_.at(bootstrap).address,
                   kControlBytes, now, net::Category::kRouting);
  LookupResult lr = find_successor(bootstrap, id, now);
  assert(lr.ok && "join lookup failed");
  now = lr.completed_at;
  jr.lookup_hops = lr.hops;

  Key succ = lr.owner;
  NodeState& s = nodes_.at(succ);
  Key pred = s.predecessor.value_or(succ);

  NodeState n;
  n.id = id;
  n.address = address;
  n.predecessor = pred;
  n.fingers.assign(static_cast<std::size_t>(bits_), succ);
  nodes_.emplace(id, std::move(n));
  ++topology_;

  // Splice neighbor pointers (the outcome an immediate stabilization round
  // would converge to).
  nodes_.at(succ).predecessor = id;
  if (pred != id && nodes_.count(pred) > 0) {
    refresh_successor_list(nodes_.at(pred));
  }
  refresh_successor_list(nodes_.at(id));
  now = net_->send(address, nodes_.at(succ).address, kControlBytes, now,
                   net::Category::kRouting);  // notify(successor)

  // The new node takes over (pred, id] from its successor: the paper's
  // location-table slice transfer (Sect. III-C) happens in this hook.
  if (transfer_) transfer_(succ, id, pred, id, now);

  // Build the new node's fingers with charged lookups; the common case
  // (finger target within the immediate successor arc) is answered locally.
  NodeState& self = nodes_.at(id);
  for (int i = 0; i < bits_; ++i) {
    Key target = truncate(id + (Key{1} << i));
    if (in_open_closed(target, id, self.successors.front())) {
      self.fingers[static_cast<std::size_t>(i)] = self.successors.front();
      continue;
    }
    // Skip the lookup if the previous finger already covers this target.
    if (i > 0) {
      Key prev = self.fingers[static_cast<std::size_t>(i - 1)];
      if (in_open_closed(target, id, prev)) {
        self.fingers[static_cast<std::size_t>(i)] = prev;
        continue;
      }
    }
    LookupResult f = find_successor(id, target, now);
    if (f.ok) {
      nodes_.at(id).fingers[static_cast<std::size_t>(i)] = f.owner;
      jr.lookup_hops += f.hops;
      now = f.completed_at;
    }
  }
  jr.completed_at = now;
  return jr;
}

void Ring::leave(Key id, net::SimTime now) {
  auto it = nodes_.find(id);
  assert(it != nodes_.end());
  NodeState& n = it->second;
  ++topology_;

  if (nodes_.size() == 1) {
    nodes_.erase(it);
    return;
  }

  Key succ = oracle_successor(truncate(id + 1));
  Key pred = n.predecessor.value_or(succ);

  // Graceful departure (Sect. III-D): successor takes over the key range
  // and the location table; neighbors are notified.
  now = net_->send(n.address, nodes_.at(succ).address, kControlBytes, now,
                   net::Category::kRouting);
  if (transfer_) transfer_(id, succ, pred, id, now);
  net_->send(n.address, nodes_.at(pred).address, kControlBytes, now,
             net::Category::kRouting);

  nodes_.at(succ).predecessor = pred;
  nodes_.erase(it);
  for (auto& [nid, state] : nodes_) refresh_successor_list(state);
}

void Ring::fail(Key id) {
  auto it = nodes_.find(id);
  assert(it != nodes_.end());
  net_->fail(it->second.address);
  ++topology_;
}

void Ring::repair(net::SimTime now) {
  std::vector<Key> failed;
  for (const auto& [id, n] : nodes_) {
    if (net_->is_failed(n.address)) failed.push_back(id);
  }
  if (failed.empty()) return;

  for (Key f : failed) {
    // The first live node after the failed one inherits its arc.
    Key succ = f;
    auto it = nodes_.upper_bound(f);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (it == nodes_.end()) it = nodes_.begin();
      if (!net_->is_failed(it->second.address)) {
        succ = it->first;
        break;
      }
      ++it;
    }
    if (succ != f && failover_) failover_(f, succ, now);
  }
  for (Key f : failed) nodes_.erase(f);
  ++topology_;

  // Every surviving node reconciles its neighbor state (one probe each).
  for (auto& [id, n] : nodes_) {
    refresh_successor_list(n);
    n.predecessor = std::nullopt;
    for (Key& finger : n.fingers) {
      if (nodes_.count(finger) == 0) {
        finger = n.successors.front();
      }
    }
    net_->send(n.address, nodes_.at(n.successors.front()).address,
               kControlBytes, now, net::Category::kRouting);
  }
  // Re-establish predecessors from ground truth (stabilization outcome).
  for (auto& [id, n] : nodes_) {
    nodes_.at(n.successors.front()).predecessor = id;
  }
  if (nodes_.size() == 1) {
    auto& only = nodes_.begin()->second;
    only.predecessor = only.id;
    only.successors = {only.id};
  }
}

void Ring::fix_all_fingers_oracle() {
  for (auto& [id, n] : nodes_) {
    n.fingers.assign(static_cast<std::size_t>(bits_), id);
    for (int i = 0; i < bits_; ++i) {
      n.fingers[static_cast<std::size_t>(i)] =
          oracle_successor(truncate(id + (Key{1} << i)));
    }
    refresh_successor_list(n);
    if (nodes_.size() > 1) {
      auto it = nodes_.find(id);
      n.predecessor =
          it == nodes_.begin() ? nodes_.rbegin()->first : std::prev(it)->first;
    }
  }
}

net::SimTime Ring::fix_fingers(Key id, net::SimTime now) {
  NodeState& self = nodes_.at(id);
  for (int i = 0; i < bits_; ++i) {
    Key target = truncate(id + (Key{1} << i));
    if (!self.successors.empty() &&
        in_open_closed(target, id, self.successors.front()) &&
        alive(self.successors.front())) {
      self.fingers[static_cast<std::size_t>(i)] = self.successors.front();
      continue;
    }
    LookupResult f = find_successor(id, target, now);
    if (f.ok) {
      nodes_.at(id).fingers[static_cast<std::size_t>(i)] = f.owner;
      now = f.completed_at;
    }
  }
  return now;
}

net::SimTime Ring::stabilize_all(net::SimTime now) {
  net::SimTime latest = now;
  for (auto& [id, n] : nodes_) {
    if (net_->is_failed(n.address)) continue;
    net::SimTime t = now;
    std::optional<Key> succ = first_live_successor(n, t);
    if (!succ) continue;
    // successor.predecessor round trip + notify.
    t = net_->send(n.address, nodes_.at(*succ).address, kControlBytes, t,
                   net::Category::kRouting);
    t = net_->send(nodes_.at(*succ).address, n.address, kControlBytes, t,
                   net::Category::kRouting);
    std::optional<Key> sp = nodes_.at(*succ).predecessor;
    if (sp && alive(*sp) && in_open_open(*sp, id, *succ)) {
      succ = *sp;
    }
    refresh_successor_list(n);
    t = net_->send(n.address, nodes_.at(*succ).address, kControlBytes, t,
                   net::Category::kRouting);
    nodes_.at(*succ).predecessor = id;
    latest = std::max(latest, t);
  }
  return latest;
}

}  // namespace ahsw::chord
