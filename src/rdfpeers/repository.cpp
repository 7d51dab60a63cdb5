#include "rdfpeers/repository.hpp"

#include <algorithm>
#include <cassert>

#include "common/hash.hpp"
#include "net/wire.hpp"
#include "sparql/eval.hpp"

namespace ahsw::rdfpeers {

namespace {

constexpr std::size_t kControlBytes = 48;   // query id + pattern header
constexpr std::size_t kTripleOverhead = 16; // placement message framing

/// RDFPeers hashes attribute *values* with one globally known function.
[[nodiscard]] chord::Key value_hash(const rdf::Term& t) {
  return common::tagged_hash(0x42, t.to_string());
}

[[nodiscard]] std::size_t term_set_bytes(const std::set<rdf::Term>& terms) {
  std::size_t n = 8;
  for (const rdf::Term& t : terms) n += t.byte_size();
  return n;
}

}  // namespace

Repository::Repository(net::Network& network, RepositoryConfig config)
    : net_(&network),
      config_(config),
      ring_(network, config.ring),
      id_rng_(0xbeef) {}

chord::Key Repository::add_peer(net::SimTime now) {
  chord::Key id = ring_.truncate(id_rng_.next());
  while (ring_.contains(id)) id = ring_.truncate(id_rng_.next());
  net::NodeAddress addr = net_->allocate_address();
  if (ring_.size() == 0) {
    ring_.create(addr, id);
  } else {
    ring_.join(addr, id, ring_.live_ids().front(), now);
  }
  PeerState state;
  state.id = id;
  state.address = addr;
  peers_.emplace(id, std::move(state));
  return id;
}

chord::Key Repository::locality_hash(double v) const noexcept {
  double clamped = std::clamp(v, config_.numeric_min, config_.numeric_max);
  double fraction = (clamped - config_.numeric_min) /
                    (config_.numeric_max - config_.numeric_min);
  // Map through a 32-bit intermediate so that fraction == 1.0 cannot
  // overflow the 64-bit cast (double cannot represent 2^64 - 1 exactly).
  auto top = static_cast<chord::Key>(fraction * 4294967295.0);  // [0, 2^32)
  int bits = ring_.config().bits;
  chord::Key key = bits > 32 ? (top << (bits - 32)) : (top >> (32 - bits));
  return ring_.truncate(key);
}

std::optional<chord::Key> Repository::place(chord::Key from, chord::Key key,
                                            std::size_t bytes,
                                            net::SimTime& now, int& hops) {
  chord::Ring::LookupResult lr =
      ring_.find_successor(from, ring_.truncate(key), now);
  if (!lr.ok) return std::nullopt;
  hops += lr.hops;
  now = net_->send(peers_.at(from).address, lr.owner_address,
                   net::Charge::fixed(bytes), lr.completed_at,
                   net::Category::kData);
  return lr.owner;
}

net::SimTime Repository::store_triple(chord::Key from, const rdf::Triple& t,
                                      net::SimTime now) {
  // Object values with numeric content use the locality-preserving hash so
  // that ranges map to ring segments; everything else hashes uniformly.
  double numeric = 0.0;
  chord::Key o_key = t.o.numeric_value(numeric) ? locality_hash(numeric)
                                                : value_hash(t.o);
  const chord::Key keys[3] = {value_hash(t.s), value_hash(t.p), o_key};
  net::SimTime latest = now;
  for (chord::Key key : keys) {
    net::SimTime branch = now;
    int hops = 0;
    std::optional<chord::Key> owner =
        place(from, key, t.byte_size() + kTripleOverhead, branch, hops);
    if (owner.has_value()) {
      peers_.at(*owner).store.insert(t);
      latest = std::max(latest, branch);
    }
  }
  return latest;
}

net::SimTime Repository::store_triples(chord::Key from,
                                       const std::vector<rdf::Triple>& triples,
                                       net::SimTime now) {
  net::SimTime latest = now;
  for (const rdf::Triple& t : triples) {
    latest = std::max(latest, store_triple(from, t, now));
  }
  return latest;
}

Repository::Resolution Repository::resolve_pattern(
    chord::Key from, const rdf::TriplePattern& p, net::SimTime now) {
  Resolution res;
  const rdf::Term* s = p.bound_s();
  const rdf::Term* pr = p.bound_p();
  const rdf::Term* o = p.bound_o();

  auto match_at = [&](chord::Key peer) {
    sparql::LocalEngine engine(peers_.at(peer).store);
    return engine.match_ids(sparql::BgpPattern{p, nullptr}).materialize();
  };

  if (s == nullptr && pr == nullptr && o == nullptr) {
    // Flood: every peer matches and replies (RDFPeers has no better plan
    // for the fully unbound pattern either).
    net::NodeAddress me = peers_.at(from).address;
    for (auto& [id, peer] : peers_) {
      if (net_->is_failed(peer.address)) continue;
      net::SimTime t = net_->send(me, peer.address,
                                  net::Charge::fixed(kControlBytes), now,
                                  net::Category::kQuery);
      sparql::SolutionSet local = match_at(id);
      t = net_->send(peer.address, me, net::wire::charge(local), t,
                     net::Category::kData);
      res.solutions = sparql::vec_deduplicated(
          sparql::set_union(res.solutions, local));
      res.completed_at = std::max(res.completed_at, t);
    }
    res.ok = true;
    return res;
  }

  // Route by the most selective bound attribute: subject, object, predicate.
  chord::Key key;
  if (s != nullptr) {
    key = value_hash(*s);
  } else if (o != nullptr) {
    double numeric = 0.0;
    key = o->numeric_value(numeric) ? locality_hash(numeric) : value_hash(*o);
  } else {
    key = value_hash(*pr);
  }
  chord::Ring::LookupResult lr =
      ring_.find_successor(from, ring_.truncate(key), now);
  if (!lr.ok) return res;
  res.hops = lr.hops;
  net::SimTime t = net_->send(peers_.at(from).address, lr.owner_address,
                              net::Charge::fixed(kControlBytes + p.byte_size()),
                              lr.completed_at, net::Category::kQuery);
  sparql::SolutionSet local = match_at(lr.owner);
  res.completed_at = net_->send(lr.owner_address, peers_.at(from).address,
                                net::wire::charge(local), t,
                                net::Category::kData);
  res.solutions = sparql::vec_deduplicated(std::move(local));
  res.ok = true;
  return res;
}

Repository::Resolution Repository::resolve_conjunctive(
    chord::Key from, const std::vector<rdf::TriplePattern>& ps,
    net::SimTime now) {
  Resolution res;
  assert(!ps.empty());
  const rdf::Variable* subject_var = rdf::var_of(ps.front().s);
  assert(subject_var != nullptr &&
         "conjunctive MAQ requires a shared subject variable");
  for (const rdf::TriplePattern& p : ps) {
    assert(rdf::var_of(p.s) != nullptr &&
           rdf::var_of(p.s)->name == subject_var->name);
    assert(p.bound_p() != nullptr && p.bound_o() != nullptr &&
           "conjunctive MAQ patterns must bind predicate and object");
    (void)p;  // asserts compile away under NDEBUG
  }

  // The candidate-subject set travels from owner to owner, intersected at
  // each step (Cai & Frank's recursive resolution).
  std::set<rdf::Term> candidates;
  net::NodeAddress prev_addr = peers_.at(from).address;
  chord::Key route_from = from;
  net::SimTime t = now;

  for (std::size_t i = 0; i < ps.size(); ++i) {
    const rdf::TriplePattern& p = ps[i];
    double numeric = 0.0;
    chord::Key key = p.bound_o()->numeric_value(numeric)
                         ? locality_hash(numeric)
                         : value_hash(*p.bound_o());
    chord::Ring::LookupResult lr =
        ring_.find_successor(route_from, ring_.truncate(key), t);
    if (!lr.ok) return res;
    res.hops += lr.hops;
    // Ship the query + current candidate set to the next owner.
    t = net_->send(prev_addr, lr.owner_address,
                   net::Charge::fixed(kControlBytes + p.byte_size() +
                                      term_set_bytes(candidates)),
                   lr.completed_at, net::Category::kData);

    std::set<rdf::Term> local;
    peers_.at(lr.owner).store.match(p, [&](const rdf::Triple& triple) {
      local.insert(triple.s);
    });
    if (i == 0) {
      candidates = std::move(local);
    } else {
      std::set<rdf::Term> kept;
      std::set_intersection(candidates.begin(), candidates.end(),
                            local.begin(), local.end(),
                            std::inserter(kept, kept.begin()));
      candidates = std::move(kept);
    }
    prev_addr = lr.owner_address;
    route_from = lr.owner;
    if (candidates.empty()) break;  // intersection can only shrink
  }

  res.completed_at = net_->send(prev_addr, peers_.at(from).address,
                                net::Charge::fixed(term_set_bytes(candidates)),
                                t, net::Category::kResult);
  for (const rdf::Term& subject : candidates) {
    sparql::Binding b;
    b.set(subject_var->name, subject);
    res.solutions.add(std::move(b));
  }
  res.ok = true;
  return res;
}

Repository::Resolution Repository::resolve_disjunctive(
    chord::Key from, const rdf::Term& predicate,
    const std::vector<rdf::Term>& alternatives, net::SimTime now) {
  Resolution res;
  res.ok = true;
  for (const rdf::Term& o : alternatives) {
    Resolution branch = resolve_pattern(
        from, rdf::TriplePattern{rdf::Variable{"s"}, predicate, o}, now);
    if (!branch.ok) {
      res.ok = false;
      continue;
    }
    res.hops += branch.hops;
    res.completed_at = std::max(res.completed_at, branch.completed_at);
    res.solutions = sparql::vec_deduplicated(
        sparql::set_union(res.solutions, branch.solutions));
  }
  return res;
}

Repository::Resolution Repository::resolve_range(chord::Key from,
                                                 const rdf::Term& predicate,
                                                 double lo, double hi,
                                                 net::SimTime now) {
  Resolution res;
  if (lo > hi) {
    res.ok = true;
    res.completed_at = now;
    return res;
  }
  chord::Key lo_key = locality_hash(lo);
  chord::Key hi_key = locality_hash(hi);

  chord::Ring::LookupResult lr =
      ring_.find_successor(from, lo_key, now);
  if (!lr.ok) return res;
  res.hops = lr.hops;
  net::SimTime t = lr.completed_at;
  net::NodeAddress me = peers_.at(from).address;

  rdf::TriplePattern pattern{rdf::Variable{"s"}, predicate,
                             rdf::Variable{"o"}};
  const chord::Key start = lr.owner;
  chord::Key cur = start;
  net::NodeAddress prev_addr = me;
  // Walk the ring segment successor by successor (RDFPeers' range-ordering
  // walk); each visited peer reports its in-range matches to the requester.
  // The locality hash is monotone, so [lo_key, hi_key] never wraps: walk
  // forward until a peer's identifier reaches hi_key (its arc then covers
  // the segment end), a wrapped successor appears (no peer above lo_key:
  // the wrap owner covers the rest), or the walk closes the full circle.
  for (std::size_t guard = 0; guard < peers_.size(); ++guard) {
    t = net_->send(prev_addr, peers_.at(cur).address,
                   net::Charge::fixed(kControlBytes + pattern.byte_size()), t,
                   net::Category::kQuery);
    sparql::SolutionSet local;
    peers_.at(cur).store.match(pattern, [&](const rdf::Triple& triple) {
      double v = 0.0;
      if (triple.o.numeric_value(v) && v >= lo && v <= hi) {
        sparql::Binding b;
        b.set("s", triple.s);
        b.set("o", triple.o);
        local.add(std::move(b));
      }
    });
    net::SimTime reply =
        net_->send(peers_.at(cur).address, me, net::wire::charge(local), t,
                   net::Category::kData);
    res.completed_at = std::max(res.completed_at, reply);
    res.solutions = sparql::vec_deduplicated(
        sparql::set_union(res.solutions, std::move(local)));
    ++res.hops;

    if (cur < lo_key) break;   // wrapped owner: covers everything above
    if (cur >= hi_key) break;  // this peer's arc reaches the segment end
    chord::Key next = ring_.oracle_successor(ring_.truncate(cur + 1));
    if (next == start) break;  // full circle: every peer visited
    prev_addr = peers_.at(cur).address;
    cur = next;
  }
  res.ok = true;
  res.completed_at = std::max(res.completed_at, t);
  return res;
}

std::vector<std::size_t> Repository::storage_loads() const {
  std::vector<std::size_t> out;
  out.reserve(peers_.size());
  for (const auto& [id, peer] : peers_) out.push_back(peer.store.size());
  return out;
}

}  // namespace ahsw::rdfpeers
