#include "check/audit.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>

#include "overlay/keys.hpp"

namespace ahsw::check {

namespace {

using chord::Key;

/// Drift the protocol repairs lazily: corrupt in a settled system, stale
/// while churn is in flight.
Severity drift(const AuditOptions& opt) {
  return opt.churned ? Severity::kStale : Severity::kCorrupt;
}

void add(AuditReport& rep, const AuditOptions& opt, Violation v) {
  ++rep.by_invariant[static_cast<int>(v.invariant)]
                    [static_cast<int>(v.severity)];
  if (v.severity == Severity::kCorrupt) {
    ++rep.corrupt;
  } else {
    ++rep.stale;
  }
  if (rep.violations.size() < opt.max_violations) {
    rep.violations.push_back(std::move(v));
  } else {
    rep.truncated = true;
  }
}

Violation make(Invariant i, Severity s, Key node, Key key,
               net::NodeAddress provider, std::string detail) {
  Violation v;
  v.invariant = i;
  v.severity = s;
  v.node = node;
  v.key = key;
  v.provider = provider;
  v.detail = std::move(detail);
  return v;
}

/// Successor over a sorted id list (the oracle restricted to live nodes).
Key successor_in(const std::vector<Key>& sorted, Key x) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), x);
  return it == sorted.end() ? sorted.front() : *it;
}

/// Predecessor over a sorted id list: the largest id strictly below x,
/// wrapping to the largest overall.
Key predecessor_in(const std::vector<Key>& sorted, Key x) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), x);
  return it == sorted.begin() ? sorted.back() : *std::prev(it);
}

/// The storage-side ground truth the index layer must agree with: liveness
/// plus the exact per-key triple counts recomputed from the store.
struct StorageFacts {
  bool live = false;
  std::map<Key, std::uint32_t> counts;
};

}  // namespace

std::string_view invariant_name(Invariant i) noexcept {
  switch (i) {
    case Invariant::kRingTopology:
      return "I1-ring-topology";
    case Invariant::kSixKey:
      return "I2-six-key";
    case Invariant::kLocationCoherence:
      return "I3-location-coherence";
    case Invariant::kReplication:
      return "I4-replication";
    case Invariant::kConservation:
      return "I5-conservation";
    case Invariant::kLiveness:
      return "I6-liveness";
  }
  return "unknown";
}

std::string_view severity_name(Severity s) noexcept {
  return s == Severity::kCorrupt ? "CORRUPT" : "STALE";
}

std::string Violation::to_string() const {
  std::ostringstream out;
  out << "[" << severity_name(severity) << "] " << invariant_name(invariant);
  if (node != 0) out << " node=" << node;
  if (key != 0) out << " key=" << key;
  if (provider != net::kNoAddress) out << " provider=" << provider;
  out << ": " << detail;
  return out.str();
}

std::size_t AuditReport::count(Invariant i) const noexcept {
  return by_invariant[static_cast<int>(i)][0] +
         by_invariant[static_cast<int>(i)][1];
}

std::size_t AuditReport::count(Invariant i, Severity s) const noexcept {
  return by_invariant[static_cast<int>(i)][static_cast<int>(s)];
}

std::string AuditReport::to_string() const {
  std::ostringstream out;
  out << "audit: " << corrupt << " corrupt, " << stale << " stale"
      << " (checked " << nodes_checked << " ring nodes, " << triples_checked
      << " triples, " << keys_checked << " key probes, " << rows_checked
      << " row entries, " << replica_rows_checked << " replica entries, "
      << cached_rows_checked << " cached rows)";
  for (const Violation& v : violations) out << "\n  " << v.to_string();
  if (truncated) out << "\n  ... (violation list truncated)";
  return out.str();
}

void audit_ring(const chord::Ring& ring, const net::Network& net,
                AuditReport& rep, const AuditOptions& opt) {
  const std::map<Key, chord::NodeState>& nodes = ring.nodes();
  if (nodes.empty()) return;

  std::vector<Key> live;
  live.reserve(nodes.size());
  for (const auto& [id, n] : nodes) {
    if (!net.is_failed(n.address)) live.push_back(id);
  }
  if (live.empty()) {
    add(rep, opt,
        make(Invariant::kRingTopology, Severity::kCorrupt, 0, 0,
             net::kNoAddress, "every ring node has failed"));
    return;
  }
  const int bits = ring.config().bits;
  const auto alive = [&](Key id) {
    auto it = nodes.find(id);
    return it != nodes.end() && !net.is_failed(it->second.address);
  };

  for (Key id : live) {
    const chord::NodeState& n = ring.state(id);
    ++rep.nodes_checked;

    // -- successor list --------------------------------------------------
    if (n.successors.empty()) {
      add(rep, opt,
          make(Invariant::kRingTopology, Severity::kCorrupt, id, 0,
               net::kNoAddress, "empty successor list"));
      continue;
    }
    if (live.size() == 1) {
      if (n.successors.front() != id) {
        add(rep, opt,
            make(Invariant::kRingTopology, drift(opt), id, 0, net::kNoAddress,
                 "singleton ring does not point at itself"));
      }
      continue;
    }
    std::optional<Key> first_live;
    for (Key s : n.successors) {
      if (nodes.count(s) == 0) {
        add(rep, opt,
            make(Invariant::kRingTopology, drift(opt), id, 0, net::kNoAddress,
                 "successor entry " + std::to_string(s) +
                     " points at a departed node"));
        continue;
      }
      if (alive(s)) {
        first_live = s;
        break;
      }
    }
    if (!first_live.has_value()) {
      add(rep, opt,
          make(Invariant::kRingTopology, Severity::kCorrupt, id, 0,
               net::kNoAddress,
               "every successor-list entry is dead (unrepairable from here)"));
    } else if (Key expect = successor_in(live, ring.truncate(id + 1));
               *first_live != expect) {
      add(rep, opt,
          make(Invariant::kRingTopology, drift(opt), id, 0, net::kNoAddress,
               "first live successor is " + std::to_string(*first_live) +
                   ", ring order expects " + std::to_string(expect)));
    }
    // Ordering: refresh_successor_list only ever emits nodes at strictly
    // increasing clockwise distance, so duplicates, self-entries or
    // out-of-order lists are impossible to produce legitimately — even mid
    // churn. A list that lags the settled ring (joins elsewhere not yet
    // stabilized in) is the documented lazy window.
    bool ordered = true;
    Key prev_dist = 0;
    for (Key s : n.successors) {
      Key dist = ring.truncate(s - id);
      if (dist == 0 || dist <= prev_dist) {
        ordered = false;
        break;
      }
      prev_dist = dist;
    }
    if (!ordered) {
      add(rep, opt,
          make(Invariant::kRingTopology, Severity::kCorrupt, id, 0,
               net::kNoAddress, "successor list is not in ring order"));
    } else if (!opt.churned) {
      std::vector<Key> expect;
      Key cursor = id;
      const std::size_t len = std::min(
          static_cast<std::size_t>(ring.config().successor_list_length),
          live.size() - 1);
      for (std::size_t i = 0; i < len; ++i) {
        cursor = successor_in(live, ring.truncate(cursor + 1));
        expect.push_back(cursor);
      }
      if (n.successors != expect) {
        add(rep, opt,
            make(Invariant::kRingTopology, Severity::kStale, id, 0,
                 net::kNoAddress,
                 "successor list lags the settled ring (awaiting "
                 "stabilization)"));
      }
    }

    // -- predecessor -----------------------------------------------------
    if (!n.predecessor.has_value()) {
      add(rep, opt,
          make(Invariant::kRingTopology, drift(opt), id, 0, net::kNoAddress,
               "predecessor unset"));
    } else if (nodes.count(*n.predecessor) == 0) {
      add(rep, opt,
          make(Invariant::kRingTopology, drift(opt), id, 0, net::kNoAddress,
               "predecessor " + std::to_string(*n.predecessor) +
                   " points at a departed node"));
    } else if (!alive(*n.predecessor)) {
      add(rep, opt,
          make(Invariant::kRingTopology, Severity::kStale, id, 0,
               net::kNoAddress,
               "predecessor " + std::to_string(*n.predecessor) +
                   " has failed (awaiting repair)"));
    } else if (Key expect = predecessor_in(live, id);
               *n.predecessor != expect) {
      add(rep, opt,
          make(Invariant::kRingTopology, drift(opt), id, 0, net::kNoAddress,
               "predecessor is " + std::to_string(*n.predecessor) +
                   ", ring order expects " + std::to_string(expect)));
    }

    // -- fingers ---------------------------------------------------------
    if (n.fingers.size() != static_cast<std::size_t>(bits)) {
      add(rep, opt,
          make(Invariant::kRingTopology, Severity::kCorrupt, id, 0,
               net::kNoAddress,
               "finger table has " + std::to_string(n.fingers.size()) +
                   " entries, expected " + std::to_string(bits)));
      continue;
    }
    // Fingers are maintained lazily (fix_fingers rounds), so divergence is
    // always stale, never corrupt — routing routes around it.
    std::size_t lagging = 0;
    for (int i = 0; i < bits; ++i) {
      Key target = ring.truncate(id + (Key{1} << i));
      Key finger = n.fingers[static_cast<std::size_t>(i)];
      if (nodes.count(finger) == 0 || !alive(finger) ||
          finger != successor_in(live, target)) {
        ++lagging;
      }
    }
    if (lagging > 0) {
      add(rep, opt,
          make(Invariant::kRingTopology, Severity::kStale, id, 0,
               net::kNoAddress,
               std::to_string(lagging) + "/" + std::to_string(bits) +
                   " fingers lag the live ring"));
    }
  }
}

void audit_overlay(const overlay::HybridOverlay& ov, AuditReport& rep,
                   const AuditOptions& opt) {
  const chord::Ring& ring = ov.ring();
  const net::Network& net = ov.network();
  audit_ring(ring, net, rep, opt);
  if (ring.nodes().empty()) return;

  std::vector<Key> live = ring.live_ids();
  if (live.empty()) return;

  // Every live ring member must host index-node state, and index state must
  // belong to a current ring member (failed members linger until repair).
  for (Key id : live) {
    if (ov.index_nodes().count(id) == 0) {
      add(rep, opt,
          make(Invariant::kRingTopology, Severity::kCorrupt, id, 0,
               net::kNoAddress, "live ring member has no index-node state"));
    }
  }
  for (const auto& [id, ix] : ov.index_nodes()) {
    if (!ring.contains(id)) {
      add(rep, opt,
          make(Invariant::kRingTopology, Severity::kCorrupt, id, 0,
               net::kNoAddress, "index-node state for a departed ring member"));
    }
  }

  // -- storage-side ground truth ----------------------------------------
  const std::size_t kinds =
      ov.config().pair_keys ? static_cast<std::size_t>(overlay::kIndexKeyKinds)
                            : 3u;
  std::map<net::NodeAddress, StorageFacts> facts;
  for (const auto& [addr, s] : ov.storage_nodes()) {
    StorageFacts f;
    f.live = !net.is_failed(addr);
    if (f.live) {
      s.store.for_each([&](const rdf::Triple& t) {
        std::array<Key, overlay::kIndexKeyKinds> keys = overlay::index_keys(t);
        for (std::size_t k = 0; k < kinds; ++k) ++f.counts[keys[k]];
        ++rep.triples_checked;
      });
      // I3, storage side: the node's publish bookkeeping must equal the
      // counts recomputed from its store — both are maintained in the same
      // share/unshare call, so any divergence is a lost update.
      if (f.counts != s.published) {
        add(rep, opt,
            make(Invariant::kLocationCoherence, Severity::kCorrupt, 0, 0, addr,
                 "publish bookkeeping diverges from store contents (" +
                     std::to_string(f.counts.size()) + " store keys vs " +
                     std::to_string(s.published.size()) + " published)"));
      }
    }
    facts.emplace(addr, std::move(f));
  }

  // -- I2: six-key completeness -----------------------------------------
  for (const auto& [addr, f] : facts) {
    if (!f.live) continue;
    for (const auto& [key, cnt] : f.counts) {
      ++rep.keys_checked;
      Key owner = successor_in(live, ring.truncate(key));
      auto it = ov.index_nodes().find(owner);
      if (it == ov.index_nodes().end()) continue;  // reported above under I1
      const overlay::Row* row = it->second.table.find_row(key);
      const bool indexed =
          row != nullptr &&
          std::any_of(row->providers.begin(), row->providers.end(),
                      [&](const overlay::Provider& p) {
                        return p.address == addr;
                      });
      if (!indexed) {
        add(rep, opt,
            make(Invariant::kSixKey, Severity::kCorrupt, owner, key, addr,
                 "shared triples (" + std::to_string(cnt) +
                     ") have no index entry at the owner"));
      }
    }
  }

  // -- I3: location-table coherence (index side) ------------------------
  for (const auto& [ixid, ix] : ov.index_nodes()) {
    if (!ring.contains(ixid) || net.is_failed(ix.address)) continue;
    for (const auto& [key, provs] : ix.table.rows()) {
      if (Key owner = successor_in(live, ring.truncate(key)); owner != ixid) {
        add(rep, opt,
            make(Invariant::kLocationCoherence, drift(opt), ixid, key,
                 net::kNoAddress,
                 "row held off-owner (ring owner is " + std::to_string(owner) +
                     ")"));
      }
      for (const overlay::Provider& p : provs) {
        ++rep.rows_checked;
        auto fit = facts.find(p.address);
        if (fit == facts.end()) {
          add(rep, opt,
              make(Invariant::kLocationCoherence, drift(opt), ixid, key,
                   p.address, "entry for a departed storage node"));
          continue;
        }
        if (!fit->second.live) {
          // The paper's lazy-repair model: stale until a query trips over
          // the dead provider and reports it (Sect. III-D).
          add(rep, opt,
              make(Invariant::kLocationCoherence, Severity::kStale, ixid, key,
                   p.address,
                   "entry for a failed storage node awaiting lazy repair"));
          continue;
        }
        auto cit = fit->second.counts.find(key);
        const std::uint32_t actual =
            cit == fit->second.counts.end() ? 0u : cit->second;
        if (p.frequency == actual) continue;
        if (actual == 0) {
          add(rep, opt,
              make(Invariant::kLocationCoherence, drift(opt), ixid, key,
                   p.address,
                   "stale pointer: provider holds no matching triples"));
        } else if (p.frequency > actual) {
          add(rep, opt,
              make(Invariant::kLocationCoherence, drift(opt), ixid, key,
                   p.address,
                   "frequency " + std::to_string(p.frequency) +
                       " inflated over actual " + std::to_string(actual) +
                       " (at-least-once replication window)"));
        } else {
          // Nothing in the protocol lowers a frequency below the store
          // count: an undercount is a lost publish, full stop.
          add(rep, opt,
              make(Invariant::kLocationCoherence, Severity::kCorrupt, ixid,
                   key, p.address,
                   "frequency " + std::to_string(p.frequency) +
                       " undercounts actual " + std::to_string(actual) +
                       " (lost publish)"));
        }
      }
    }
  }

  // -- I6: liveness (post-convergence) ----------------------------------
  // After fault::converge (repair + oracle purge) every failure has been
  // detected and purged from every copy, so a surviving reference to a
  // failed storage node — primary *or* replica — can only mean a purge
  // missed a copy. A stale replica row is exactly the state the
  // dead-provider resurrection bug fed back into primaries on repair.
  if (opt.converged) {
    for (const auto& [ixid, ix] : ov.index_nodes()) {
      if (!ring.contains(ixid) || net.is_failed(ix.address)) continue;
      const auto scan_rows = [&, ixid = ixid](const auto& table,
                                              std::string_view kind) {
        for (const auto& [key, provs] : table.rows()) {
          for (const overlay::Provider& p : provs) {
            if (!net.is_failed(p.address)) continue;
            add(rep, opt,
                make(Invariant::kLiveness, Severity::kCorrupt, ixid, key,
                     p.address,
                     std::string(kind) +
                         " row still lists a failed provider after "
                         "convergence"));
          }
        }
      };
      scan_rows(ix.table, "primary");
      scan_rows(ix.replicas, "replica");
    }
    // purge_failed_everywhere drops every cached row listing a failed
    // provider, so post-convergence the caches are as clean as the index.
    for (const auto& [initiator, cache] : ov.caches()) {
      for (const auto& [key, row] : cache.rows()) {
        for (const overlay::Provider& p : row.providers) {
          if (!net.is_failed(p.address)) continue;
          add(rep, opt,
              make(Invariant::kLiveness, Severity::kCorrupt, 0, key, p.address,
                   "cached row at initiator " + std::to_string(initiator) +
                       " still lists a failed provider after convergence"));
        }
      }
    }
  }

  // -- I3/I4 over cached rows (docs/caching.md) -------------------------
  // A cached row must match the authoritative row at the ring owner within
  // its documented staleness bound: leased rows are push-invalidated on
  // every owner mutation, so divergence is kCorrupt under I4 (a missed
  // push); unleased rows inside their TTL may serve up to ttl_ms-stale data
  // — divergence is the documented window, kStale under I3. An unleased row
  // past its TTL at options.now can never be served again and is skipped.
  for (const auto& [initiator, cache] : ov.caches()) {
    for (const auto& [key, row] : cache.rows()) {
      if (!row.leased && opt.now >= row.expires_at) continue;
      ++rep.cached_rows_checked;
      Key owner = successor_in(live, ring.truncate(key));
      auto oit = ov.index_nodes().find(owner);
      std::vector<overlay::Provider> authoritative;
      if (oit != ov.index_nodes().end()) {
        authoritative = oit->second.table.lookup(key);
      }
      if (row.providers == authoritative) continue;
      if (row.leased) {
        add(rep, opt,
            make(Invariant::kReplication, Severity::kCorrupt, owner, key,
                 net::kNoAddress,
                 "leased cached row at initiator " + std::to_string(initiator) +
                     " diverges from the owner (missed invalidation push)"));
      } else {
        add(rep, opt,
            make(Invariant::kLocationCoherence, Severity::kStale, owner, key,
                 net::kNoAddress,
                 "cached row at initiator " + std::to_string(initiator) +
                     " diverges from the owner within its TTL (documented "
                     "staleness bound)"));
      }
    }
  }

  // -- I4: replication --------------------------------------------------
  const int rf = ov.config().replication_factor;
  if (rf <= 1) return;
  for (const auto& [ixid, ix] : ov.index_nodes()) {
    if (!ring.contains(ixid) || net.is_failed(ix.address)) continue;
    // The designated holders are the first rf-1 successor-list entries
    // hosting index state — the same walk replica_targets performs.
    std::vector<Key> holders;
    for (Key succ : ring.state(ixid).successors) {
      if (holders.size() >= static_cast<std::size_t>(rf - 1)) break;
      if (succ == ixid || ov.index_nodes().count(succ) == 0) continue;
      holders.push_back(succ);
    }
    for (const auto& [key, provs] : ix.table.rows()) {
      for (Key h : holders) {
        const overlay::IndexNodeState& hs = ov.index_nodes().at(h);
        if (net.is_failed(hs.address)) continue;  // corpse awaiting repair
        const overlay::Row* hrow = hs.replicas.find_row(key);
        for (const overlay::Provider& p : provs) {
          ++rep.replica_rows_checked;
          const overlay::Provider* mirror = nullptr;
          if (hrow != nullptr) {
            for (const overlay::Provider& hp : hrow->providers) {
              if (hp.address == p.address) mirror = &hp;
            }
          }
          if (mirror == nullptr) {
            add(rep, opt,
                make(Invariant::kReplication, drift(opt), h, key, p.address,
                     "replica row missing at designated holder (owner " +
                         std::to_string(ixid) + ")"));
          } else if (mirror->frequency != p.frequency) {
            add(rep, opt,
                make(Invariant::kReplication, drift(opt), h, key, p.address,
                     "replica frequency " + std::to_string(mirror->frequency) +
                         " diverges from owner's " +
                         std::to_string(p.frequency)));
          }
        }
      }
    }
  }
  // Orphaned replicas: rows whose ownership moved away. Harmless (the
  // versioned reconcile merges them back on repair, rejecting stale
  // versions) but worth surfacing.
  for (const auto& [hid, hs] : ov.index_nodes()) {
    if (!ring.contains(hid) || net.is_failed(hs.address)) continue;
    for (const auto& [key, provs] : hs.replicas.rows()) {
      Key owner = successor_in(live, ring.truncate(key));
      auto oit = ov.index_nodes().find(owner);
      for (const overlay::Provider& p : provs) {
        bool mirrored = false;
        if (oit != ov.index_nodes().end()) {
          for (const overlay::Provider& op : oit->second.table.lookup(key)) {
            if (op.address == p.address) mirrored = true;
          }
        }
        if (!mirrored) {
          add(rep, opt,
              make(Invariant::kReplication, Severity::kStale, hid, key,
                   p.address,
                   "orphaned replica row (owner " + std::to_string(owner) +
                       " no longer lists the provider)"));
        }
      }
    }
  }
}

void audit_conservation(const obs::QueryTrace& trace,
                        const net::TrafficStats& delta, AuditReport& rep,
                        const AuditOptions& opt) {
  std::uint64_t messages = trace.unattributed_messages();
  std::uint64_t bytes = trace.unattributed_bytes();
  std::uint64_t raw_bytes = trace.unattributed_raw_bytes();
  std::uint64_t timeouts = trace.unattributed_timeouts();
  std::uint64_t messages_by[net::kCategoryCount] = {};
  std::uint64_t bytes_by[net::kCategoryCount] = {};
  for (const obs::Span& s : trace.spans()) {
    messages += s.messages;
    bytes += s.bytes;
    raw_bytes += s.raw_bytes;
    timeouts += s.timeouts;
    for (int c = 0; c < net::kCategoryCount; ++c) {
      messages_by[c] += s.messages_by[c];
      bytes_by[c] += s.bytes_by[c];
    }
  }
  const auto mismatch = [&](std::string_view what, std::uint64_t spans,
                            std::uint64_t stats) {
    add(rep, opt,
        make(Invariant::kConservation, Severity::kCorrupt, 0, 0,
             net::kNoAddress,
             std::string(what) + " do not conserve: span sum " +
                 std::to_string(spans) + " != traffic delta " +
                 std::to_string(stats)));
  };
  if (messages != delta.messages) mismatch("messages", messages, delta.messages);
  if (bytes != delta.bytes) mismatch("bytes", bytes, delta.bytes);
  if (raw_bytes != delta.raw_bytes) {
    mismatch("raw bytes", raw_bytes, delta.raw_bytes);
  }
  if (timeouts != delta.timeouts) mismatch("timeouts", timeouts, delta.timeouts);
  // Per-category sums exclude the unattributed bucket (it keeps no category
  // split), so spans can only ever account for at most the delta.
  for (int c = 0; c < net::kCategoryCount; ++c) {
    if (messages_by[c] > delta.messages_by[c] ||
        bytes_by[c] > delta.bytes_by[c]) {
      add(rep, opt,
          make(Invariant::kConservation, Severity::kCorrupt, 0, 0,
               net::kNoAddress,
               "category " +
                   std::string(net::category_name(
                       static_cast<net::Category>(c))) +
                   " books more span traffic than the delta contains"));
    }
  }
}

AuditReport audit(const overlay::HybridOverlay& overlay,
                  const AuditOptions& options) {
  AuditReport rep;
  audit_overlay(overlay, rep, options);
  return rep;
}

AuditReport audit(workload::Testbed& testbed, const AuditOptions& options) {
  return audit(testbed.overlay(), options);
}

bool audit_enabled() {
  static const bool enabled = [] {
    // Read once at first call, before any threads could exist.
    const char* v = std::getenv("AHSW_AUDIT");  // NOLINT(concurrency-mt-unsafe)
    if (v == nullptr) return false;
    std::string s(v);
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    return !(s.empty() || s == "0" || s == "off" || s == "false" || s == "no");
  }();
  return enabled;
}

}  // namespace ahsw::check
