// Differential test of the batched index write path against the per-key
// path it replaced (tests/support/publish_reference).
//
// Two overlays are built identically. A seeded history of shares, unshares,
// storage crashes (with lazy purges) and rejoins, storage leaves,
// republishes, invalidation leases, index joins, index crashes and repairs
// runs on both: through HybridOverlay on one and through the per-key oracle
// on the other. After every step both must have sent the same messages in
// the same order (from, to, bytes, times, category) and returned the same
// completion time, and every index node must hold the same primary and
// replica rows, tombstones and byte sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "overlay/overlay.hpp"
#include "support/publish_reference.hpp"
#include "support/replica_reference.hpp"

namespace ahsw::overlay {
namespace {

using Oracle = OverlayReference;

/// One overlay with a tracer recording every message it sends.
struct Twin {
  explicit Twin(const OverlayConfig& cfg) : overlay(network, cfg) {
    network.set_tracer([this](const net::MessageEvent& e) {
      char line[160];
      std::snprintf(line, sizeof line, "%u->%u %zuB %.17g..%.17g %s", e.from,
                    e.to, e.bytes, e.sent_at, e.arrives_at,
                    std::string(net::category_name(e.category)).c_str());
      sent.emplace_back(line);
    });
  }
  net::Network network;
  HybridOverlay overlay;
  std::vector<std::string> sent;
};

rdf::Term iri(const std::string& local) {
  return rdf::Term::iri("http://example.org/" + local);
}

/// A triple over a small vocabulary, so keys and rows recur across nodes.
rdf::Triple random_triple(common::Rng& rng) {
  const rdf::Term s = iri("s" + std::to_string(rng.below(12)));
  const rdf::Term p = iri("p" + std::to_string(rng.below(3)));
  const rdf::Term o =
      rng.chance(0.5) ? iri("s" + std::to_string(rng.below(12)))
                      : rdf::Term::literal("v" + std::to_string(rng.below(6)));
  return {s, p, o};
}

void expect_same(Twin& batched, Twin& oracle, const std::string& where) {
  ASSERT_EQ(batched.sent, oracle.sent) << where;
  batched.sent.clear();
  oracle.sent.clear();
  const net::TrafficStats& a = batched.network.stats();
  const net::TrafficStats& b = oracle.network.stats();
  ASSERT_EQ(a.messages, b.messages) << where;
  ASSERT_EQ(a.bytes, b.bytes) << where;
  ASSERT_EQ(a.timeouts, b.timeouts) << where;
  const auto& ia = batched.overlay.index_nodes();
  const auto& ib = oracle.overlay.index_nodes();
  ASSERT_EQ(ia.size(), ib.size()) << where;
  for (auto x = ia.begin(), y = ib.begin(); x != ia.end(); ++x, ++y) {
    const std::string node = where + " index node " + std::to_string(x->first);
    ASSERT_EQ(x->first, y->first) << node;
    ASSERT_EQ(x->second.table.rows(), y->second.table.rows()) << node;
    ASSERT_EQ(x->second.replicas.rows(), y->second.replicas.rows()) << node;
    ASSERT_EQ(x->second.table.byte_size(), y->second.table.byte_size())
        << node;
    ASSERT_EQ(x->second.replicas.byte_size(), y->second.replicas.byte_size())
        << node;
    ASSERT_EQ(LocationTableReference::tombstones(x->second.table),
              LocationTableReference::tombstones(y->second.table))
        << node;
    ASSERT_EQ(LocationTableReference::tombstones(x->second.replicas),
              LocationTableReference::tombstones(y->second.replicas))
        << node;
  }
  const auto& sa = batched.overlay.storage_nodes();
  const auto& sb = oracle.overlay.storage_nodes();
  ASSERT_EQ(sa.size(), sb.size()) << where;
  for (auto x = sa.begin(), y = sb.begin(); x != sa.end(); ++x, ++y) {
    ASSERT_EQ(x->first, y->first) << where;
    ASSERT_EQ(x->second.published, y->second.published) << where;
  }
}

void run_history(std::uint64_t seed, int steps) {
  OverlayConfig cfg;
  cfg.seed = seed;
  cfg.replication_factor = seed % 3 == 0 ? 2 : 3;
  // A narrow ring makes an owner's keys interleave with other owners'.
  cfg.ring.bits = seed % 2 == 0 ? 64 : 10;
  cfg.pair_keys = seed % 5 != 0;
  auto batched = std::make_unique<Twin>(cfg);
  auto oracle = std::make_unique<Twin>(cfg);
  std::vector<net::NodeAddress> storage;
  for (Twin* t : {batched.get(), oracle.get()}) {
    for (int i = 0; i < 6; ++i) t->overlay.add_index_node(0);
    storage.clear();
    for (int i = 0; i < 8; ++i) {
      storage.push_back(t->overlay.add_storage_node());
    }
  }
  common::Rng rng(seed);
  bool crash_pending = false;
  for (int step = 0; step < steps; ++step) {
    const net::SimTime now = 10.0 * step;
    const net::NodeAddress addr = storage[rng.below(storage.size())];
    const std::uint64_t op = rng.below(12);
    const std::string where = "seed " + std::to_string(seed) + " step " +
                              std::to_string(step) + " op " +
                              std::to_string(op);
    net::SimTime done_batched = now;
    net::SimTime done_oracle = now;
    if (op <= 2) {
      std::vector<rdf::Triple> triples(1 + rng.below(10));
      for (rdf::Triple& t : triples) t = random_triple(rng);
      done_batched = batched->overlay.share_triples(addr, triples, now);
      done_oracle = Oracle::share_triples(oracle->overlay, addr, triples, now);
    } else if (op <= 4) {
      // Some held triples, some the node never had.
      std::vector<rdf::Triple> triples;
      batched->overlay.store_of(addr).for_each([&](const rdf::Triple& t) {
        if (rng.chance(0.4)) triples.push_back(t);
      });
      for (std::uint64_t i = rng.below(3); i > 0; --i) {
        triples.push_back(random_triple(rng));
      }
      done_batched = batched->overlay.unshare_triples(addr, triples, now);
      done_oracle =
          Oracle::unshare_triples(oracle->overlay, addr, triples, now);
    } else if (op == 5) {
      // Crash, maybe a lazy purge of one of its rows, recover, rejoin.
      std::vector<rdf::Triple> held;
      batched->overlay.store_of(addr).for_each(
          [&](const rdf::Triple& t) { held.push_back(t); });
      const net::NodeAddress reporter = storage[rng.below(storage.size())];
      const bool report = !held.empty() && reporter != addr && rng.chance(0.7);
      const rdf::TriplePattern pattern =
          held.empty() ? rdf::TriplePattern{}
                       : rdf::TriplePattern{held[rng.below(held.size())].s,
                                            rdf::Variable{"p"},
                                            rdf::Variable{"o"}};
      for (Twin* t : {batched.get(), oracle.get()}) {
        t->overlay.storage_node_fail(addr);
        if (report) {
          t->overlay.report_dead_provider(reporter, pattern, addr, now);
        }
        t->network.recover(addr);
      }
      done_batched = batched->overlay.storage_node_rejoin(addr, now);
      done_oracle = Oracle::storage_node_rejoin(oracle->overlay, addr, now);
    } else if (op == 6) {
      if (storage.size() <= 4) continue;
      done_batched = batched->overlay.storage_node_leave(addr, now);
      done_oracle = Oracle::storage_node_leave(oracle->overlay, addr, now);
      storage.erase(std::find(storage.begin(), storage.end(), addr));
    } else if (op == 7) {
      done_batched = batched->overlay.republish_all(now);
      done_oracle = Oracle::republish_all(oracle->overlay, now);
    } else if (op == 8) {
      // Invalidation leases on rows the next writes may touch.
      const auto& published = batched->overlay.storage_state(addr).published;
      for (const auto& [key, freq] : published) {
        if (!rng.chance(0.3)) continue;
        const net::NodeAddress initiator = storage[rng.below(storage.size())];
        batched->overlay.subscribe_invalidations(key, initiator);
        oracle->overlay.subscribe_invalidations(key, initiator);
      }
    } else if (op == 9) {
      if (batched->overlay.ring().size() >= 9) continue;
      batched->overlay.add_index_node(now);
      oracle->overlay.add_index_node(now);
    } else if (op == 10) {
      // An index crash, left unrepaired until the next repair step.
      const std::vector<chord::Key> live = batched->overlay.ring().live_ids();
      if (crash_pending || live.size() <= 4) continue;
      const chord::Key victim = live[rng.below(live.size())];
      batched->overlay.index_node_fail(victim);
      oracle->overlay.index_node_fail(victim);
      crash_pending = true;
    } else {
      batched->overlay.repair(now);
      Oracle::repair(oracle->overlay, now);
      crash_pending = false;
    }
    ASSERT_EQ(done_batched, done_oracle) << where;
    expect_same(*batched, *oracle, where);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PublishBatch, MatchesPerKeyOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_history(seed, 160);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ahsw::overlay
