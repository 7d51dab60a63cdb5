// Differential test of repair's replica sync guard.
//
// While no desync event has happened since the last repair that ran its
// merges and changed nothing, HybridOverlay::repair makes every send but
// skips its reconcile and re-seed merges (docs/fault_injection.md, "Repair
// cost"). Two overlays are built identically and run the same seeded
// history: storage churn, index joins, leaves and crashes, an index-node
// address failed and recovered directly on the network between two
// repairs, and index_state() edits. One repairs through HybridOverlay, the
// other through the per-row oracle repair of tests/support, which always
// merges. After every repair both must have sent the same messages and
// hold the same rows, tombstones and byte sizes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "common/audit_switch.hpp"
#include "common/rng.hpp"
#include "overlay/overlay.hpp"
#include "support/overlay_twin.hpp"
#include "support/publish_reference.hpp"

namespace ahsw::overlay {
namespace {

std::vector<rdf::Triple> random_triples(common::Rng& rng) {
  std::vector<rdf::Triple> triples(1 + rng.below(10));
  for (rdf::Triple& t : triples) t = random_triple(rng);
  return triples;
}

/// Builds both twins: 6 index nodes, 8 storage nodes sharing a few triples
/// each.
struct Pair {
  Pair(std::uint64_t seed, common::Rng& rng) {
    OverlayConfig cfg;
    cfg.seed = seed;
    cfg.replication_factor = seed % 3 == 0 ? 2 : 3;
    // A narrow ring makes an owner's keys interleave with other owners'.
    cfg.ring.bits = seed % 2 == 0 ? 64 : 10;
    guarded = std::make_unique<Twin>(cfg);
    merged = std::make_unique<Twin>(cfg);
    for (Twin* t : both()) {
      for (int i = 0; i < 6; ++i) t->overlay.add_index_node(0);
      storage.clear();
      for (int i = 0; i < 8; ++i) {
        storage.push_back(t->overlay.add_storage_node());
      }
    }
    for (net::NodeAddress addr : storage) share(addr, random_triples(rng), 0);
  }
  std::vector<Twin*> both() { return {guarded.get(), merged.get()}; }
  void share(net::NodeAddress addr, const std::vector<rdf::Triple>& triples,
             net::SimTime now) {
    for (Twin* t : both()) t->overlay.share_triples(addr, triples, now);
  }
  void repair(net::SimTime now) {
    guarded->overlay.repair(now);
    OverlayReference::repair(merged->overlay, now);
  }
  std::unique_ptr<Twin> guarded;
  std::unique_ptr<Twin> merged;
  std::vector<net::NodeAddress> storage;
};

/// Runs a seeded history on a pair; returns how many of its repairs found
/// the replicas in sync.
int run_history(std::uint64_t seed, int steps) {
  common::Rng rng(seed);
  Pair pair(seed, rng);
  Twin& guarded = *pair.guarded;
  int in_sync = 0;
  bool crash_pending = false;
  for (int step = 0; step < steps; ++step) {
    const net::SimTime now = 10.0 * step;
    const net::NodeAddress addr = pair.storage[rng.below(pair.storage.size())];
    const std::vector<chord::Key> live = guarded.overlay.ring().live_ids();
    const std::uint64_t op = rng.below(16);
    const std::string where = "seed " + std::to_string(seed) + " step " +
                              std::to_string(step) + " op " +
                              std::to_string(op);
    if (op <= 2) {
      pair.share(addr, random_triples(rng), now);
    } else if (op == 3) {
      std::vector<rdf::Triple> triples;
      guarded.overlay.store_of(addr).for_each([&](const rdf::Triple& t) {
        if (rng.chance(0.4)) triples.push_back(t);
      });
      for (Twin* t : pair.both()) {
        t->overlay.unshare_triples(addr, triples, now);
      }
    } else if (op == 4) {
      // Storage crash, a lazy purge by a peer, recovery and rejoin.
      std::vector<rdf::Triple> held;
      guarded.overlay.store_of(addr).for_each(
          [&](const rdf::Triple& t) { held.push_back(t); });
      const net::NodeAddress reporter =
          pair.storage[rng.below(pair.storage.size())];
      const bool report = !held.empty() && reporter != addr;
      const bool purge = rng.chance(0.5);
      const rdf::TriplePattern pattern =
          held.empty() ? rdf::TriplePattern{}
                       : rdf::TriplePattern{held[rng.below(held.size())].s,
                                            rdf::Variable{"p"},
                                            rdf::Variable{"o"}};
      for (Twin* t : pair.both()) {
        t->overlay.storage_node_fail(addr);
        if (report) {
          t->overlay.report_dead_provider(
              reporter, *t->overlay.row_key(pattern), addr, now);
        }
        if (purge) t->overlay.purge_failed_everywhere();
        t->network.recover(addr);
        t->overlay.storage_node_rejoin(addr, now);
      }
    } else if (op == 5) {
      if (live.size() >= 9) continue;
      for (Twin* t : pair.both()) t->overlay.add_index_node(now);
    } else if (op == 6) {
      if (crash_pending || live.size() <= 4) continue;
      const chord::Key leaving = live[rng.below(live.size())];
      for (Twin* t : pair.both()) t->overlay.index_node_leave(leaving, now);
    } else if (op == 7) {
      // An index crash, left unrepaired until the next repair step.
      if (crash_pending || live.size() <= 4) continue;
      const chord::Key victim = live[rng.below(live.size())];
      for (Twin* t : pair.both()) t->overlay.index_node_fail(victim);
      crash_pending = true;
    } else if (op == 8) {
      // An index node's address fails and recovers on the network alone,
      // between two repairs, with writes routed around it meanwhile.
      if (crash_pending) continue;
      const chord::Key victim = live[rng.below(live.size())];
      const net::NodeAddress victim_addr =
          guarded.overlay.ring().address_of(victim);
      const std::vector<rdf::Triple> triples = random_triples(rng);
      for (Twin* t : pair.both()) {
        t->network.fail(victim_addr);
        t->overlay.share_triples(addr, triples, now);
        t->network.recover(victim_addr);
      }
    } else if (op == 9) {
      // A test-hook edit: a replica entry the owner never wrote, newer than
      // anything it holds, which reconcile promotes.
      const chord::Key holder = live[rng.below(live.size())];
      const std::vector<Row>& rows =
          guarded.overlay.index_nodes().at(holder).replicas.rows();
      if (rows.empty()) continue;
      const Row row = rows[rng.below(rows.size())];
      const Provider p = row.providers.front();
      for (Twin* t : pair.both()) {
        t->overlay.index_state(holder).replicas.upsert_replica(
            row.key, p.address, p.frequency + 1, p.version + 100);
      }
    } else if (op == 10) {
      for (Twin* t : pair.both()) t->overlay.ring().fix_all_fingers_oracle();
    } else {
      if (guarded.overlay.replicas_in_sync()) ++in_sync;
      pair.repair(now);
      crash_pending = false;
      // Every other step runs the same code on both twins.
      expect_same(*pair.guarded, *pair.merged, where);
      if (::testing::Test::HasFatalFailure()) return in_sync;
    }
  }
  // Audited runs merge in sync too: no merge in sync may change a row.
  EXPECT_EQ(guarded.overlay.replica_sync_violations(), 0u) << seed;
  return in_sync;
}

TEST(ReplicaSync, GuardedRepairMatchesAlwaysMergingRepair) {
  int in_sync = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    in_sync += run_history(seed, 120);
    if (HasFatalFailure()) return;
  }
  // The histories reach the skip, not only the merging path.
  EXPECT_GT(in_sync, 50) << in_sync;
}

TEST(ReplicaSync, StorageChurnSkipsTheMergesFromTheSecondRepairOn) {
  common::Rng rng(7);
  Pair pair(7, rng);
  Twin& guarded = *pair.guarded;
  for (int round = 0; round < 12; ++round) {
    const net::SimTime now = 100.0 * round;
    const net::NodeAddress addr = pair.storage[rng.below(pair.storage.size())];
    pair.share(addr, random_triples(rng), now);
    for (Twin* t : pair.both()) {
      t->overlay.storage_node_fail(addr);
      t->overlay.purge_failed_everywhere();
      t->network.recover(addr);
      t->overlay.storage_node_rejoin(addr, now);
    }
    EXPECT_EQ(guarded.overlay.replicas_in_sync(), round > 0)
        << "round " << round;
    pair.repair(now);
    expect_same(*pair.guarded, *pair.merged, "round " + std::to_string(round));
    if (HasFatalFailure()) return;
  }
}

TEST(ReplicaSync, AuditCountsARowChangedByAMergeInSync) {
  common::Rng rng(11);
  Pair pair(11, rng);
  HybridOverlay& ov = pair.guarded->overlay;
  ov.repair(0);
  ASSERT_TRUE(ov.replicas_in_sync());
  // An edit behind the overlay's back (not through index_state()): a newer
  // replica entry than its owner holds, which the overlay cannot see.
  chord::Key holder = 0;
  for (const auto& [id, ix] : ov.index_nodes()) {
    if (!ix.replicas.empty()) holder = id;
  }
  const Row row = ov.index_nodes().at(holder).replicas.rows().front();
  const Provider p = row.providers.front();
  auto& hidden = const_cast<IndexNodeState&>(ov.index_nodes().at(holder));
  hidden.replicas.upsert_replica(row.key, p.address, p.frequency + 1,
                                 p.version + 100);
  const chord::Key owner =
      ov.ring().oracle_successor(ov.ring().truncate(row.key));
  ov.repair(10);
  const Provider* held = ov.index_nodes().at(owner).table.find(row.key,
                                                               p.address);
  ASSERT_NE(held, nullptr);
  const check::AuditReport report = check::audit(ov);
  if (common::audit_enabled()) {
    // Audited runs merge in sync: the owner takes the entry and the auditor
    // reports the merge as a replica-sync violation.
    EXPECT_EQ(held->version, p.version + 100);
    EXPECT_GT(ov.replica_sync_violations(), 0u);
    EXPECT_EQ(report.count(check::Invariant::kReplicaSync,
                           check::Severity::kCorrupt),
              1u)
        << report.to_string();
  } else {
    // The repair skipped its merges: the owner never saw the entry.
    EXPECT_EQ(held->version, p.version);
    EXPECT_EQ(ov.replica_sync_violations(), 0u);
    EXPECT_FALSE(report.has(check::Invariant::kReplicaSync));
  }
}

}  // namespace
}  // namespace ahsw::overlay
