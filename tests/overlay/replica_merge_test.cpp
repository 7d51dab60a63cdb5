// Differential test of the location-table row merge against the per-entry
// merges it replaced (tests/support/replica_reference).
//
// A seeded owner table takes random mutations: publishes, partial and full
// retracts, upserts (zero included), purges and batched writes over several
// keys. After each one, a replica
// table receives what the overlay would push (the owner's entry for one
// provider, the owner's whole table, or a stale or out-of-order snapshot),
// reconciles snapshots, absorbs slices and purges dead providers. Two cases
// aim at the merge's early return on a pushed row equal to the stored one:
// tombstones of other providers under the key (still a no-op), and a stale
// frequency-0 mirror that leaves a burial beside a newer live entry of the
// same provider (not a no-op: the push clears the burial). Every
// step runs once through the row merge and once through the oracle, on two
// tables with the same history, and the two must agree on rows,
// tombstone versions and byte size.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "overlay/location_table.hpp"
#include "support/replica_reference.hpp"

namespace ahsw::overlay {
namespace {

using Ref = LocationTableReference;

constexpr chord::Key kKeys[] = {11, 12, 13, 14, 15};
constexpr net::NodeAddress kAddrs[] = {1, 2, 3, 4, 5, 6};

/// The owner's entry as its replicas mirror it: frequency 0 with the
/// buried version once the entry is gone.
Provider held(const LocationTable& owner, chord::Key key,
              net::NodeAddress address) {
  if (const Provider* p = find_entry(owner, key, address)) return *p;
  return Provider{address, 0,
                  owner.tombstone_version(key, address).value_or(0)};
}

/// Rows for random keys (ascending) with random entries: frequencies from
/// 0 and versions from 0, so stale, equal, newer and empty entries mix.
RowSnapshot random_rows(common::Rng& rng) {
  RowSnapshot out;
  for (chord::Key key : kKeys) {
    if (!rng.chance(0.5)) continue;
    Row row{key, {}};
    for (net::NodeAddress a : kAddrs) {
      if (!rng.chance(0.4)) continue;
      row.providers.push_back(
          Provider{a, static_cast<std::uint32_t>(rng.below(5)),
                   static_cast<std::uint32_t>(rng.below(9))});
    }
    if (!row.providers.empty()) out.push_back(std::move(row));
  }
  return out;
}

void expect_same(const LocationTable& merged, const LocationTable& oracle,
                 const std::string& where) {
  ASSERT_EQ(merged.rows(), oracle.rows()) << where;
  ASSERT_EQ(merged.byte_size(), oracle.byte_size()) << where;
  ASSERT_EQ(Ref::tombstones(merged), Ref::tombstones(oracle)) << where;
}

void run_history(std::uint64_t seed, int steps) {
  common::Rng rng(seed);
  LocationTable owner, owner_ref, replica, replica_ref;
  std::vector<RowSnapshot> history;  // earlier owner snapshots
  for (int step = 0; step < steps; ++step) {
    const chord::Key key = kKeys[rng.below(std::size(kKeys))];
    const net::NodeAddress a = kAddrs[rng.below(std::size(kAddrs))];
    const auto freq = static_cast<std::uint32_t>(1 + rng.below(6));
    const std::uint64_t owner_op = rng.below(6);
    switch (owner_op) {
      case 0:
        owner.publish(key, a, freq);
        Ref::publish(owner_ref, key, a, freq);
        break;
      case 1:  // partial or full retract
      case 2: {
        const std::uint32_t by = owner_op == 1 ? 1 : 100;
        ASSERT_EQ(owner.retract(key, a, by),
                  Ref::retract(owner_ref, key, a, by));
        break;
      }
      case 3: {
        const auto to = static_cast<std::uint32_t>(rng.below(6));
        owner.upsert(key, a, to);
        Ref::upsert(owner_ref, key, a, to);
        break;
      }
      case 4:
        ASSERT_EQ(owner.purge(key, a), Ref::purge(owner_ref, key, a));
        break;
      default: {
        // One batched owner write over ascending keys, against the same
        // writes one entry at a time; then the owner's resulting entries,
        // read in one walk, against single-entry reads.
        std::vector<KeyedEntry> batch;
        for (chord::Key k : kKeys) {
          if (!rng.chance(0.6)) continue;
          batch.push_back({k, {kAddrs[rng.below(std::size(kAddrs))],
                               static_cast<std::uint32_t>(rng.below(6)), 0}});
        }
        const std::uint64_t kind = rng.below(3);
        if (kind == 0) owner.publish(batch);
        if (kind == 1) owner.retract(batch);
        if (kind == 2) owner.upsert(batch);
        for (const KeyedEntry& e : batch) {
          const Provider& p = e.provider;
          if (kind == 0) Ref::publish(owner_ref, e.key, p.address, p.frequency);
          if (kind == 1) Ref::retract(owner_ref, e.key, p.address, p.frequency);
          if (kind == 2) Ref::upsert(owner_ref, e.key, p.address, p.frequency);
        }
        owner.held(batch);
        for (const KeyedEntry& e : batch) {
          ASSERT_EQ(e.provider, held(owner_ref, e.key, e.provider.address))
              << "seed " << seed << " step " << step << " key " << e.key;
        }
        break;
      }
    }
    const std::string where = "seed " + std::to_string(seed) + " step " +
                              std::to_string(step) + " owner op " +
                              std::to_string(owner_op);
    expect_same(owner, owner_ref, where + " (owner)");
    if (::testing::Test::HasFatalFailure()) return;
    if (rng.chance(0.3)) history.push_back(owner.rows());

    const RowSnapshot stale =
        history.empty() ? RowSnapshot{} : history[rng.below(history.size())];
    const std::uint64_t replica_op = rng.below(10);
    switch (replica_op) {
      case 0: {  // one owner entry, as a publish pushes it
        const Provider p = held(owner, key, a);
        replica.upsert_replica(key, a, p.frequency, p.version);
        Ref::upsert_replica(replica_ref, key, a, p.frequency, p.version);
        break;
      }
      case 1:  // the whole owner table, as repair re-seeds it
        replica.mirror(owner.rows());
        Ref::mirror(replica_ref, owner.rows());
        break;
      case 2:  // a stale snapshot arriving late
        replica.mirror(stale);
        Ref::mirror(replica_ref, stale);
        break;
      case 3: {  // out-of-order and empty entries
        const RowSnapshot rows = random_rows(rng);
        replica.mirror(rows);
        Ref::mirror(replica_ref, rows);
        break;
      }
      case 4: {  // recovery: a current, stale or random snapshot
        const RowSnapshot rows = rng.chance(0.3)   ? owner.rows()
                                 : rng.chance(0.5) ? stale
                                                   : random_rows(rng);
        replica.reconcile(rows);
        Ref::reconcile(replica_ref, rows);
        break;
      }
      case 5: {  // a slice transfer
        const RowSnapshot rows = rng.chance(0.5) ? stale : random_rows(rng);
        replica.absorb(rows);
        Ref::absorb(replica_ref, rows);
        break;
      }
      case 6:  // lazy repair forwarded to the replica
        ASSERT_EQ(replica.purge(key, a), Ref::purge(replica_ref, key, a));
        break;
      case 7: {
        // The owner's table pushed again, after the replica buried other
        // providers of the row: an equal row beside foreign tombstones is a
        // no-op.
        replica.mirror(owner.rows());
        Ref::mirror(replica_ref, owner.rows());
        if (const Row* row = owner.find_row(key)) {
          for (net::NodeAddress other : kAddrs) {
            const bool listed = std::any_of(
                row->providers.begin(), row->providers.end(),
                [&](const Provider& p) { return p.address == other; });
            if (listed || !rng.chance(0.5)) continue;
            replica.purge(key, other);
            Ref::purge(replica_ref, key, other);
          }
        }
        replica.mirror(owner.rows());
        Ref::mirror(replica_ref, owner.rows());
        replica.reconcile(owner.rows());
        Ref::reconcile(replica_ref, owner.rows());
        break;
      }
      case 8: {
        // A stale frequency-0 mirror of a live entry buries an older
        // version beside it; the equal row pushed next names a buried
        // provider, so it must take the full merge (and clear the burial).
        replica.mirror(owner.rows());
        Ref::mirror(replica_ref, owner.rows());
        const Provider* p = find_entry(owner, key, a);
        if (p != nullptr && p->version > 0) {
          replica.upsert_replica(key, a, 0, p->version - 1);
          Ref::upsert_replica(replica_ref, key, a, 0, p->version - 1);
          expect_same(replica, replica_ref, where + " stale burial");
          if (::testing::Test::HasFatalFailure()) return;
        }
        const RowSnapshot rows = rng.chance(0.5) ? owner.rows() : stale;
        if (rng.chance(0.5)) {
          replica.mirror(rows);
          Ref::mirror(replica_ref, rows);
        } else {
          replica.reconcile(rows);
          Ref::reconcile(replica_ref, rows);
        }
        break;
      }
      default:  // a buried provider re-publishes: the revival reaches it
        owner.publish(key, a, freq);
        Ref::publish(owner_ref, key, a, freq);
        replica.mirror(owner.rows());
        Ref::mirror(replica_ref, owner.rows());
        break;
    }
    expect_same(replica, replica_ref,
                where + " replica op " + std::to_string(replica_op));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ReplicaMerge, RowMergeMatchesPerEntryOracle) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_history(seed, 400);
    if (HasFatalFailure()) return;
  }
}

TEST(ReplicaMerge, RowMergeMatchesOracleOnOneEntryRows) {
  // Two addresses and one key: every push hits the same row, so burials,
  // revivals and version ties pile up on one tombstone range.
  common::Rng rng(99);
  LocationTable merged, oracle;
  for (int step = 0; step < 2000; ++step) {
    const Provider in{kAddrs[rng.below(2)],
                      static_cast<std::uint32_t>(rng.below(3)),
                      static_cast<std::uint32_t>(rng.below(6))};
    const RowSnapshot rows{{kKeys[0], {in}}};
    switch (rng.below(4)) {
      case 0:
        merged.upsert_replica(kKeys[0], in.address, in.frequency, in.version);
        Ref::upsert_replica(oracle, kKeys[0], in.address, in.frequency,
                            in.version);
        break;
      case 1:
        merged.reconcile(rows);
        Ref::reconcile(oracle, rows);
        break;
      case 2:
        merged.absorb(rows);
        Ref::absorb(oracle, rows);
        break;
      default:
        ASSERT_EQ(merged.purge(kKeys[0], in.address),
                  Ref::purge(oracle, kKeys[0], in.address));
        break;
    }
    expect_same(merged, oracle, "step " + std::to_string(step));
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ahsw::overlay
