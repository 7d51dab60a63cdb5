// Differential test of the location-table row merge against the per-entry
// merges it replaced (tests/support/replica_reference).
//
// A seeded owner table takes random mutations: publishes, partial and full
// retracts, upserts (zero included) and purges. After each one, a replica
// table receives what the overlay would push (the owner's entry for one
// provider, the owner's whole table, or a stale or out-of-order snapshot),
// reconciles snapshots, absorbs slices and purges dead providers. Every
// step runs once through the row merge and once through the oracle, on two
// tables with the same history, and the two must agree on rows,
// tombstone versions and byte size.
#include <gtest/gtest.h>

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

/// The owner's entry as replicate_row pushes it: frequency 0 with the
/// buried version once the entry is gone.
Provider held(const LocationTable& owner, chord::Key key,
              net::NodeAddress address) {
  if (const Provider* p = owner.find(key, address)) return *p;
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
  for (chord::Key key : kKeys) {
    for (net::NodeAddress a : kAddrs) {
      ASSERT_EQ(merged.tombstone_version(key, a),
                oracle.tombstone_version(key, a))
          << where << ": key " << key << " address " << a;
    }
  }
}

void run_history(std::uint64_t seed, int steps) {
  common::Rng rng(seed);
  LocationTable owner, owner_ref, replica, replica_ref;
  std::vector<RowSnapshot> history;  // earlier owner snapshots
  for (int step = 0; step < steps; ++step) {
    const chord::Key key = kKeys[rng.below(std::size(kKeys))];
    const net::NodeAddress a = kAddrs[rng.below(std::size(kAddrs))];
    const auto freq = static_cast<std::uint32_t>(1 + rng.below(6));
    const std::uint64_t owner_op = rng.below(5);
    switch (owner_op) {
      case 0:
        owner.publish(key, a, freq);
        Ref::publish(owner_ref, key, a, freq);
        break;
      case 1:  // partial or full retract
      case 2: {
        const std::uint32_t by = owner_op == 1 ? 1 : 100;
        owner.retract(key, a, by);
        owner_ref.retract(key, a, by);
        break;
      }
      case 3: {
        const auto to = static_cast<std::uint32_t>(rng.below(6));
        owner.upsert(key, a, to);
        Ref::upsert(owner_ref, key, a, to);
        break;
      }
      default:
        owner.purge(key, a);
        owner_ref.purge(key, a);
        break;
    }
    const std::string where = "seed " + std::to_string(seed) + " step " +
                              std::to_string(step) + " owner op " +
                              std::to_string(owner_op);
    expect_same(owner, owner_ref, where + " (owner)");
    if (::testing::Test::HasFatalFailure()) return;
    if (rng.chance(0.3)) history.push_back(owner.rows());

    const RowSnapshot stale =
        history.empty() ? RowSnapshot{} : history[rng.below(history.size())];
    const std::uint64_t replica_op = rng.below(8);
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
        replica.purge(key, a);
        replica_ref.purge(key, a);
        break;
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
        merged.purge(kKeys[0], in.address);
        oracle.purge(kKeys[0], in.address);
        break;
    }
    expect_same(merged, oracle, "step " + std::to_string(step));
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ahsw::overlay
