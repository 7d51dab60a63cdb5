#include "overlay/location_table.hpp"

#include <gtest/gtest.h>

namespace ahsw::overlay {
namespace {

// The paper's Table I: the location table of index node N7.
//   K1 -> D1 (15), D3 (10)
//   K2 -> D1 (10), D3 (20), D4 (15)
//   K3 -> D1 (30)
constexpr chord::Key K1 = 101, K2 = 102, K3 = 103;
constexpr net::NodeAddress D1 = 1, D2 = 2, D3 = 3, D4 = 4;

LocationTable table_one() {
  LocationTable t;
  t.publish(K1, D1, 15);
  t.publish(K1, D3, 10);
  t.publish(K2, D1, 10);
  t.publish(K2, D3, 20);
  t.publish(K2, D4, 15);
  t.publish(K3, D1, 30);
  return t;
}

TEST(LocationTable, TableOneShape) {
  LocationTable t = table_one();
  EXPECT_EQ(t.row_count(), 3u);
  EXPECT_EQ(t.entry_count(), 6u);
  EXPECT_EQ(t.lookup(K1).size(), 2u);
  EXPECT_EQ(t.lookup(K2).size(), 3u);
  EXPECT_EQ(t.lookup(K3).size(), 1u);
}

TEST(LocationTable, LookupSortsAscendingFrequency) {
  // The order the further-optimized chain wants: smallest first, D3 (the
  // largest provider of K2 in Table I) last.
  LocationTable t = table_one();
  std::vector<Provider> row = t.lookup(K2);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].address, D1);
  EXPECT_EQ(row[0].frequency, 10u);
  EXPECT_EQ(row[1].address, D4);
  EXPECT_EQ(row[2].address, D3);
  EXPECT_EQ(row[2].frequency, 20u);
}

TEST(LocationTable, LookupUnknownKeyIsEmpty) {
  EXPECT_TRUE(table_one().lookup(999).empty());
}

TEST(LocationTable, PublishMergesSameProvider) {
  LocationTable t;
  t.publish(K1, D1, 5);
  t.publish(K1, D1, 7);
  std::vector<Provider> row = t.lookup(K1);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0].frequency, 12u);
}

TEST(LocationTable, PublishZeroFrequencyIsNoop) {
  LocationTable t;
  t.publish(K1, D1, 0);
  EXPECT_TRUE(t.empty());
}

TEST(LocationTable, RetractDecrementsAndRemovesAtZero) {
  LocationTable t = table_one();
  EXPECT_TRUE(t.retract(K1, D1, 5));
  EXPECT_EQ(t.lookup(K1)[0].frequency, 10u);  // D1 now 10, ties D3
  EXPECT_TRUE(t.retract(K1, D1, 10));
  ASSERT_EQ(t.lookup(K1).size(), 1u);
  EXPECT_EQ(t.lookup(K1)[0].address, D3);
}

TEST(LocationTable, RetractBelowZeroClamps) {
  LocationTable t;
  t.publish(K1, D1, 3);
  EXPECT_TRUE(t.retract(K1, D1, 100));
  EXPECT_TRUE(t.lookup(K1).empty());
}

TEST(LocationTable, RetractUnknownIsFalse) {
  LocationTable t = table_one();
  EXPECT_FALSE(t.retract(K1, D2, 1));
  EXPECT_FALSE(t.retract(999, D1, 1));
}

TEST(LocationTable, RetractLastEntryDropsRow) {
  LocationTable t;
  t.publish(K1, D1, 1);
  t.retract(K1, D1, 1);
  EXPECT_EQ(t.row_count(), 0u);
}

TEST(LocationTable, PurgeRemovesProviderFromRow) {
  LocationTable t = table_one();
  EXPECT_TRUE(t.purge(K2, D3));
  EXPECT_EQ(t.lookup(K2).size(), 2u);
  EXPECT_FALSE(t.purge(K2, D3));
}

TEST(LocationTable, PurgeEverywhereSimulatesLazyRepair) {
  LocationTable t = table_one();
  t.purge_everywhere(D1);
  EXPECT_EQ(t.lookup(K1).size(), 1u);
  EXPECT_EQ(t.lookup(K2).size(), 2u);
  EXPECT_TRUE(t.lookup(K3).empty());  // K3 row had only D1
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(LocationTable, ExtractRangeTakesOpenClosedSlice) {
  LocationTable t = table_one();
  // Keys 101..103; slice (101, 102] takes exactly K2.
  auto slice = t.extract_range(101, 102);
  ASSERT_EQ(slice.size(), 1u);
  EXPECT_EQ(slice.begin()->key, K2);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_TRUE(t.lookup(K2).empty());
}

TEST(LocationTable, ExtractRangeHandlesWraparound) {
  LocationTable t;
  t.publish(5, D1, 1);
  t.publish(1000, D2, 1);
  // (900, 10] wraps: takes both 1000 and 5.
  auto slice = t.extract_range(900, 10);
  EXPECT_EQ(slice.size(), 2u);
  EXPECT_TRUE(t.empty());
}

TEST(LocationTable, AbsorbMergesSlice) {
  LocationTable a = table_one();
  LocationTable b;
  b.absorb(a.extract_range(0, ~chord::Key{0}));
  EXPECT_EQ(b.row_count(), 3u);
  EXPECT_EQ(b.entry_count(), 6u);
  EXPECT_EQ(b.lookup(K2).size(), 3u);
}

TEST(LocationTable, EraseRowDropsWholeRow) {
  LocationTable t = table_one();
  t.erase_row(K2);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_TRUE(t.lookup(K2).empty());
}

TEST(LocationTable, UpsertSetsInsteadOfAdding) {
  LocationTable t;
  t.upsert(K1, D1, 5);
  t.upsert(K1, D1, 5);  // idempotent, unlike publish
  ASSERT_EQ(t.lookup(K1).size(), 1u);
  EXPECT_EQ(t.lookup(K1)[0].frequency, 5u);
  t.upsert(K1, D1, 9);
  EXPECT_EQ(t.lookup(K1)[0].frequency, 9u);
}

TEST(LocationTable, UpsertZeroRemoves) {
  LocationTable t = table_one();
  t.upsert(K3, D1, 0);
  EXPECT_TRUE(t.lookup(K3).empty());
  t.upsert(999, D1, 0);  // no-op on absent rows
  EXPECT_TRUE(t.lookup(999).empty());
}

TEST(LocationTable, ReconcileTakesNewerVersionPerProvider) {
  LocationTable t;
  t.publish(K1, D1, 10);  // owner entry at version 1
  // Two replica holders push overlapping snapshots: a stale one (version 1,
  // the pre-publish frequency) and a newer one (version 2).
  t.reconcile(RowSnapshot{{K1, {{D1, 7, 1}, {D2, 4, 1}}}});
  t.reconcile(RowSnapshot{{K1, {{D1, 12, 2}, {D2, 4, 1}}}});
  std::vector<Provider> row = t.lookup(K1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].address, D2);
  EXPECT_EQ(row[0].frequency, 4u);
  EXPECT_EQ(row[1].address, D1);
  EXPECT_EQ(row[1].frequency, 12u);
  EXPECT_EQ(row[1].version, 2u);
}

TEST(LocationTable, ReconcileEqualVersionsMergeByMaxFrequency) {
  // Several holders pushing the *same* causal state must stay idempotent:
  // equal versions merge by max, so repeated pushes never inflate the row.
  LocationTable t;
  t.reconcile(RowSnapshot{{K1, {{D1, 7, 3}}}});
  t.reconcile(RowSnapshot{{K1, {{D1, 7, 3}}}});
  // A lower frequency at the same version loses.
  t.reconcile(RowSnapshot{{K1, {{D1, 5, 3}}}});
  std::vector<Provider> row = t.lookup(K1);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0].frequency, 7u);
  EXPECT_EQ(row[0].version, 3u);
}

TEST(LocationTable, ReconcileDoesNotResurrectStaleHigherFrequency) {
  // THE regression this PR fixes (the documented wart): a *partial* retract
  // only lowers the frequency, and the old max-merge reconcile let a stale
  // replica snapshot bring the old, higher frequency back.
  LocationTable t;
  t.publish(K1, D1, 30);                   // version 1, frequency 30
  overlay::RowSnapshot stale_snapshot = t.rows();
  EXPECT_TRUE(t.retract(K1, D1, 15));      // partial: frequency 15, version 2
  t.reconcile(stale_snapshot);             // max-merge would restore 30
  std::vector<Provider> row = t.lookup(K1);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0].frequency, 15u) << "stale higher frequency resurrected";
  EXPECT_EQ(row[0].version, 2u);
}

TEST(LocationTable, ReconcileAllTombstonedLeavesNoEmptyRow) {
  // A snapshot in which every provider is tombstoned must not churn an
  // empty rows_[key] entry into existence (the old operator[] did, then
  // erased it again on the hot reconcile path).
  LocationTable t;
  t.publish(K1, D1, 5);
  t.retract(K1, D1, 5);  // row gone, tombstone buried at version 1
  EXPECT_EQ(t.row_count(), 0u);
  t.reconcile(RowSnapshot{{K1, {{D1, 5, 1}}}, {K2, {{D2, 0, 9}}}});
  EXPECT_EQ(t.row_count(), 0u);
  EXPECT_TRUE(t.empty());
}

TEST(LocationTable, ReconcileIsIdempotent) {
  LocationTable t;
  RowSnapshot snapshot = {{K1, {{D1, 3}, {D3, 8}}}};
  t.reconcile(snapshot);
  t.reconcile(snapshot);
  t.reconcile(snapshot);
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(t.lookup(K1)[1].frequency, 8u);
}

TEST(LocationTable, ReconcileDoesNotResurrectRetractedProvider) {
  // Regression: a provider retracts its last triples (graceful departure),
  // then a stale replica snapshot — taken before the retraction — arrives
  // through recovery reconciliation. The max-merge used to bring the
  // departed provider back from the dead.
  LocationTable t = table_one();
  EXPECT_TRUE(t.retract(K3, D1, 30));  // D1 fully retracts from K3
  EXPECT_TRUE(t.lookup(K3).empty());
  EXPECT_TRUE(t.tombstoned(K3, D1));

  t.reconcile(RowSnapshot{{K3, {{D1, 30}}}});  // stale replica still lists D1
  EXPECT_TRUE(t.lookup(K3).empty()) << "retracted provider resurrected";
}

TEST(LocationTable, ReconcileDoesNotResurrectPurgedProvider) {
  // Same failure through the lazy-repair path: purge (dead provider)
  // followed by a stale replica push.
  LocationTable t = table_one();
  EXPECT_TRUE(t.purge(K2, D3));
  t.reconcile(RowSnapshot{{K2, {{D1, 10}, {D3, 20}, {D4, 15}}}});
  std::vector<Provider> row = t.lookup(K2);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].address, D1);
  EXPECT_EQ(row[1].address, D4);
}

TEST(LocationTable, RepublishClearsTombstone) {
  // The provider comes back (rejoins, shares again): publish lifts the
  // tombstone, restarts the version past the burial, and reconcile may
  // merge *newer* snapshots again — while pre-burial ones stay rejected.
  LocationTable t;
  t.publish(K1, D1, 5);   // version 1
  t.retract(K1, D1, 5);   // buried at version 1
  EXPECT_TRUE(t.tombstoned(K1, D1));
  ASSERT_TRUE(t.tombstone_version(K1, D1).has_value());
  EXPECT_EQ(*t.tombstone_version(K1, D1), 1u);
  t.publish(K1, D1, 8);   // revived at version 2
  EXPECT_FALSE(t.tombstoned(K1, D1));
  // A stale pre-burial snapshot is rejected.
  t.reconcile(RowSnapshot{{K1, {{D1, 5, 1}}}});
  EXPECT_EQ(t.lookup(K1)[0].frequency, 8u);
  // A post-revival snapshot is accepted.
  t.reconcile(RowSnapshot{{K1, {{D1, 11, 3}}}});
  ASSERT_EQ(t.lookup(K1).size(), 1u);
  EXPECT_EQ(t.lookup(K1)[0].frequency, 11u);
}

TEST(LocationTable, UpsertReplicaMirrorsVersionVerbatim) {
  LocationTable replicas;
  replicas.upsert_replica(K1, D1, 15, 3);
  ASSERT_EQ(replicas.lookup(K1).size(), 1u);
  EXPECT_EQ(replicas.lookup(K1)[0].version, 3u);
  replicas.upsert_replica(K1, D1, 10, 2);  // out-of-order push: ignored
  EXPECT_EQ(replicas.lookup(K1)[0].frequency, 15u);
  replicas.upsert_replica(K1, D1, 9, 4);   // newer push: applied
  EXPECT_EQ(replicas.lookup(K1)[0].frequency, 9u);
  replicas.upsert_replica(K1, D1, 0, 5);   // removal push: buries version 5
  EXPECT_TRUE(replicas.lookup(K1).empty());
  EXPECT_TRUE(replicas.tombstoned(K1, D1));
  replicas.upsert_replica(K1, D1, 7, 5);   // not newer than burial: rejected
  EXPECT_TRUE(replicas.lookup(K1).empty());
  replicas.upsert_replica(K1, D1, 7, 6);   // re-publish reached the owner
  ASSERT_EQ(replicas.lookup(K1).size(), 1u);
  EXPECT_EQ(replicas.lookup(K1)[0].frequency, 7u);
}

TEST(LocationTable, AbsorbPreservesVersions) {
  // Slice transfers must not reset versions: the new owner's entries have
  // to stay ahead of replica mirrors still carrying pre-transfer versions.
  LocationTable a;
  a.publish(K1, D1, 10);
  a.publish(K1, D1, 10);
  a.publish(K1, D1, 10);  // version 3, frequency 30
  LocationTable b;
  b.absorb(a.extract_range(0, ~chord::Key{0}));
  ASSERT_EQ(b.lookup(K1).size(), 1u);
  EXPECT_EQ(b.lookup(K1)[0].version, 3u);
  EXPECT_TRUE(b.retract(K1, D1, 15));  // version 4, frequency 15
  // A stale mirror of the old owner.
  b.reconcile(RowSnapshot{{K1, {{D1, 30, 3}}}});
  EXPECT_EQ(b.lookup(K1)[0].frequency, 15u);
}

TEST(LocationTable, PurgeEverywhereTombstonesAffectedRows) {
  LocationTable t = table_one();
  t.purge_everywhere(D1);
  EXPECT_TRUE(t.tombstoned(K1, D1));
  EXPECT_TRUE(t.tombstoned(K2, D1));
  EXPECT_TRUE(t.tombstoned(K3, D1));
  EXPECT_FALSE(t.tombstoned(K1, D3));
  t.reconcile(RowSnapshot{{K3, {{D1, 30}}}});
  EXPECT_TRUE(t.lookup(K3).empty());
}

TEST(LocationTable, RowsIterateAscendingByKeyAfterArbitraryMutations) {
  // Flat-vector refactor pin: rows() must present the map-era ascending-key
  // iteration order — which audits, repair and replica snapshots walk
  // directly — no matter the mutation history. Keys arrive in a scrambled
  // order and every mutating entry point runs at least once.
  LocationTable t;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const chord::Key key = 1 + (i * 37) % 97;  // 37 generates Z/97: scrambled
    t.publish(key, D1 + (i % 4), 5 + i);
  }
  t.retract(1 + 37 % 97, D2, 1);
  t.upsert(1 + (2 * 37) % 97, D3, 40);
  t.upsert_replica(1 + (3 * 37) % 97, D4, 12, /*version=*/99);
  t.purge(1 + (4 * 37) % 97, D1);
  t.purge_everywhere(D2);
  t.erase_row(1 + (5 * 37) % 97);
  RowSnapshot slice = t.extract_range(10, 40);  // detach a middle slice...
  t.reconcile(RowSnapshot{{3, {{D1, 7, 50}}}, {200, {{D3, 9, 50}}}});
  t.absorb(slice);  // ...and splice it back after unrelated churn

  ASSERT_GT(t.row_count(), 10u);
  const std::vector<Row>& rows = t.rows();
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].key, rows[i].key) << i;
  }
  // Within each row, providers keep (frequency, address) order — the order
  // lookup() hands to the provider-chain strategy.
  for (const Row& row : rows) {
    for (std::size_t i = 1; i < row.providers.size(); ++i) {
      const Provider& a = row.providers[i - 1];
      const Provider& b = row.providers[i];
      EXPECT_TRUE(a.frequency < b.frequency ||
                  (a.frequency == b.frequency && a.address < b.address))
          << "row " << row.key << " entry " << i;
    }
  }
}

TEST(LocationTable, ByteSizeTracksContent) {
  LocationTable t;
  std::size_t empty_size = t.byte_size();
  EXPECT_EQ(empty_size, 8u);
  t.publish(K1, D1, 1);
  // One row: key (8) + one provider entry (address 8 + frequency 4 +
  // version 4). The 12-byte figure predating per-entry versions was an
  // undercount.
  EXPECT_EQ(t.byte_size(), 8u + 8u + 16u);
  EXPECT_EQ(LocationTable::response_bytes(0), 16u);
  EXPECT_EQ(LocationTable::response_bytes(3), 16u + 3u * 16u);
}

TEST(LocationTable, ByteSizeCountsTombstones) {
  LocationTable t;
  t.publish(K1, D1, 1);
  std::size_t with_entry = t.byte_size();
  // Full removal buries a tombstone (key 8 + address 8 + version 4): the
  // snapshot that travels on transfers must charge for it, or deletions
  // would propagate for free.
  ASSERT_TRUE(t.purge(K1, D1));
  EXPECT_TRUE(t.tombstoned(K1, D1));
  EXPECT_EQ(t.byte_size(), 8u + 20u);
  EXPECT_LT(t.byte_size(), with_entry);
}

}  // namespace
}  // namespace ahsw::overlay
