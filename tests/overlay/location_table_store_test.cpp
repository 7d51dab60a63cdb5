// The location table's storage against a flat model.
//
// LocationTable keeps each key's tombstones in a list beside its row (or
// under a ghost once the key has no row), all lists in one slab. The model
// (tests/support/flat_location_table) keeps every tombstone of the table in
// one vector sorted by (key, address), as the store did before. A seeded
// history drives both through every public write, purge_everywhere,
// erase_row, extract_range and absorb, and forks a copy that is then
// mutated on its own; after each step rows, tombstones, byte size, lookups
// and return values must agree. Named cases pin what the layout must keep:
// a key whose last provider went keeps its tombstones but no row, a slice
// leaves its tombstones at the old owner, and churn recycles slab slots.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "overlay/location_table.hpp"
#include "support/flat_location_table.hpp"
#include "support/replica_reference.hpp"

namespace ahsw::overlay {
namespace {

using Ref = LocationTableReference;

/// Sparse keys, so a forward walk skips rows and ghosts between them.
constexpr chord::Key kKeys[] = {3,  9,  14, 20, 27, 31, 38, 44,
                                51, 57, 60, 66, 73, 80, 88, 95};
constexpr net::NodeAddress kAddrs[] = {1, 2, 3, 4, 5, 6, 7};

chord::Key ring_of(chord::Key key) { return key % 64; }

std::uint32_t below(common::Rng& rng, std::uint64_t n) {
  return static_cast<std::uint32_t>(rng.below(n));
}

/// At most one entry per key, ascending by key (a batched write's input).
std::vector<KeyedEntry> random_entries(common::Rng& rng) {
  std::vector<KeyedEntry> out;
  for (chord::Key key : kKeys) {
    if (!rng.chance(0.4)) continue;
    out.push_back({key, {kAddrs[rng.below(std::size(kAddrs))], below(rng, 5),
                         below(rng, 12)}});
  }
  return out;
}

/// Rows ascending by key with distinct providers: frequencies and versions
/// from 0, so stale, equal, newer and empty entries mix.
RowSnapshot random_rows(common::Rng& rng) {
  RowSnapshot out;
  for (chord::Key key : kKeys) {
    if (!rng.chance(0.4)) continue;
    Row row{key, {}};
    for (net::NodeAddress a : kAddrs) {
      if (rng.chance(0.35)) {
        row.providers.push_back(Provider{a, below(rng, 5), below(rng, 12)});
      }
    }
    if (!row.providers.empty()) out.push_back(std::move(row));
  }
  return out;
}

void expect_same(const LocationTable& t, const FlatLocationTable& m,
                 const std::string& where) {
  ASSERT_EQ(t.rows(), m.rows()) << where;
  ASSERT_EQ(t.row_count(), m.row_count()) << where;
  ASSERT_EQ(t.entry_count(), m.entry_count()) << where;
  ASSERT_EQ(t.empty(), m.row_count() == 0) << where;
  ASSERT_EQ(t.byte_size(), m.byte_size()) << where;
  ASSERT_EQ(Ref::tombstones(t), m.tombstones()) << where;
  std::vector<KeyedEntry> all, all_model;
  for (chord::Key key : kKeys) {
    ASSERT_EQ(t.lookup(key), m.lookup(key)) << where << " key " << key;
    ASSERT_EQ(t.find_row(key) == nullptr, m.find_row(key) == nullptr) << where;
    for (net::NodeAddress a : kAddrs) {
      ASSERT_EQ(t.tombstone_version(key, a), m.tombstone_version(key, a))
          << where << " key " << key << " address " << a;
      all.push_back({key, {a, 0, 0}});
    }
  }
  // held() walks rows and ghosts forward; every (key, address) in order.
  all_model = all;
  t.held(all);
  m.held(all_model);
  ASSERT_EQ(all, all_model) << where;
}

/// One random operation on both; the name of what ran goes to `what`.
void step(LocationTable& t, FlatLocationTable& m, common::Rng& rng,
          std::string& what) {
  const chord::Key key = kKeys[rng.below(std::size(kKeys))];
  const net::NodeAddress a = kAddrs[rng.below(std::size(kAddrs))];
  const std::uint32_t freq = 1 + below(rng, 5);
  switch (rng.below(17)) {
    case 0:
      what = "publish";
      t.publish(key, a, freq);
      m.publish(key, a, freq);
      break;
    case 1:
    case 2: {
      what = "retract";
      const std::uint32_t by = rng.chance(0.5) ? 1 : 100;
      ASSERT_EQ(t.retract(key, a, by), m.retract(key, a, by));
      break;
    }
    case 3: {
      what = "upsert";
      const std::uint32_t to = below(rng, 5);
      t.upsert(key, a, to);
      m.upsert(key, a, to);
      break;
    }
    case 4: {
      what = "upsert_replica";
      const std::uint32_t to = below(rng, 4);
      const std::uint32_t version = below(rng, 12);
      t.upsert_replica(key, a, to, version);
      m.upsert_replica(key, a, to, version);
      break;
    }
    case 5:
      what = "purge";
      ASSERT_EQ(t.purge(key, a), m.purge(key, a));
      break;
    case 6: {
      what = "publish batch";
      const std::vector<KeyedEntry> e = random_entries(rng);
      t.publish(e);
      m.publish(e);
      break;
    }
    case 7: {
      what = "retract batch";
      const std::vector<KeyedEntry> e = random_entries(rng);
      t.retract(e);
      m.retract(e);
      break;
    }
    case 8: {
      what = "upsert batch";
      const std::vector<KeyedEntry> e = random_entries(rng);
      t.upsert(e);
      m.upsert(e);
      break;
    }
    case 9: {
      what = "mirror entries";
      const std::vector<KeyedEntry> e = random_entries(rng);
      t.mirror(e);
      m.mirror(e);
      break;
    }
    case 10: {
      what = "mirror rows";
      const RowSnapshot rows = random_rows(rng);
      ASSERT_EQ(t.mirror(rows), m.mirror(rows));
      break;
    }
    case 11: {
      what = "reconcile";
      const RowSnapshot rows = random_rows(rng);
      if (rng.chance(0.5)) {
        ASSERT_EQ(t.reconcile(rows), m.reconcile(rows));
      } else {
        std::vector<const Row*> held;
        for (const Row& r : rows) held.push_back(&r);
        ASSERT_EQ(t.reconcile(std::span<const Row* const>(held)),
                  m.reconcile(rows));
      }
      break;
    }
    case 12: {
      what = "absorb";
      const RowSnapshot rows = random_rows(rng);
      t.absorb(rows);
      m.absorb(rows);
      break;
    }
    case 13:
      what = "purge_everywhere";
      t.purge_everywhere(a);
      m.purge_everywhere(a);
      break;
    case 14:
      what = "erase_row";
      t.erase_row(key);
      m.erase_row(key);
      break;
    default: {
      // A slice leaves, churn goes on, and the slice may come back.
      what = "extract_range + absorb";
      const chord::Key lo = rng.below(64);
      const chord::Key hi = rng.below(64);
      const RowSnapshot slice = t.extract_range(lo, hi, ring_of);
      ASSERT_EQ(slice, m.extract_range(lo, hi, ring_of));
      if (rng.chance(0.5)) {
        t.absorb(slice);
        m.absorb(slice);
      }
      break;
    }
  }
}

void run_history(std::uint64_t seed, int steps) {
  common::Rng rng(seed);
  LocationTable t;
  FlatLocationTable m;
  std::string what;
  for (int s = 0; s < steps; ++s) {
    step(t, m, rng, what);
    if (::testing::Test::HasFatalFailure()) return;
    const std::string where =
        "seed " + std::to_string(seed) + " step " + std::to_string(s) + " " +
        what;
    expect_same(t, m, where);
    if (::testing::Test::HasFatalFailure()) return;
    if (s % 97 != 96) continue;
    // Fork: the copy goes its own way and must leave the original alone.
    LocationTable copy = t;
    FlatLocationTable copy_model = m;
    for (int c = 0; c < 40; ++c) {
      step(copy, copy_model, rng, what);
      if (::testing::Test::HasFatalFailure()) return;
      expect_same(copy, copy_model, where + " copy step " + std::to_string(c) +
                                        " " + what);
      if (::testing::Test::HasFatalFailure()) return;
    }
    expect_same(t, m, where + " after the copy's steps");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(LocationTableStore, SeededHistoriesMatchTheFlatModel) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_history(seed, 600);
    if (HasFatalFailure()) return;
  }
}

TEST(LocationTableStore, RetractedLastProviderLeavesOnlyTombstones) {
  LocationTable t;
  t.publish(10, 1, 2);
  t.publish(20, 1, 4);
  t.publish(20, 2, 1);
  t.publish(30, 2, 3);
  const std::size_t before = t.byte_size();
  ASSERT_TRUE(t.retract(20, 2, 1));
  ASSERT_TRUE(t.retract(20, 1, 4));  // the key's last provider
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.rows().size(), 2u);
  EXPECT_EQ(t.rows()[0].key, 10u);
  EXPECT_EQ(t.rows()[1].key, 30u);
  EXPECT_TRUE(t.lookup(20).empty());
  EXPECT_EQ(t.find_row(20), nullptr);
  EXPECT_EQ(t.tombstone_version(20, 1), std::optional<std::uint32_t>(1));
  EXPECT_EQ(t.tombstone_version(20, 2), std::optional<std::uint32_t>(1));
  // The row (8 + 2 x 16) left; two tombstones (2 x 20) came in.
  EXPECT_EQ(t.byte_size(), before - 8 - 2 * LocationTable::kProviderBytes +
                               2 * LocationTable::kTombstoneBytes);
  // A stale push is still refused; a re-publish revives past the burial.
  t.upsert_replica(20, 1, 4, 1);
  EXPECT_EQ(t.find_row(20), nullptr);
  t.publish(20, 1, 1);
  ASSERT_NE(t.find_row(20), nullptr);
  EXPECT_EQ(t.lookup(20).front().version, 2u);
  EXPECT_FALSE(t.tombstone_version(20, 1).has_value());
  EXPECT_EQ(t.tombstone_version(20, 2), std::optional<std::uint32_t>(1));
}

TEST(LocationTableStore, SliceLeavesItsTombstonesAtTheOldOwner) {
  LocationTable old_owner;
  for (chord::Key key : {5u, 15u, 25u, 35u}) {
    old_owner.publish(key, 1, 2);
    old_owner.publish(key, 2, 2);
    old_owner.retract(key, 2, 2);  // one burial per key
  }
  const std::size_t tombstones = Ref::tombstones(old_owner).size();
  ASSERT_EQ(tombstones, 4u);
  const RowSnapshot slice =
      old_owner.extract_range(10, 30, [](chord::Key k) { return k; });
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_EQ(old_owner.row_count(), 2u);
  // Every burial stays here, under the moved keys too.
  EXPECT_EQ(Ref::tombstones(old_owner).size(), tombstones);
  EXPECT_TRUE(old_owner.tombstone_version(15, 2).has_value());
  EXPECT_TRUE(old_owner.tombstone_version(25, 2).has_value());
  EXPECT_EQ(old_owner.byte_size(),
            8 + 2 * (8 + LocationTable::kProviderBytes) +
                4 * LocationTable::kTombstoneBytes);
  LocationTable new_owner;
  new_owner.absorb(slice);
  EXPECT_TRUE(Ref::tombstones(new_owner).empty());
  // The slice coming back finds its burials where it left them.
  old_owner.absorb(slice);
  EXPECT_EQ(old_owner.row_count(), 4u);
  EXPECT_EQ(Ref::tombstones(old_owner).size(), tombstones);
}

TEST(LocationTableStore, BuryReviveChurnKeepsTheSlabWithinTwiceTheTombstones) {
  // A few keys, many providers each: lists grow into larger slots and
  // shrink again. Freed slots are recycled, and a slab that recycling
  // leaves sparse is repacked, so it never outgrows twice the live
  // tombstones (plus a fixed slack of 64 entries).
  constexpr chord::Key keys[] = {7, 8, 9};
  common::Rng rng(2027);
  LocationTable t;
  std::size_t peak = 0;
  for (int s = 0; s < 10000; ++s) {
    const chord::Key key = keys[rng.below(std::size(keys))];
    const auto a = static_cast<net::NodeAddress>(1 + rng.below(40));
    if (rng.chance(0.5)) {
      t.publish(key, a, 1);  // revives a burial of (key, a), if any
    } else {
      t.purge(key, a);  // buries (key, a), present or not
    }
    const std::size_t live = Ref::tombstones(t).size();
    peak = std::max(peak, live);
    ASSERT_LE(Ref::slab_entries(t), 2 * live + 64) << "step " << s;
  }
  EXPECT_GT(peak, 40u);  // the lists did grow past several slot sizes
}

}  // namespace
}  // namespace ahsw::overlay
