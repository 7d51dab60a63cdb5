// Per-entry reference implementations of the location-table merges.
//
// Before the row merge (`LocationTable::merge_row`), a replica push, a
// recovery reconcile, a slice absorb, an owner publish, upsert, retract and
// a purge each walked one entry at a time: a tombstone search, a row search
// and a full row sort per entry. These are those bodies, unchanged but for
// running on a table passed in. They are slow and obviously per-entry,
// which makes them the oracle for the row merge
// (tests/overlay/replica_merge_test.cpp): on the same history both must
// leave identical rows, tombstones and byte sizes.
// Test-only; nothing under src/ includes this.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "overlay/location_table.hpp"

namespace ahsw::overlay {

/// The entry of `address` in the row of `key`, or nullptr (no copy).
inline const Provider* find_entry(const LocationTable& t, chord::Key key,
                                  net::NodeAddress address) {
  const Row* row = t.find_row(key);
  if (row == nullptr) return nullptr;
  auto p = std::ranges::find(row->providers, address, &Provider::address);
  return p == row->providers.end() ? nullptr : &*p;
}

/// Friend of LocationTable: reads and writes its rows and tombstones.
struct LocationTableReference {
  static void publish(LocationTable& t, chord::Key key,
                      net::NodeAddress address, std::uint32_t frequency);
  static void upsert(LocationTable& t, chord::Key key,
                     net::NodeAddress address, std::uint32_t frequency);
  static bool retract(LocationTable& t, chord::Key key,
                      net::NodeAddress address, std::uint32_t frequency);
  static bool purge(LocationTable& t, chord::Key key,
                    net::NodeAddress address);
  static void upsert_replica(LocationTable& t, chord::Key key,
                             net::NodeAddress address, std::uint32_t frequency,
                             std::uint32_t version);
  static void reconcile(LocationTable& t, const RowSnapshot& rows);
  static void absorb(LocationTable& t, const RowSnapshot& rows);
  /// upsert_replica for every entry, row by row: what repair's re-seed did.
  static void mirror(LocationTable& t, const RowSnapshot& rows);

  /// Every tombstone of `t`, ascending by (key, address).
  struct Burial {
    chord::Key key = 0;
    net::NodeAddress address = net::kNoAddress;
    std::uint32_t version = 0;

    friend bool operator==(const Burial&, const Burial&) = default;
  };
  static std::vector<Burial> tombstones(const LocationTable& t);
  /// Entries the tombstone slab holds, live or in free slots.
  static std::size_t slab_entries(const LocationTable& t);

 private:
  // The row and tombstone searches as the per-entry merges ran them, on the
  // table's per-key burial lists.
  struct KeyBurials {
    std::size_t row;    // in rows_, or kNpos for a key without a row
    std::size_t ghost;  // the key's place in ghosts_ when it has no row
    LocationTable::BurialList list;
  };
  static KeyBurials key_burials(const LocationTable& t, chord::Key key);
  /// Store an edited list back as the key's row's or ghost's.
  static void store(LocationTable& t, chord::Key key, KeyBurials& k);
  static std::size_t row_index_or_insert(LocationTable& t, chord::Key key);
  static void bury(LocationTable& t, chord::Key key, net::NodeAddress address,
                   std::uint32_t version);
  static std::uint32_t revive(LocationTable& t, chord::Key key,
                              net::NodeAddress address);
  static std::optional<std::uint32_t> tombstone_version(
      const LocationTable& t, chord::Key key, net::NodeAddress address);
};

}  // namespace ahsw::overlay
