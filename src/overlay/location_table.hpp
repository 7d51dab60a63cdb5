// The location table of an index node (Sect. III-B, Table I).
//
// Each row maps a key K_i (the hash of one or two triple attributes) to the
// list of storage nodes sharing triples with that attribute value, together
// with a frequency: how many of that node's triples share the hash. The
// frequency is the statistic the paper's optimizations consume (chain
// ordering in Sect. IV-C, join ordering / site selection in Sect. IV-D).
//
// Storage is a sorted flat vector of rows (and a sorted flat tombstone
// vector) rather than the former std::map-of-maps: 1k-node rings hold
// thousands of rows per index node, and the batch driver hits them on every
// lookup, so binary search over contiguous rows beats pointer-chasing tree
// nodes, and bulk walks (repair, purge_everywhere, byte accounting) become
// linear scans. Iteration order stays ascending-by-key — the same
// deterministic order the map gave — and erased rows park their provider
// capacity in a pool so repair/churn loops stop thrashing the allocator.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "chord/ring.hpp"
#include "common/pool.hpp"
#include "net/network.hpp"

namespace ahsw::overlay {

/// One storage node entry of a location-table row.
///
/// `version` is a per-(key, provider) monotonic counter maintained by the
/// row *owner*: every owner-side mutation (publish, retract, upsert) bumps
/// it, and a full removal buries it in the tombstone. Replicas mirror the
/// owner's version verbatim, so recovery reconciliation can order snapshots
/// causally instead of max-merging frequencies — a stale replica snapshot
/// (older version) can never overwrite a newer, lower frequency. The version
/// travels with the entry: byte_size() and response_bytes() charge each
/// serialized entry LocationTable::kProviderBytes (address, frequency and
/// version: 16 bytes).
struct Provider {
  net::NodeAddress address = net::kNoAddress;
  std::uint32_t frequency = 0;  // matching triples at that node
  std::uint32_t version = 0;    // owner-bumped per-entry mutation counter

  friend bool operator==(const Provider&, const Provider&) = default;
};

/// One location-table row: a key and its provider list (sorted by
/// ascending frequency, ties by address).
struct Row {
  chord::Key key = 0;
  std::vector<Provider> providers;

  friend bool operator==(const Row&, const Row&) = default;
};

/// A detached set of rows (slice transfers, replica snapshots), sorted by
/// ascending key.
using RowSnapshot = std::vector<Row>;

/// One entry of one row: the unit of a batched write (a storage node's
/// publish, retract or snapshot of a key, or an owner's entry as its
/// replicas mirror it).
struct KeyedEntry {
  chord::Key key = 0;
  Provider provider;

  friend bool operator==(const KeyedEntry&, const KeyedEntry&) = default;
};

class LocationTable {
 public:
  // Owner-side writes, one entry each. Every batched write takes its
  // entries (or rows) ascending by key, one per key, and walks the table
  // forward once: one row and one tombstone search per key from a galloping
  // cursor, at most one sort per row.

  /// Add `frequency` matching triples for (key, address); merges with an
  /// existing entry for the same provider. Owner-side: bumps the entry
  /// version past any buried tombstone version.
  void publish(chord::Key key, net::NodeAddress address,
               std::uint32_t frequency) {
    write_one(key, {address, frequency, 0}, MergeRule::kAbsorb);
  }
  /// publish() for every (key, address, frequency) of `entries`.
  void publish(std::span<const KeyedEntry> entries) {
    merge_entries(entries, MergeRule::kAbsorb);
  }

  /// Decrease the frequency for (key, address) by `frequency`, stepping the
  /// version; removes the entry at or below zero (burying its version).
  /// Returns true if something changed.
  bool retract(chord::Key key, net::NodeAddress address,
               std::uint32_t frequency) {
    return write_one(key, {address, frequency, 0}, MergeRule::kRetract);
  }
  /// retract() for every (key, address, frequency) of `entries`.
  void retract(std::span<const KeyedEntry> entries) {
    merge_entries(entries, MergeRule::kRetract);
  }

  /// Set the frequency for (key, address) to exactly `frequency`
  /// (snapshot semantics: used by storage-node rejoin, where repeated
  /// writes must be idempotent). frequency == 0 removes the entry, as
  /// purge() does. Owner-side: bumps the version like every owner mutation.
  void upsert(chord::Key key, net::NodeAddress address,
              std::uint32_t frequency) {
    write_one(key, {address, frequency, 0}, MergeRule::kSet);
  }
  /// upsert() for every (key, address, frequency) of `entries`.
  void upsert(std::span<const KeyedEntry> entries) {
    merge_entries(entries, MergeRule::kSet);
  }

  /// Mirror the owner's (frequency, version) for (key, address) verbatim —
  /// the replica-maintenance write path. Takes effect only when `version`
  /// is at least as new as what this table holds (entry or tombstone), so
  /// reordered or repeated pushes are harmless. frequency == 0 removes the
  /// entry and buries `version`.
  void upsert_replica(chord::Key key, net::NodeAddress address,
                      std::uint32_t frequency, std::uint32_t version) {
    write_one(key, {address, frequency, version}, MergeRule::kMirror);
  }
  /// upsert_replica() for every entry of `entries`.
  void mirror(std::span<const KeyedEntry> entries) {
    merge_entries(entries, MergeRule::kMirror);
  }
  /// upsert_replica() for every entry of `rows`, a row at a time.
  void mirror(std::span<const Row> rows) {
    merge_rows(rows, MergeRule::kMirror);
  }

  /// Merge rows (ascending by key), taking the *newer version* per provider
  /// (recovery merge: several replica holders may push the same row without
  /// inflating it; equal versions merge by max frequency, so the merge stays
  /// idempotent). A provider this table has deleted from a row (retract to
  /// zero, purge, upsert(0)) is tombstoned together with its last version;
  /// an incoming entry resurrects it only when its version is strictly newer
  /// than the burial — i.e. the provider demonstrably re-published since.
  /// This closes the old at-least-once window where a *partial* retract
  /// (which only lowers the frequency) could be undone by a stale replica
  /// snapshot max-merging the old, higher frequency back in.
  void reconcile(std::span<const Row> rows) {
    merge_rows(rows, MergeRule::kReconcile);
  }
  /// reconcile() of rows held elsewhere (repair merges a replica holder's
  /// rows in place, grouped by owner).
  void reconcile(std::span<const Row* const> rows);

  /// For each entry (ascending by key), replace its provider with this
  /// table's entry for that (key, address), or, when there is none, with
  /// frequency 0 and the version buried under it (0 if none): an owner's
  /// entries as its replicas mirror them. One forward walk.
  void held(std::span<KeyedEntry> entries) const;

  /// Drop a provider from one row entirely (lazy repair after a storage
  /// node failure, Sect. III-D), burying its version even when it is
  /// already gone. Returns true if it was present.
  bool purge(chord::Key key, net::NodeAddress address) {
    return write_one(key, {address, 0, 0}, MergeRule::kSet);
  }

  /// Drop a provider from every row (bulk repair).
  void purge_everywhere(net::NodeAddress address);

  /// Providers for a key; empty if unknown. Sorted by ascending frequency
  /// (the order the further-optimized chain strategy wants), ties by
  /// address for determinism. Rows are kept sorted on mutation, so this is
  /// a plain copy — hot-key lookups no longer pay O(n log n) per call.
  [[nodiscard]] std::vector<Provider> lookup(chord::Key key) const;

  /// One row entry, or nullptr when absent (no copy; used by replica
  /// maintenance to read the owner's authoritative frequency + version).
  [[nodiscard]] const Provider* find(chord::Key key,
                                     net::NodeAddress address) const;

  /// The full row for a key, or nullptr when absent (no copy).
  [[nodiscard]] const Row* find_row(chord::Key key) const;

  /// Remove and return all rows with key in (lo, hi] on the ring — the
  /// slice handed to a joining index node (Sect. III-C). Sorted by key.
  [[nodiscard]] RowSnapshot extract_range(chord::Key lo, chord::Key hi);

  /// Same, but ring position is `to_ring(key)` instead of the key itself.
  /// Rows are keyed by the full hash Kj (so distinct keys never merge), while
  /// ownership lives in the m-bit ring space; this mapping bridges the two.
  [[nodiscard]] RowSnapshot extract_range_mapped(
      chord::Key lo, chord::Key hi,
      const std::function<chord::Key(chord::Key)>& to_ring);

  /// Merge rows (ascending by key; from a slice transfer). Versions are
  /// preserved: an entry new to this table keeps the incoming version (so a
  /// transferred row stays ahead of its replica mirrors), a merged entry
  /// adds frequencies and advances past both versions.
  void absorb(std::span<const Row> rows) {
    merge_rows(rows, MergeRule::kAbsorb);
  }

  /// Remove one row entirely.
  void erase_row(chord::Key key);

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t entry_count() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }

  /// Serialized provider entry: address (8) + frequency (4) + version (4).
  static constexpr std::size_t kProviderBytes = 16;
  /// Serialized tombstone: key (8) + address (8) + buried version (4).
  static constexpr std::size_t kTombstoneBytes = 20;

  /// Serialized size (for charging slice transfers / replication traffic):
  /// table framing + per-row key + full provider entries + tombstones.
  [[nodiscard]] std::size_t byte_size() const noexcept;
  /// Serialized size of one provider list response. Entries carry their
  /// version (the initiator-side cache needs it to refuse stale rows), so
  /// the response charges kProviderBytes per provider as well.
  [[nodiscard]] static std::size_t response_bytes(std::size_t providers) {
    return 16 + kProviderBytes * providers;
  }

  /// All rows, ascending by key (the map-era iteration order, pinned by
  /// tests — audits and repair walk this directly).
  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }

  /// True if (key, address) was deleted here and not re-published since —
  /// reconcile() refuses to resurrect such entries with stale versions.
  [[nodiscard]] bool tombstoned(chord::Key key, net::NodeAddress address) const;

  /// The version buried with a tombstoned (key, address), if any.
  [[nodiscard]] std::optional<std::uint32_t> tombstone_version(
      chord::Key key, net::NodeAddress address) const;

 private:
  /// Deleted (key, provider) pair awaiting re-publication, with the version
  /// it died at. Tombstones stay local: they do not travel with
  /// extract_range slices, so a new owner has a short resurrection window
  /// until the next purge — the documented at-least-once behavior of
  /// recovery reconciliation.
  struct Tombstone {
    chord::Key key = 0;
    net::NodeAddress address = net::kNoAddress;
    std::uint32_t version = 0;
  };

  /// mirror(): a version at least as new wins, frequency 0 buries.
  /// reconcile(): a strictly newer version wins, equal versions take the
  /// max frequency. absorb() and publish(): frequencies add, the version
  /// steps past both. upsert(): the frequency is set, the version steps;
  /// frequency 0 purges. retract(): the frequency drops and the version
  /// steps; at or below zero the entry's version is buried and the entry
  /// dropped.
  enum class MergeRule : std::uint8_t {
    kMirror,
    kReconcile,
    kAbsorb,
    kSet,
    kRetract,
  };
  /// Where merge_row starts its searches of rows_ and tombstones_: at or
  /// before the key's place in each. It leaves them at the key's row and
  /// past its tombstones, so rows merged in ascending key order are searched
  /// forward only.
  struct Cursor {
    std::size_t row = 0;
    std::size_t tomb = 0;
  };
  /// Merges `incoming` into the row of `key`; true if an entry was added,
  /// changed or dropped.
  bool merge_row(Cursor& at, chord::Key key,
                 std::span<const Provider> incoming, MergeRule rule);
  bool write_one(chord::Key key, const Provider& entry, MergeRule rule) {
    Cursor at;
    return merge_row(at, key, {&entry, 1}, rule);
  }
  void merge_rows(std::span<const Row> rows, MergeRule rule);
  void merge_entries(std::span<const KeyedEntry> entries, MergeRule rule);
  /// First tombstone at or after (key, address).
  [[nodiscard]] std::size_t tomb_index(chord::Key key,
                                       net::NodeAddress address) const;

  /// Index of `key` in rows_, or npos. Binary search over the sorted rows.
  [[nodiscard]] std::size_t row_index(chord::Key key) const noexcept;
  /// Erase rows_[i], parking its provider capacity in the pool.
  void erase_row_at(std::size_t i);

  void bury(chord::Key key, net::NodeAddress address, std::uint32_t version);

  /// Restore the (frequency asc, address asc) row invariant after a
  /// mutation — the deterministic order lookup() and the chain strategies
  /// consume.
  static void sort_row(std::vector<Provider>& row);

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  std::vector<Row> rows_;             // sorted by key
  std::vector<Tombstone> tombstones_;  // sorted by (key, address)
  common::VectorPool<Provider> spare_;  // capacity recycled across row churn
  // The per-entry merges merge_row replaced: its oracle in tests/support.
  friend struct LocationTableReference;
};

}  // namespace ahsw::overlay
