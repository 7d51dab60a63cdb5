// The location table of an index node (Sect. III-B, Table I).
//
// Each row maps a key K_i (the hash of one or two triple attributes) to the
// list of storage nodes sharing triples with that attribute value, together
// with a frequency: how many of that node's triples share the hash. The
// frequency is the statistic the paper's optimizations consume (chain
// ordering in Sect. IV-C, join ordering / site selection in Sect. IV-D).
//
// Rows sit in one vector sorted by key: rings of 1k nodes hold thousands of
// rows per index node, and the batch driver hits them on every lookup, so
// binary search over contiguous rows beats pointer-chasing tree nodes, and
// bulk walks (repair, purge_everywhere, byte accounting) are linear scans.
//
// Tombstones (a deleted (key, provider) pair with the version it died at)
// outnumber live entries several times over under churn, and nearly every
// index write buries or revives one. They are kept per key, beside the row:
// a row owns a small handle into one slab of (address, version) entries,
// and a key with tombstones but no live row is a "ghost" in a short sorted
// vector of (key, handle). Each key's list sits in a power-of-two slot of
// the slab, recycled through per-size free lists, so a bury or a revival
// shifts only that key's own slot, a merge reads a present row's burials
// without any search, and no row allocates on the heap for them.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "chord/ring.hpp"
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
/// travels with the entry: row_bytes() and response_bytes() size each
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
  // forward once: one row search per key from a galloping cursor (and one
  // ghost search for a key without a row), at most one sort per row.

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
  /// upsert_replica() for every entry of `rows`, a row at a time. Returns
  /// how many rows it changed.
  std::size_t mirror(std::span<const Row> rows) {
    return merge_rows(rows, MergeRule::kMirror);
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
  /// snapshot max-merging the old, higher frequency back in. Returns how
  /// many rows it changed.
  std::size_t reconcile(std::span<const Row> rows) {
    return merge_rows(rows, MergeRule::kReconcile);
  }
  /// reconcile() of rows held elsewhere (repair merges a replica holder's
  /// rows in place, grouped by owner).
  std::size_t reconcile(std::span<const Row* const> rows);

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

  /// The full row for a key, or nullptr when absent (no copy).
  [[nodiscard]] const Row* find_row(chord::Key key) const;

  /// Remove and return all rows whose ring position `to_ring(key)` lies in
  /// (lo, hi] — the slice handed to a joining index node (Sect. III-C).
  /// Sorted by key. Rows are keyed by the full hash Kj (so distinct keys
  /// never merge), while ownership lives in the m-bit ring space; `to_ring`
  /// bridges the two. The rows' tombstones stay here (see Burial).
  [[nodiscard]] RowSnapshot extract_range(
      chord::Key lo, chord::Key hi,
      const std::function<chord::Key(chord::Key)>& to_ring);

  /// Merge rows (ascending by key; from a slice transfer). Versions are
  /// preserved: an entry new to this table keeps the incoming version (so a
  /// transferred row stays ahead of its replica mirrors), a merged entry
  /// adds frequencies and advances past both versions.
  void absorb(std::span<const Row> rows) {
    merge_rows(rows, MergeRule::kAbsorb);
  }

  /// Remove one row entirely; its tombstones stay.
  void erase_row(chord::Key key);

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t entry_count() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }

  /// Serialized provider entry: address (8) + frequency (4) + version (4).
  static constexpr std::size_t kProviderBytes = 16;
  /// Serialized tombstone: key (8) + address (8) + buried version (4).
  static constexpr std::size_t kTombstoneBytes = 20;

  /// Serialized size of the whole table: framing + row_bytes per row +
  /// tombstones. No message charges it; the golden digests pin it.
  [[nodiscard]] std::size_t byte_size() const noexcept;
  /// Serialized size of one row on the wire (a slice transfer or a repair
  /// push): its key + full provider entries.
  [[nodiscard]] static constexpr std::size_t row_bytes(std::size_t providers) {
    return 8 + kProviderBytes * providers;
  }
  /// Serialized size of one provider list response. Entries carry their
  /// version (the initiator-side cache needs it to refuse stale rows), so
  /// the response charges kProviderBytes per provider as well.
  [[nodiscard]] static std::size_t response_bytes(std::size_t providers) {
    return 16 + kProviderBytes * providers;
  }

  /// All rows, ascending by key (the map-era iteration order, pinned by
  /// tests — audits and repair walk this directly).
  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }

  /// The version buried with (key, address), if it was deleted here and not
  /// re-published since — reconcile() refuses to resurrect such entries
  /// with stale versions.
  [[nodiscard]] std::optional<std::uint32_t> tombstone_version(
      chord::Key key, net::NodeAddress address) const;

 private:
  /// A deleted provider of one key awaiting re-publication, with the version
  /// it died at; the key is the list's. Tombstones stay local: they do not
  /// travel with extract_range slices, so a new owner has a short
  /// resurrection window until the next purge — the documented
  /// at-least-once behavior of recovery reconciliation.
  struct Burial {
    net::NodeAddress address = net::kNoAddress;
    std::uint32_t version = 0;
  };
  /// One key's burials: slab_[off, off + len), ascending by address, in a
  /// slot of `cap` entries (a power of two; 0 when the key has none).
  struct BurialList {
    std::uint32_t off = 0;
    std::uint16_t len = 0;
    std::uint16_t cap = 0;
  };
  /// A key with burials and no row.
  struct Ghost {
    chord::Key key = 0;
    BurialList list;
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
  /// Where merge_row starts its searches of rows_ and ghosts_: at or
  /// before the key's place in each. It leaves them at the key's place, so
  /// rows merged in ascending key order are searched forward only.
  struct Cursor {
    std::size_t row = 0;
    std::size_t ghost = 0;
  };
  /// Merges `incoming` into the row of `key`; true if an entry was added,
  /// changed or dropped.
  bool merge_row(Cursor& at, chord::Key key,
                 std::span<const Provider> incoming, MergeRule rule);
  bool write_one(chord::Key key, const Provider& entry, MergeRule rule) {
    Cursor at;
    return merge_row(at, key, {&entry, 1}, rule);
  }
  /// Merges each row; returns how many of them changed.
  std::size_t merge_rows(std::span<const Row> rows, MergeRule rule);
  void merge_entries(std::span<const KeyedEntry> entries, MergeRule rule);

  /// Index of `key` in rows_, or npos. Binary search over the sorted rows.
  [[nodiscard]] std::size_t row_index(chord::Key key) const noexcept;
  /// Erase rows_[i]; its burials become a ghost. `ghost` is at or before
  /// the key's place in ghosts_ and is left there.
  void erase_row_at(std::size_t i, std::size_t& ghost);
  void erase_row_at(std::size_t i) {
    std::size_t ghost = 0;
    erase_row_at(i, ghost);
  }
  /// Make `list` the burials of `key`, which has no row: its ghost, or no
  /// ghost when the list is empty. `ghost` is as for erase_row_at.
  void set_ghost(std::size_t& ghost, chord::Key key, BurialList list);
  /// Merge ghosts (ascending by key, none of them in ghosts_) into ghosts_.
  void merge_ghosts(std::span<const Ghost> more);

  [[nodiscard]] std::span<const Burial> burials(BurialList list) const {
    return {slab_.data() + list.off, list.len};
  }
  /// The version buried under `address` in `list`, if any.
  [[nodiscard]] std::optional<std::uint32_t> buried_version(
      BurialList list, net::NodeAddress address) const;
  /// Position of `address` in `list`, or of the first burial above it.
  [[nodiscard]] std::size_t burial_index(BurialList list,
                                         net::NodeAddress address) const;
  /// Bury `version` under `address` in `list`; a burial keeps the newest.
  void bury(BurialList& list, net::NodeAddress address, std::uint32_t version);
  /// Erase position `i` of `list`; an emptied list gives its slot back.
  void erase_burial(BurialList& list, std::size_t i);
  /// A free slot of `cap` entries: a recycled one, or new at the slab's end.
  [[nodiscard]] std::uint32_t acquire_slot(std::uint32_t cap);
  void release_slot(BurialList list);
  /// Repack every list into a fresh slab, each in the smallest slot that
  /// holds it, once recycled slots have left the slab more than twice the
  /// size of what it holds (plus kSlabSlack).
  void compact_if_sparse();

  /// Restore the (frequency asc, address asc) row invariant after a
  /// mutation — the deterministic order lookup() and the chain strategies
  /// consume.
  static void sort_row(std::vector<Provider>& row);

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kSlabSlack = 64;
  /// Slot sizes 1, 2, 4, ..., 2^15 (BurialList::cap is 16 bits wide).
  static constexpr std::size_t kSlotClasses = 16;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::array<std::uint32_t, kSlotClasses> no_free_slots() {
    std::array<std::uint32_t, kSlotClasses> heads{};
    heads.fill(kNoSlot);
    return heads;
  }

  std::vector<Row> rows_;                // sorted by key
  std::vector<BurialList> row_burials_;  // parallel to rows_
  std::vector<Ghost> ghosts_;            // sorted by key; no empty list
  std::vector<Burial> slab_;             // every key's burials
  /// The first free slot of each size class (log2 of cap), or kNoSlot. A
  /// free slot's first entry holds the offset of the next in its address.
  std::array<std::uint32_t, kSlotClasses> free_slots_ = no_free_slots();
  std::size_t tombstones_ = 0;           // burials across all lists
  // The per-entry merges merge_row replaced: its oracle in tests/support.
  friend struct LocationTableReference;
};

}  // namespace ahsw::overlay
