// A location table on the flat layout the per-key burial lists replaced:
// rows in one vector sorted by key, and every tombstone of the table in one
// flat vector sorted by (key, address). It keeps LocationTable's public
// behaviour write for write (the row merge is the one the flat store ran),
// so it is the model for tests/overlay/location_table_store_test.cpp: on
// the same history, both must hold the same rows, tombstones and byte size.
// Test-only; nothing under src/ includes this.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "overlay/location_table.hpp"
#include "support/replica_reference.hpp"

namespace ahsw::overlay {

class FlatLocationTable {
 public:
  using Burial = LocationTableReference::Burial;

  void publish(chord::Key key, net::NodeAddress address,
               std::uint32_t frequency) {
    write_one(key, {address, frequency, 0}, MergeRule::kAbsorb);
  }
  void publish(std::span<const KeyedEntry> entries) {
    merge_entries(entries, MergeRule::kAbsorb);
  }
  bool retract(chord::Key key, net::NodeAddress address,
               std::uint32_t frequency) {
    return write_one(key, {address, frequency, 0}, MergeRule::kRetract);
  }
  void retract(std::span<const KeyedEntry> entries) {
    merge_entries(entries, MergeRule::kRetract);
  }
  void upsert(chord::Key key, net::NodeAddress address,
              std::uint32_t frequency) {
    write_one(key, {address, frequency, 0}, MergeRule::kSet);
  }
  void upsert(std::span<const KeyedEntry> entries) {
    merge_entries(entries, MergeRule::kSet);
  }
  void upsert_replica(chord::Key key, net::NodeAddress address,
                      std::uint32_t frequency, std::uint32_t version) {
    write_one(key, {address, frequency, version}, MergeRule::kMirror);
  }
  void mirror(std::span<const KeyedEntry> entries) {
    merge_entries(entries, MergeRule::kMirror);
  }
  std::size_t mirror(std::span<const Row> rows) {
    return merge_rows(rows, MergeRule::kMirror);
  }
  std::size_t reconcile(std::span<const Row> rows) {
    return merge_rows(rows, MergeRule::kReconcile);
  }
  void absorb(std::span<const Row> rows) {
    merge_rows(rows, MergeRule::kAbsorb);
  }
  bool purge(chord::Key key, net::NodeAddress address) {
    return write_one(key, {address, 0, 0}, MergeRule::kSet);
  }
  void held(std::span<KeyedEntry> entries) const;
  void purge_everywhere(net::NodeAddress address);
  RowSnapshot extract_range(
      chord::Key lo, chord::Key hi,
      const std::function<chord::Key(chord::Key)>& to_ring);
  void erase_row(chord::Key key);

  [[nodiscard]] std::vector<Provider> lookup(chord::Key key) const;
  [[nodiscard]] const Row* find_row(chord::Key key) const;
  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t entry_count() const noexcept;
  [[nodiscard]] std::size_t byte_size() const noexcept;
  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }
  [[nodiscard]] std::optional<std::uint32_t> tombstone_version(
      chord::Key key, net::NodeAddress address) const;
  /// Every tombstone, ascending by (key, address).
  [[nodiscard]] const std::vector<Burial>& tombstones() const noexcept {
    return tombstones_;
  }

 private:
  enum class MergeRule : std::uint8_t {
    kMirror,
    kReconcile,
    kAbsorb,
    kSet,
    kRetract,
  };
  bool merge_row(chord::Key key, std::span<const Provider> incoming,
                 MergeRule rule);
  bool write_one(chord::Key key, const Provider& entry, MergeRule rule) {
    return merge_row(key, {&entry, 1}, rule);
  }
  std::size_t merge_rows(std::span<const Row> rows, MergeRule rule);
  void merge_entries(std::span<const KeyedEntry> entries, MergeRule rule);
  /// Position of (key, address) in tombstones_, or of the first above it.
  [[nodiscard]] std::size_t tomb_at(chord::Key key,
                                    net::NodeAddress address) const;
  [[nodiscard]] std::size_t row_at(chord::Key key) const;

  std::vector<Row> rows_;          // sorted by key
  std::vector<Burial> tombstones_;  // sorted by (key, address)
};

}  // namespace ahsw::overlay
