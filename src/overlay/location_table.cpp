#include "overlay/location_table.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace ahsw::overlay {
namespace {

/// First index at or after `from` in `v` (ascending by key) whose key is
/// not below `key`. Gallops from `from`, so a walk in ascending key order
/// pays for the gap it skips rather than for the whole table.
template <class T>
std::size_t seek(const std::vector<T>& v, std::size_t from, chord::Key key) {
  // From the start a plain binary search: single lookups pay no gallop.
  std::size_t step = from == 0 ? v.size() + 1 : 1;
  for (; from + step <= v.size() && v[from + step - 1].key < key; step *= 2) {
    from += step;
  }
  return static_cast<std::size_t>(
      std::lower_bound(v.begin() + static_cast<std::ptrdiff_t>(from),
                       v.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(v.size(), from + step)),
                       key, [](const T& x, chord::Key k) { return x.key < k; }) -
      v.begin());
}

/// Free-list index of a power-of-two slot size.
std::size_t slot_class(std::uint32_t cap) {
  return static_cast<std::size_t>(std::countr_zero(cap));
}

}  // namespace

void LocationTable::sort_row(std::vector<Provider>& row) {
  std::sort(row.begin(), row.end(), [](const Provider& a, const Provider& b) {
    if (a.frequency != b.frequency) return a.frequency < b.frequency;
    return a.address < b.address;
  });
}

std::size_t LocationTable::row_index(chord::Key key) const noexcept {
  const std::size_t i = seek(rows_, 0, key);
  return i < rows_.size() && rows_[i].key == key ? i : kNpos;
}

void LocationTable::erase_row_at(std::size_t i, std::size_t& ghost) {
  const chord::Key key = rows_[i].key;
  const BurialList list = row_burials_[i];
  rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(i));
  row_burials_.erase(row_burials_.begin() + static_cast<std::ptrdiff_t>(i));
  set_ghost(ghost, key, list);
}

void LocationTable::erase_row(chord::Key key) {
  std::size_t i = row_index(key);
  if (i != kNpos) erase_row_at(i);
}

void LocationTable::set_ghost(std::size_t& ghost, chord::Key key,
                              BurialList list) {
  ghost = seek(ghosts_, ghost, key);
  const auto at = ghosts_.begin() + static_cast<std::ptrdiff_t>(ghost);
  const bool found = ghost < ghosts_.size() && at->key == key;
  if (list.len == 0) {
    if (found) ghosts_.erase(at);
  } else if (found) {
    at->list = list;
  } else {
    ghosts_.insert(at, Ghost{key, list});
  }
}

std::size_t LocationTable::burial_index(BurialList list,
                                        net::NodeAddress address) const {
  const std::span<const Burial> b = burials(list);
  return static_cast<std::size_t>(
      std::lower_bound(b.begin(), b.end(), address,
                       [](const Burial& x, net::NodeAddress a) {
                         return x.address < a;
                       }) -
      b.begin());
}

std::uint32_t LocationTable::acquire_slot(std::uint32_t cap) {
  std::uint32_t& head = free_slots_[slot_class(cap)];
  if (head != kNoSlot) {
    const std::uint32_t off = head;
    head = slab_[off].address;
    return off;
  }
  assert(slab_.size() + cap <= std::numeric_limits<std::uint32_t>::max());
  const auto off = static_cast<std::uint32_t>(slab_.size());
  slab_.resize(slab_.size() + cap);
  return off;
}

void LocationTable::release_slot(BurialList list) {
  if (list.cap == 0) return;
  std::uint32_t& head = free_slots_[slot_class(list.cap)];
  slab_[list.off].address = head;
  head = list.off;
}

void LocationTable::bury(BurialList& list, net::NodeAddress address,
                         std::uint32_t version) {
  const std::size_t i = burial_index(list, address);
  if (i < list.len && slab_[list.off + i].address == address) {
    Burial& b = slab_[list.off + i];
    b.version = std::max(b.version, version);
    return;
  }
  if (list.len == list.cap) {  // move to a slot twice the size
    const std::uint32_t cap = list.cap == 0 ? 1 : 2u * list.cap;
    if (cap >= (1u << kSlotClasses)) {
      throw std::length_error("LocationTable: too many tombstones for a key");
    }
    const std::uint32_t off = acquire_slot(cap);
    std::copy_n(slab_.begin() + list.off, list.len, slab_.begin() + off);
    release_slot(list);
    list.off = off;
    list.cap = static_cast<std::uint16_t>(cap);
  }
  Burial* p = slab_.data() + list.off;
  std::move_backward(p + i, p + list.len, p + list.len + 1);
  p[i] = Burial{address, version};
  ++list.len;
  ++tombstones_;
}

void LocationTable::erase_burial(BurialList& list, std::size_t i) {
  Burial* p = slab_.data() + list.off;
  std::move(p + i + 1, p + list.len, p + i);
  --list.len;
  --tombstones_;
  if (list.len == 0) {
    release_slot(list);
    list = BurialList{};
  }
}

void LocationTable::compact_if_sparse() {
  if (slab_.size() <= 2 * tombstones_ + kSlabSlack) return;
  std::vector<Burial> slab;
  slab.reserve(2 * tombstones_);
  auto repack = [&](BurialList& list) {
    if (list.len == 0) return;
    const auto off = static_cast<std::uint32_t>(slab.size());
    const std::span<const Burial> b = burials(list);
    slab.insert(slab.end(), b.begin(), b.end());
    list.off = off;
    list.cap = static_cast<std::uint16_t>(std::bit_ceil(list.len));
    slab.resize(off + list.cap);
  };
  for (BurialList& list : row_burials_) repack(list);
  for (Ghost& g : ghosts_) repack(g.list);
  slab_ = std::move(slab);
  free_slots_ = no_free_slots();
}

std::optional<std::uint32_t> LocationTable::buried_version(
    BurialList list, net::NodeAddress address) const {
  const std::size_t i = burial_index(list, address);
  if (i == list.len || slab_[list.off + i].address != address) {
    return std::nullopt;
  }
  return slab_[list.off + i].version;
}

std::optional<std::uint32_t> LocationTable::tombstone_version(
    chord::Key key, net::NodeAddress address) const {
  if (std::size_t i = row_index(key); i != kNpos) {
    return buried_version(row_burials_[i], address);
  }
  const std::size_t g = seek(ghosts_, 0, key);
  if (g == ghosts_.size() || ghosts_[g].key != key) return std::nullopt;
  return buried_version(ghosts_[g].list, address);
}

std::size_t LocationTable::merge_rows(std::span<const Row> rows,
                                      MergeRule rule) {
  Cursor at;
  std::size_t changed = 0;
  for (const Row& r : rows) {
    if (merge_row(at, r.key, r.providers, rule)) ++changed;
  }
  return changed;
}

std::size_t LocationTable::reconcile(std::span<const Row* const> rows) {
  Cursor at;
  std::size_t changed = 0;
  for (const Row* r : rows) {
    if (merge_row(at, r->key, r->providers, MergeRule::kReconcile)) ++changed;
  }
  return changed;
}

void LocationTable::merge_entries(std::span<const KeyedEntry> entries,
                                  MergeRule rule) {
  Cursor at;
  for (const KeyedEntry& e : entries) {
    merge_row(at, e.key, {&e.provider, 1}, rule);
  }
}

bool LocationTable::merge_row(Cursor& at, chord::Key key,
                              std::span<const Provider> incoming,
                              MergeRule rule) {
  assert(at.row == 0 || rows_[at.row - 1].key < key);
  const std::size_t cursor = at.row = seek(rows_, at.row, key);
  // The row comes into existence only once an entry is accepted.
  bool present = cursor < rows_.size() && rows_[cursor].key == key;
  // Pushes carry versions from elsewhere and are gated by them; owner-side
  // writes always take effect and step the version.
  const bool pushed =
      rule == MergeRule::kMirror || rule == MergeRule::kReconcile;
  // The key's burials: its row's, or its ghost's when it has no row. The
  // list is edited here and stored back once the row's fate is known.
  bool ghosted = false;
  if (!present) {
    at.ghost = seek(ghosts_, at.ghost, key);
    ghosted = at.ghost < ghosts_.size() && ghosts_[at.ghost].key == key;
  }
  BurialList list = present   ? row_burials_[cursor]
                    : ghosted ? ghosts_[at.ghost].list
                              : BurialList{};
  // A pushed row equal to the stored one changes nothing, unless one of its
  // providers is also buried here: the burial either rejects the push or is
  // revived by it.
  if (pushed && present &&
      std::ranges::equal(incoming, rows_[cursor].providers) &&
      std::ranges::none_of(burials(list), [&](const Burial& b) {
        return std::ranges::any_of(incoming, [&](const Provider& p) {
          return p.address == b.address;
        });
      })) {
    return false;
  }
  bool touched = false;  // an entry was added, changed or dropped
  // An entry was added or its frequency changed: only then can the
  // (frequency, address) order break. A version-only update (every snapshot
  // upsert of an unchanged frequency, most mirrors) or a drop keeps it.
  bool resort = false;
  for (const Provider& in : incoming) {
    auto entry = present ? std::find_if(rows_[cursor].providers.begin(),
                                       rows_[cursor].providers.end(),
                                       [&](const Provider& q) {
                                         return q.address == in.address;
                                       })
                        : std::vector<Provider>::iterator{};
    const bool found = present && entry != rows_[cursor].providers.end();
    // Owner-side removal: a retract lowers the entry and steps its version;
    // at or below zero, and on a purge (a set to 0), the entry's version is
    // buried and the entry dropped. Only a purge buries an absent entry: it
    // expresses delete intent, and a stale push may still be in flight.
    if (rule == MergeRule::kRetract ||
        (rule == MergeRule::kSet && in.frequency == 0)) {
      if (!found) {
        if (rule == MergeRule::kSet) bury(list, in.address, 0);
        continue;
      }
      if (rule == MergeRule::kRetract && entry->frequency > in.frequency) {
        entry->frequency -= in.frequency;
        ++entry->version;
        resort = true;
      } else {
        bury(list, in.address, entry->version);
        rows_[cursor].providers.erase(entry);
      }
      touched = true;
      continue;
    }
    if (in.frequency == 0) {
      // Only a mirrored removal carries an empty entry: it buries the
      // owner's version and drops an entry no newer than it.
      if (rule != MergeRule::kMirror) continue;
      bury(list, in.address, in.version);
      if (found && entry->version <= in.version) {
        rows_[cursor].providers.erase(entry);
        touched = true;
      }
      continue;
    }
    // A deleted provider only comes back when the push is strictly newer
    // than its burial (it demonstrably re-published since); an owner-side
    // write always revives it, starting past the burial.
    std::uint32_t revived = 0;
    if (const std::size_t ti = burial_index(list, in.address);
        ti < list.len && slab_[list.off + ti].address == in.address) {
      revived = slab_[list.off + ti].version;
      if (pushed && revived >= in.version) continue;
      erase_burial(list, ti);
    }
    if (!found) {
      if (!present) {
        rows_.insert(rows_.begin() + static_cast<std::ptrdiff_t>(cursor),
                     Row{key, {}});
        row_burials_.insert(
            row_burials_.begin() + static_cast<std::ptrdiff_t>(cursor),
            BurialList{});
        present = true;
      }
      rows_[cursor].providers.push_back(
          pushed ? in
                 : Provider{in.address, in.frequency,
                            std::max(in.version, revived + 1)});
      resort = true;
    } else if (!pushed) {
      const std::uint32_t frequency = rule == MergeRule::kSet
                                          ? in.frequency
                                          : entry->frequency + in.frequency;
      resort = resort || frequency != entry->frequency;
      entry->frequency = frequency;
      entry->version = std::max(entry->version, in.version) + 1;
    } else if (in.version > entry->version ||
               (in.version == entry->version && rule == MergeRule::kMirror)) {
      if (*entry == in) continue;  // an equal mirror
      resort = resort || in.frequency != entry->frequency;
      *entry = in;  // newer wins outright, even with a lower frequency
    } else if (in.version == entry->version &&
               in.frequency > entry->frequency) {
      entry->frequency = in.frequency;  // several holders, one causal state
      resort = true;
    } else {
      continue;  // an older (reordered or stale) push
    }
    touched = true;
  }
  if (present) {
    row_burials_[cursor] = list;
    if (resort) sort_row(rows_[cursor].providers);
    if (rows_[cursor].providers.empty()) {
      erase_row_at(cursor, at.ghost);
    } else if (ghosted) {  // a row created here took over the key's ghost
      ghosts_.erase(ghosts_.begin() + static_cast<std::ptrdiff_t>(at.ghost));
    }
  } else {
    set_ghost(at.ghost, key, list);
  }
  compact_if_sparse();
  return touched;
}

void LocationTable::held(std::span<KeyedEntry> entries) const {
  Cursor at;
  for (KeyedEntry& e : entries) {
    const net::NodeAddress address = e.provider.address;
    at.row = seek(rows_, at.row, e.key);
    BurialList list;
    if (at.row < rows_.size() && rows_[at.row].key == e.key) {
      const std::vector<Provider>& row = rows_[at.row].providers;
      auto p = std::find_if(row.begin(), row.end(), [&](const Provider& q) {
        return q.address == address;
      });
      if (p != row.end()) {
        e.provider = *p;
        continue;
      }
      list = row_burials_[at.row];
    } else {
      at.ghost = seek(ghosts_, at.ghost, e.key);
      if (at.ghost < ghosts_.size() && ghosts_[at.ghost].key == e.key) {
        list = ghosts_[at.ghost].list;
      }
    }
    e.provider = Provider{address, 0, buried_version(list, address).value_or(0)};
  }
}

void LocationTable::purge_everywhere(net::NodeAddress address) {
  // Single compaction pass: purge every row, drop the emptied ones, and
  // park their provider capacity — no per-row vector erase churn. The
  // emptied rows' burials become ghosts, merged in by key at the end.
  std::vector<Ghost> emptied;
  std::size_t w = 0;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    std::vector<Provider>& row = rows_[r].providers;
    BurialList& list = row_burials_[r];
    std::uint32_t died_at = 0;
    auto pos = std::remove_if(row.begin(), row.end(), [&](const Provider& p) {
      if (p.address != address) return false;
      died_at = std::max(died_at, p.version);
      return true;
    });
    if (pos != row.end()) {
      row.erase(pos, row.end());
      bury(list, address, died_at);
    }
    if (row.empty()) {
      if (list.len != 0) emptied.push_back(Ghost{rows_[r].key, list});
      continue;
    }
    if (w != r) {
      rows_[w] = std::move(rows_[r]);
      row_burials_[w] = list;
    }
    ++w;
  }
  rows_.resize(w);
  row_burials_.resize(w);
  merge_ghosts(emptied);
  compact_if_sparse();
}

void LocationTable::merge_ghosts(std::span<const Ghost> more) {
  if (more.empty()) return;
  std::vector<Ghost> merged;
  merged.reserve(ghosts_.size() + more.size());
  std::ranges::merge(ghosts_, more, std::back_inserter(merged), {},
                     &Ghost::key, &Ghost::key);
  ghosts_ = std::move(merged);
}

std::vector<Provider> LocationTable::lookup(chord::Key key) const {
  std::size_t ri = row_index(key);
  if (ri == kNpos) return {};
  return rows_[ri].providers;  // rows are kept sorted on mutation
}

const Row* LocationTable::find_row(chord::Key key) const {
  std::size_t ri = row_index(key);
  return ri == kNpos ? nullptr : &rows_[ri];
}

RowSnapshot LocationTable::extract_range(
    chord::Key lo, chord::Key hi,
    const std::function<chord::Key(chord::Key)>& to_ring) {
  RowSnapshot out;
  std::vector<Ghost> left;  // burials of the extracted rows stay here
  std::size_t w = 0;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (chord::in_open_closed(to_ring(rows_[r].key), lo, hi)) {
      if (row_burials_[r].len != 0) {
        left.push_back(Ghost{rows_[r].key, row_burials_[r]});
      }
      out.push_back(std::move(rows_[r]));
    } else {
      if (w != r) {
        rows_[w] = std::move(rows_[r]);
        row_burials_[w] = row_burials_[r];
      }
      ++w;
    }
  }
  rows_.resize(w);
  row_burials_.resize(w);
  merge_ghosts(left);
  return out;  // ascending by key: rows_ was sorted
}

std::size_t LocationTable::entry_count() const noexcept {
  std::size_t n = 0;
  for (const Row& r : rows_) n += r.providers.size();
  return n;
}

std::size_t LocationTable::byte_size() const noexcept {
  std::size_t n = 8;
  for (const Row& r : rows_) n += row_bytes(r.providers.size());
  n += kTombstoneBytes * tombstones_;
  return n;
}

}  // namespace ahsw::overlay
