#include "overlay/location_table.hpp"

#include <algorithm>
#include <cassert>

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

void LocationTable::erase_row_at(std::size_t i) {
  spare_.release(std::move(rows_[i].providers));
  rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(i));
}

void LocationTable::erase_row(chord::Key key) {
  std::size_t i = row_index(key);
  if (i != kNpos) erase_row_at(i);
}

std::size_t LocationTable::tomb_index(chord::Key key,
                                      net::NodeAddress address) const {
  std::size_t i = seek(tombstones_, 0, key);
  while (i < tombstones_.size() && tombstones_[i].key == key &&
         tombstones_[i].address < address) {
    ++i;
  }
  return i;
}

void LocationTable::bury(chord::Key key, net::NodeAddress address,
                         std::uint32_t version) {
  std::size_t i = tomb_index(key, address);
  if (i < tombstones_.size() && tombstones_[i].key == key &&
      tombstones_[i].address == address) {
    tombstones_[i].version = std::max(tombstones_[i].version, version);
  } else {
    tombstones_.insert(tombstones_.begin() + static_cast<std::ptrdiff_t>(i),
                       Tombstone{key, address, version});
  }
}

bool LocationTable::tombstoned(chord::Key key, net::NodeAddress address) const {
  return tombstone_version(key, address).has_value();
}

std::optional<std::uint32_t> LocationTable::tombstone_version(
    chord::Key key, net::NodeAddress address) const {
  std::size_t i = tomb_index(key, address);
  if (i == tombstones_.size() || tombstones_[i].key != key ||
      tombstones_[i].address != address) {
    return std::nullopt;
  }
  return tombstones_[i].version;
}

void LocationTable::merge_rows(std::span<const Row> rows, MergeRule rule) {
  Cursor at;
  for (const Row& r : rows) merge_row(at, r.key, r.providers, rule);
}

void LocationTable::reconcile(std::span<const Row* const> rows) {
  Cursor at;
  for (const Row* r : rows) {
    merge_row(at, r->key, r->providers, MergeRule::kReconcile);
  }
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
  // The key's tombstones are tombstones_[tb, te).
  const std::size_t tb = seek(tombstones_, at.tomb, key);
  std::size_t te = tb;
  while (te < tombstones_.size() && tombstones_[te].key == key) ++te;
  // A pushed row equal to the stored one changes nothing, unless one of its
  // providers is also buried here: the burial either rejects the push or is
  // revived by it.
  if (pushed && present &&
      std::ranges::equal(incoming, rows_[cursor].providers) &&
      std::none_of(tombstones_.begin() + static_cast<std::ptrdiff_t>(tb),
                   tombstones_.begin() + static_cast<std::ptrdiff_t>(te),
                   [&](const Tombstone& t) {
                     return std::ranges::any_of(incoming,
                                                [&](const Provider& p) {
                                                  return p.address == t.address;
                                                });
                   })) {
    at.tomb = te;
    return false;
  }
  bool touched = false;  // an entry was added, changed or dropped
  bool resort = false;   // an entry was added or its frequency changed
  for (const Provider& in : incoming) {
    std::size_t ti = tb;
    while (ti < te && tombstones_[ti].address < in.address) ++ti;
    const bool buried = ti < te && tombstones_[ti].address == in.address;
    const auto tomb = tombstones_.begin() + static_cast<std::ptrdiff_t>(ti);
    // Bury `version` under the incoming provider; a burial keeps the newest.
    auto bury_here = [&](std::uint32_t version) {
      if (buried) {
        tomb->version = std::max(tomb->version, version);
      } else {
        tombstones_.insert(tomb, Tombstone{key, in.address, version});
        ++te;
      }
    };
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
        if (rule == MergeRule::kSet) bury_here(0);
        continue;
      }
      if (rule == MergeRule::kRetract && entry->frequency > in.frequency) {
        entry->frequency -= in.frequency;
        ++entry->version;
        resort = true;
      } else {
        bury_here(entry->version);
        rows_[cursor].providers.erase(entry);
      }
      touched = true;
      continue;
    }
    if (in.frequency == 0) {
      // Only a mirrored removal carries an empty entry: it buries the
      // owner's version and drops an entry no newer than it.
      if (rule != MergeRule::kMirror) continue;
      bury_here(in.version);
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
    if (buried) {
      if (pushed && tomb->version >= in.version) continue;
      revived = tomb->version;
      tombstones_.erase(tomb);
      --te;
    }
    if (!found) {
      if (!present) {
        rows_.insert(rows_.begin() + static_cast<std::ptrdiff_t>(cursor),
                     Row{key, spare_.acquire()});
        present = true;
      }
      rows_[cursor].providers.push_back(
          pushed ? in
                 : Provider{in.address, in.frequency,
                            std::max(in.version, revived + 1)});
    } else if (!pushed) {
      entry->frequency = rule == MergeRule::kSet
                             ? in.frequency
                             : entry->frequency + in.frequency;
      entry->version = std::max(entry->version, in.version) + 1;
    } else if (in.version > entry->version ||
               (in.version == entry->version && rule == MergeRule::kMirror)) {
      if (*entry == in) continue;  // an equal mirror: nothing to re-sort
      *entry = in;  // newer wins outright, even with a lower frequency
    } else if (in.version == entry->version &&
               in.frequency > entry->frequency) {
      entry->frequency = in.frequency;  // several holders, one causal state
    } else {
      continue;  // an older (reordered or stale) push
    }
    touched = resort = true;
  }
  at.tomb = te;
  if (!present) return touched;
  if (resort) sort_row(rows_[cursor].providers);
  if (rows_[cursor].providers.empty()) erase_row_at(cursor);
  return touched;
}

void LocationTable::held(std::span<KeyedEntry> entries) const {
  Cursor at;
  for (KeyedEntry& e : entries) {
    const net::NodeAddress address = e.provider.address;
    at.row = seek(rows_, at.row, e.key);
    if (at.row < rows_.size() && rows_[at.row].key == e.key) {
      const std::vector<Provider>& row = rows_[at.row].providers;
      auto p = std::find_if(row.begin(), row.end(), [&](const Provider& q) {
        return q.address == address;
      });
      if (p != row.end()) {
        e.provider = *p;
        continue;
      }
    }
    std::size_t ti = at.tomb = seek(tombstones_, at.tomb, e.key);
    while (ti < tombstones_.size() && tombstones_[ti].key == e.key &&
           tombstones_[ti].address < address) {
      ++ti;
    }
    const bool buried = ti < tombstones_.size() &&
                        tombstones_[ti].key == e.key &&
                        tombstones_[ti].address == address;
    e.provider = Provider{address, 0, buried ? tombstones_[ti].version : 0};
  }
}

void LocationTable::purge_everywhere(net::NodeAddress address) {
  // Single compaction pass: purge every row, drop the emptied ones, and
  // park their provider capacity — no per-row vector erase churn.
  std::size_t w = 0;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    std::vector<Provider>& row = rows_[r].providers;
    std::uint32_t died_at = 0;
    auto pos = std::remove_if(row.begin(), row.end(), [&](const Provider& p) {
      if (p.address != address) return false;
      died_at = std::max(died_at, p.version);
      return true;
    });
    if (pos != row.end()) {
      row.erase(pos, row.end());
      bury(rows_[r].key, address, died_at);
    }
    if (row.empty()) {
      spare_.release(std::move(row));
      continue;
    }
    if (w != r) rows_[w] = std::move(rows_[r]);
    ++w;
  }
  rows_.resize(w);
}

std::vector<Provider> LocationTable::lookup(chord::Key key) const {
  std::size_t ri = row_index(key);
  if (ri == kNpos) return {};
  return rows_[ri].providers;  // rows are kept sorted on mutation
}

const Provider* LocationTable::find(chord::Key key,
                                    net::NodeAddress address) const {
  std::size_t ri = row_index(key);
  if (ri == kNpos) return nullptr;
  for (const Provider& p : rows_[ri].providers) {
    if (p.address == address) return &p;
  }
  return nullptr;
}

const Row* LocationTable::find_row(chord::Key key) const {
  std::size_t ri = row_index(key);
  return ri == kNpos ? nullptr : &rows_[ri];
}

RowSnapshot LocationTable::extract_range(chord::Key lo, chord::Key hi) {
  return extract_range_mapped(lo, hi, [](chord::Key k) { return k; });
}

RowSnapshot LocationTable::extract_range_mapped(
    chord::Key lo, chord::Key hi,
    const std::function<chord::Key(chord::Key)>& to_ring) {
  RowSnapshot out;
  std::size_t w = 0;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (chord::in_open_closed(to_ring(rows_[r].key), lo, hi)) {
      out.push_back(std::move(rows_[r]));
    } else {
      if (w != r) rows_[w] = std::move(rows_[r]);
      ++w;
    }
  }
  rows_.resize(w);
  return out;  // ascending by key: rows_ was sorted
}

std::size_t LocationTable::entry_count() const noexcept {
  std::size_t n = 0;
  for (const Row& r : rows_) n += r.providers.size();
  return n;
}

std::size_t LocationTable::byte_size() const noexcept {
  // 16 per provider: address (8) + frequency (4) + version (4). The
  // pre-version figure of 12 survived the replica-versioning change, so
  // every slice transfer and reconcile push undercounted by 4 bytes per
  // entry — and tombstones (key + address + buried version), which do
  // travel with snapshots to keep deletions from resurrecting, were never
  // charged at all.
  std::size_t n = 8;
  for (const Row& r : rows_) n += 8 + kProviderBytes * r.providers.size();
  n += kTombstoneBytes * tombstones_.size();
  return n;
}

}  // namespace ahsw::overlay
