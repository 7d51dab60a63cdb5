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

void LocationTable::publish(chord::Key key, net::NodeAddress address,
                            std::uint32_t frequency) {
  // An absorbed entry at version 0: the frequency adds, the version steps
  // past the entry's or its burial's.
  Cursor at;
  const Provider entry{address, frequency, 0};
  merge_row(at, key, {&entry, 1}, MergeRule::kAbsorb);
}

bool LocationTable::retract(chord::Key key, net::NodeAddress address,
                            std::uint32_t frequency) {
  std::size_t ri = row_index(key);
  if (ri == kNpos) return false;
  std::vector<Provider>& row = rows_[ri].providers;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i].address != address) continue;
    if (row[i].frequency <= frequency) {
      // Bury the version the entry died at: a stale replica snapshot can
      // only carry this version or older, so reconcile() rejects it.
      bury(key, address, row[i].version);
      row.erase(row.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      row[i].frequency -= frequency;
      ++row[i].version;
      sort_row(row);
    }
    if (row.empty()) erase_row_at(ri);
    return true;
  }
  return false;
}

void LocationTable::upsert(chord::Key key, net::NodeAddress address,
                           std::uint32_t frequency) {
  if (frequency == 0) {
    purge(key, address);
    return;
  }
  Cursor at;
  const Provider entry{address, frequency, 0};
  merge_row(at, key, {&entry, 1}, MergeRule::kSet);
}

void LocationTable::upsert_replica(chord::Key key, net::NodeAddress address,
                                   std::uint32_t frequency,
                                   std::uint32_t version) {
  Cursor at;
  const Provider entry{address, frequency, version};
  merge_row(at, key, {&entry, 1}, MergeRule::kMirror);
}

void LocationTable::merge_rows(std::span<const Row> rows, MergeRule rule) {
  Cursor at;
  for (const Row& r : rows) merge_row(at, r.key, r.providers, rule);
}

void LocationTable::merge_row(Cursor& at, chord::Key key,
                              std::span<const Provider> incoming,
                              MergeRule rule) {
  assert(at.row == 0 || rows_[at.row - 1].key < key);
  const std::size_t cursor = at.row = seek(rows_, at.row, key);
  // The row comes into existence only once an entry is accepted.
  bool present = cursor < rows_.size() && rows_[cursor].key == key;
  bool changed = false;
  // Pushes carry versions from elsewhere and are gated by them; owner-side
  // writes always take effect and step the version.
  const bool pushed =
      rule == MergeRule::kMirror || rule == MergeRule::kReconcile;
  // The key's tombstones are tombstones_[tb, te).
  const std::size_t tb = seek(tombstones_, at.tomb, key);
  std::size_t te = tb;
  while (te < tombstones_.size() && tombstones_[te].key == key) ++te;
  for (const Provider& in : incoming) {
    std::size_t ti = tb;
    while (ti < te && tombstones_[ti].address < in.address) ++ti;
    const bool buried = ti < te && tombstones_[ti].address == in.address;
    const auto tomb = tombstones_.begin() + static_cast<std::ptrdiff_t>(ti);
    if (in.frequency == 0) {
      // Only a mirrored removal carries an empty entry: it buries the
      // owner's version and drops an entry no newer than it.
      if (rule != MergeRule::kMirror) continue;
      if (buried) {
        tomb->version = std::max(tomb->version, in.version);
      } else {
        tombstones_.insert(tomb, Tombstone{key, in.address, in.version});
        ++te;
      }
      if (present) {
        std::erase_if(rows_[cursor].providers, [&](const Provider& p) {
          return p.address == in.address && p.version <= in.version;
        });
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
    if (!present) {
      rows_.insert(rows_.begin() + static_cast<std::ptrdiff_t>(cursor),
                   Row{key, spare_.acquire()});
      present = true;
    }
    std::vector<Provider>& row = rows_[cursor].providers;
    auto p = std::find_if(row.begin(), row.end(), [&](const Provider& q) {
      return q.address == in.address;
    });
    if (p == row.end()) {
      row.push_back(pushed ? in
                           : Provider{in.address, in.frequency,
                                      std::max(in.version, revived + 1)});
    } else if (!pushed) {
      p->frequency = rule == MergeRule::kSet ? in.frequency
                                             : p->frequency + in.frequency;
      p->version = std::max(p->version, in.version) + 1;
    } else if (in.version > p->version ||
               (in.version == p->version && rule == MergeRule::kMirror)) {
      *p = in;  // newer wins outright, even with a lower frequency
    } else if (in.version == p->version && in.frequency > p->frequency) {
      p->frequency = in.frequency;  // several holders, one causal state
    } else {
      continue;  // an older (reordered or stale) push
    }
    changed = true;
  }
  at.tomb = te;
  if (!present) return;
  if (changed) sort_row(rows_[cursor].providers);
  if (rows_[cursor].providers.empty()) erase_row_at(cursor);
}

bool LocationTable::purge(chord::Key key, net::NodeAddress address) {
  std::size_t ri = row_index(key);
  if (ri == kNpos) {
    // Tombstone even when the entry is already gone: the purge expresses
    // delete intent, and a stale replica push may still be in flight.
    bury(key, address, 0);
    return false;
  }
  std::vector<Provider>& row = rows_[ri].providers;
  std::uint32_t died_at = 0;
  auto pos = std::remove_if(row.begin(), row.end(), [&](const Provider& p) {
    if (p.address != address) return false;
    died_at = std::max(died_at, p.version);
    return true;
  });
  bool changed = pos != row.end();
  row.erase(pos, row.end());
  bury(key, address, died_at);
  if (row.empty()) erase_row_at(ri);
  return changed;
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
