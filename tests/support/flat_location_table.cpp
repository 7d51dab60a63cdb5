#include "support/flat_location_table.hpp"

#include <algorithm>

namespace ahsw::overlay {
namespace {

void sort_row(std::vector<Provider>& row) {
  std::sort(row.begin(), row.end(), [](const Provider& a, const Provider& b) {
    if (a.frequency != b.frequency) return a.frequency < b.frequency;
    return a.address < b.address;
  });
}

}  // namespace

std::size_t FlatLocationTable::row_at(chord::Key key) const {
  return static_cast<std::size_t>(
      std::lower_bound(rows_.begin(), rows_.end(), key,
                       [](const Row& r, chord::Key k) { return r.key < k; }) -
      rows_.begin());
}

std::size_t FlatLocationTable::tomb_at(chord::Key key,
                                       net::NodeAddress address) const {
  return static_cast<std::size_t>(
      std::lower_bound(tombstones_.begin(), tombstones_.end(),
                       Burial{key, address, 0},
                       [](const Burial& a, const Burial& b) {
                         if (a.key != b.key) return a.key < b.key;
                         return a.address < b.address;
                       }) -
      tombstones_.begin());
}

std::optional<std::uint32_t> FlatLocationTable::tombstone_version(
    chord::Key key, net::NodeAddress address) const {
  const std::size_t i = tomb_at(key, address);
  if (i == tombstones_.size() || tombstones_[i].key != key ||
      tombstones_[i].address != address) {
    return std::nullopt;
  }
  return tombstones_[i].version;
}

std::size_t FlatLocationTable::merge_rows(std::span<const Row> rows,
                                          MergeRule rule) {
  std::size_t changed = 0;
  for (const Row& r : rows) {
    if (merge_row(r.key, r.providers, rule)) ++changed;
  }
  return changed;
}

void FlatLocationTable::merge_entries(std::span<const KeyedEntry> entries,
                                      MergeRule rule) {
  for (const KeyedEntry& e : entries) merge_row(e.key, {&e.provider, 1}, rule);
}

bool FlatLocationTable::merge_row(chord::Key key,
                                  std::span<const Provider> incoming,
                                  MergeRule rule) {
  const std::size_t cursor = row_at(key);
  bool present = cursor < rows_.size() && rows_[cursor].key == key;
  const bool pushed =
      rule == MergeRule::kMirror || rule == MergeRule::kReconcile;
  // The key's tombstones are tombstones_[tb, te).
  const std::size_t tb = tomb_at(key, 0);
  std::size_t te = tb;
  while (te < tombstones_.size() && tombstones_[te].key == key) ++te;
  if (pushed && present &&
      std::ranges::equal(incoming, rows_[cursor].providers) &&
      std::none_of(tombstones_.begin() + static_cast<std::ptrdiff_t>(tb),
                   tombstones_.begin() + static_cast<std::ptrdiff_t>(te),
                   [&](const Burial& t) {
                     return std::ranges::any_of(incoming,
                                                [&](const Provider& p) {
                                                  return p.address == t.address;
                                                });
                   })) {
    return false;
  }
  bool touched = false;
  bool resort = false;
  for (const Provider& in : incoming) {
    std::size_t ti = tb;
    while (ti < te && tombstones_[ti].address < in.address) ++ti;
    const bool buried = ti < te && tombstones_[ti].address == in.address;
    const auto tomb = tombstones_.begin() + static_cast<std::ptrdiff_t>(ti);
    auto bury_here = [&](std::uint32_t version) {
      if (buried) {
        tomb->version = std::max(tomb->version, version);
      } else {
        tombstones_.insert(tomb, Burial{key, in.address, version});
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
      if (rule != MergeRule::kMirror) continue;
      bury_here(in.version);
      if (found && entry->version <= in.version) {
        rows_[cursor].providers.erase(entry);
        touched = true;
      }
      continue;
    }
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
                     Row{key, {}});
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
      if (*entry == in) continue;
      resort = resort || in.frequency != entry->frequency;
      *entry = in;
    } else if (in.version == entry->version &&
               in.frequency > entry->frequency) {
      entry->frequency = in.frequency;
      resort = true;
    } else {
      continue;
    }
    touched = true;
  }
  if (!present) return touched;
  if (resort) sort_row(rows_[cursor].providers);
  if (rows_[cursor].providers.empty()) {
    rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(cursor));
  }
  return touched;
}

void FlatLocationTable::held(std::span<KeyedEntry> entries) const {
  for (KeyedEntry& e : entries) {
    const net::NodeAddress address = e.provider.address;
    if (const Row* row = find_row(e.key)) {
      auto p = std::ranges::find(row->providers, address, &Provider::address);
      if (p != row->providers.end()) {
        e.provider = *p;
        continue;
      }
    }
    e.provider =
        Provider{address, 0, tombstone_version(e.key, address).value_or(0)};
  }
}

void FlatLocationTable::purge_everywhere(net::NodeAddress address) {
  std::vector<Row> kept;
  for (Row& row : rows_) {
    auto p = std::ranges::find(row.providers, address, &Provider::address);
    if (p != row.providers.end()) {
      const std::uint32_t died_at = p->version;
      row.providers.erase(p);
      const std::size_t i = tomb_at(row.key, address);
      if (i < tombstones_.size() && tombstones_[i].key == row.key &&
          tombstones_[i].address == address) {
        tombstones_[i].version = std::max(tombstones_[i].version, died_at);
      } else {
        tombstones_.insert(tombstones_.begin() + static_cast<std::ptrdiff_t>(i),
                           Burial{row.key, address, died_at});
      }
    }
    if (!row.providers.empty()) kept.push_back(std::move(row));
  }
  rows_ = std::move(kept);
}

RowSnapshot FlatLocationTable::extract_range(
    chord::Key lo, chord::Key hi,
    const std::function<chord::Key(chord::Key)>& to_ring) {
  RowSnapshot out;
  std::vector<Row> kept;
  for (Row& row : rows_) {
    (chord::in_open_closed(to_ring(row.key), lo, hi) ? out : kept)
        .push_back(std::move(row));
  }
  rows_ = std::move(kept);
  return out;  // the tombstones stay
}

void FlatLocationTable::erase_row(chord::Key key) {
  const std::size_t i = row_at(key);
  if (i < rows_.size() && rows_[i].key == key) {
    rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

std::vector<Provider> FlatLocationTable::lookup(chord::Key key) const {
  const Row* row = find_row(key);
  return row == nullptr ? std::vector<Provider>{} : row->providers;
}

const Row* FlatLocationTable::find_row(chord::Key key) const {
  const std::size_t i = row_at(key);
  return i < rows_.size() && rows_[i].key == key ? &rows_[i] : nullptr;
}

std::size_t FlatLocationTable::entry_count() const noexcept {
  std::size_t n = 0;
  for (const Row& r : rows_) n += r.providers.size();
  return n;
}

std::size_t FlatLocationTable::byte_size() const noexcept {
  std::size_t n = 8;
  for (const Row& r : rows_) {
    n += 8 + LocationTable::kProviderBytes * r.providers.size();
  }
  return n + LocationTable::kTombstoneBytes * tombstones_.size();
}

}  // namespace ahsw::overlay
