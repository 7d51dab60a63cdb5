#include "support/replica_reference.hpp"

#include <algorithm>
#include <utility>

namespace ahsw::overlay {

LocationTableReference::KeyBurials LocationTableReference::key_burials(
    const LocationTable& t, chord::Key key) {
  std::size_t ghost = 0;
  const std::size_t row = t.row_index(key);
  if (row != LocationTable::kNpos) return {row, ghost, t.row_burials_[row]};
  while (ghost < t.ghosts_.size() && t.ghosts_[ghost].key < key) ++ghost;
  if (ghost < t.ghosts_.size() && t.ghosts_[ghost].key == key) {
    return {row, ghost, t.ghosts_[ghost].list};
  }
  return {row, ghost, {}};
}

void LocationTableReference::store(LocationTable& t, chord::Key key,
                                   KeyBurials& k) {
  if (k.row != LocationTable::kNpos) {
    t.row_burials_[k.row] = k.list;
  } else {
    t.set_ghost(k.ghost, key, k.list);
  }
}

void LocationTableReference::bury(LocationTable& t, chord::Key key,
                                  net::NodeAddress address,
                                  std::uint32_t version) {
  KeyBurials k = key_burials(t, key);
  t.bury(k.list, address, version);
  store(t, key, k);
}

std::uint32_t LocationTableReference::revive(LocationTable& t, chord::Key key,
                                             net::NodeAddress address) {
  KeyBurials k = key_burials(t, key);
  const std::size_t i = t.burial_index(k.list, address);
  if (i == k.list.len || t.slab_[k.list.off + i].address != address) return 0;
  std::uint32_t buried = t.slab_[k.list.off + i].version;
  t.erase_burial(k.list, i);
  store(t, key, k);
  return buried;
}

std::size_t LocationTableReference::row_index_or_insert(LocationTable& t,
                                                       chord::Key key) {
  auto it = std::lower_bound(
      t.rows_.begin(), t.rows_.end(), key,
      [](const Row& r, chord::Key k) { return r.key < k; });
  const auto i = static_cast<std::size_t>(it - t.rows_.begin());
  if (it != t.rows_.end() && it->key == key) return i;
  // A new row takes over the key's ghost, if it has one.
  const KeyBurials k = key_burials(t, key);
  if (k.list.len != 0) {
    t.ghosts_.erase(t.ghosts_.begin() + static_cast<std::ptrdiff_t>(k.ghost));
  }
  t.rows_.insert(it, Row{key, {}});
  t.row_burials_.insert(
      t.row_burials_.begin() + static_cast<std::ptrdiff_t>(i), k.list);
  return i;
}

std::optional<std::uint32_t> LocationTableReference::tombstone_version(
    const LocationTable& t, chord::Key key, net::NodeAddress address) {
  const KeyBurials k = key_burials(t, key);
  for (const LocationTable::Burial& b : t.burials(k.list)) {
    if (b.address == address) return b.version;
  }
  return std::nullopt;
}

void LocationTableReference::publish(LocationTable& t, chord::Key key,
                                     net::NodeAddress address,
                                     std::uint32_t frequency) {
  if (frequency == 0) return;
  std::uint32_t buried = revive(t, key, address);
  std::vector<Provider>& row = t.rows_[row_index_or_insert(t, key)].providers;
  for (Provider& p : row) {
    if (p.address == address) {
      p.frequency += frequency;
      ++p.version;
      t.sort_row(row);
      return;
    }
  }
  row.push_back(Provider{address, frequency, buried + 1});
  t.sort_row(row);
}

void LocationTableReference::upsert(LocationTable& t, chord::Key key,
                                    net::NodeAddress address,
                                    std::uint32_t frequency) {
  if (frequency == 0) {
    purge(t, key, address);
    return;
  }
  std::uint32_t buried = revive(t, key, address);
  std::vector<Provider>& row =
      t.rows_[row_index_or_insert(t, key)].providers;
  for (Provider& p : row) {
    if (p.address == address) {
      p.frequency = frequency;
      ++p.version;
      t.sort_row(row);
      return;
    }
  }
  row.push_back(Provider{address, frequency, buried + 1});
  t.sort_row(row);
}

bool LocationTableReference::retract(LocationTable& t, chord::Key key,
                                     net::NodeAddress address,
                                     std::uint32_t frequency) {
  std::size_t ri = t.row_index(key);
  if (ri == LocationTable::kNpos) return false;
  std::vector<Provider>& row = t.rows_[ri].providers;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i].address != address) continue;
    if (row[i].frequency <= frequency) {
      // Bury the version the entry died at: a stale replica snapshot can
      // only carry this version or older, so reconcile() rejects it.
      bury(t, key, address, row[i].version);
      row.erase(row.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      row[i].frequency -= frequency;
      ++row[i].version;
      t.sort_row(row);
    }
    if (row.empty()) t.erase_row_at(ri);
    return true;
  }
  return false;
}

bool LocationTableReference::purge(LocationTable& t, chord::Key key,
                                   net::NodeAddress address) {
  std::size_t ri = t.row_index(key);
  if (ri == LocationTable::kNpos) {
    // Tombstone even when the entry is already gone: the purge expresses
    // delete intent, and a stale replica push may still be in flight.
    bury(t, key, address, 0);
    return false;
  }
  std::vector<Provider>& row = t.rows_[ri].providers;
  std::uint32_t died_at = 0;
  auto pos = std::remove_if(row.begin(), row.end(), [&](const Provider& p) {
    if (p.address != address) return false;
    died_at = std::max(died_at, p.version);
    return true;
  });
  bool changed = pos != row.end();
  row.erase(pos, row.end());
  bury(t, key, address, died_at);
  if (row.empty()) t.erase_row_at(ri);
  return changed;
}

void LocationTableReference::upsert_replica(LocationTable& t, chord::Key key,
                                            net::NodeAddress address,
                                            std::uint32_t frequency,
                                            std::uint32_t version) {
  if (frequency == 0) {
    bury(t, key, address, version);
    std::size_t ri = t.row_index(key);
    if (ri == LocationTable::kNpos) return;
    std::vector<Provider>& row = t.rows_[ri].providers;
    auto pos = std::remove_if(row.begin(), row.end(), [&](const Provider& p) {
      return p.address == address && p.version <= version;
    });
    row.erase(pos, row.end());
    if (row.empty()) t.erase_row_at(ri);
    return;
  }
  if (std::optional<std::uint32_t> buried = tombstone_version(t, key, address);
      buried.has_value()) {
    if (*buried >= version) return;  // stale push from before the burial
    (void)revive(t, key, address);
  }
  std::vector<Provider>& row = t.rows_[row_index_or_insert(t, key)].providers;
  for (Provider& p : row) {
    if (p.address == address) {
      if (version < p.version) return;  // out-of-order push
      p.frequency = frequency;
      p.version = version;
      t.sort_row(row);
      return;
    }
  }
  row.push_back(Provider{address, frequency, version});
  t.sort_row(row);
}

void LocationTableReference::reconcile(LocationTable& t,
                                       const RowSnapshot& rows) {
  for (const Row& incoming : rows) {
    const chord::Key key = incoming.key;
    // Locate the row lazily: when every incoming provider is rejected
    // (tombstoned or stale) no empty row must churn into existence just to
    // be erased again.
    std::size_t ri = t.row_index(key);
    bool changed = false;
    for (const Provider& in : incoming.providers) {
      if (in.frequency == 0) continue;  // replicas never mirror empty entries
      // A deleted provider only comes back when the snapshot is strictly
      // newer than its burial (it demonstrably re-published since).
      if (std::optional<std::uint32_t> buried =
              tombstone_version(t, key, in.address);
          buried.has_value()) {
        if (*buried >= in.version) continue;
        (void)revive(t, key, in.address);
      }
      if (ri == LocationTable::kNpos) ri = row_index_or_insert(t, key);
      bool found = false;
      for (Provider& p : t.rows_[ri].providers) {
        if (p.address != in.address) continue;
        found = true;
        if (in.version > p.version) {
          // Newer snapshot wins outright — including a *lower* frequency
          // (the partial-retract case the old max-merge resurrected).
          p.frequency = in.frequency;
          p.version = in.version;
          changed = true;
        } else if (in.version == p.version) {
          // Same causal state from several replica holders: max keeps the
          // merge idempotent without inflating the row.
          if (in.frequency > p.frequency) {
            p.frequency = in.frequency;
            changed = true;
          }
        }
        break;
      }
      if (!found) {
        t.rows_[ri].providers.push_back(in);
        changed = true;
      }
    }
    if (ri == LocationTable::kNpos) continue;
    if (changed) t.sort_row(t.rows_[ri].providers);
    if (t.rows_[ri].providers.empty()) t.erase_row_at(ri);
  }
}

void LocationTableReference::absorb(LocationTable& t, const RowSnapshot& rows) {
  for (const Row& incoming : rows) {
    const chord::Key key = incoming.key;
    for (const Provider& in : incoming.providers) {
      if (in.frequency == 0) continue;
      // Preserve incoming versions: resetting a transferred entry to
      // version 1 would let that owner's replica mirrors (still carrying
      // the higher pre-transfer version) overwrite later mutations — the
      // resurrection bug reintroduced through ownership transfer.
      std::uint32_t buried = revive(t, key, in.address);
      std::vector<Provider>& row =
          t.rows_[row_index_or_insert(t, key)].providers;
      bool found = false;
      for (Provider& p : row) {
        if (p.address != in.address) continue;
        p.frequency += in.frequency;
        p.version = std::max(p.version, in.version) + 1;
        found = true;
        break;
      }
      if (!found) {
        row.push_back(Provider{in.address, in.frequency,
                               std::max(in.version, buried + 1)});
      }
      t.sort_row(row);
    }
  }
}

void LocationTableReference::mirror(LocationTable& t, const RowSnapshot& rows) {
  for (const Row& r : rows) {
    for (const Provider& p : r.providers) {
      upsert_replica(t, r.key, p.address, p.frequency, p.version);
    }
  }
}

std::vector<LocationTableReference::Burial> LocationTableReference::tombstones(
    const LocationTable& t) {
  // Rows and ghosts hold disjoint keys; walk both in key order.
  std::vector<Burial> out;
  auto flatten = [&](chord::Key key, LocationTable::BurialList list) {
    for (const LocationTable::Burial& b : t.burials(list)) {
      out.push_back(Burial{key, b.address, b.version});
    }
  };
  std::size_t g = 0;
  for (std::size_t r = 0; r < t.rows_.size(); ++r) {
    for (; g < t.ghosts_.size() && t.ghosts_[g].key < t.rows_[r].key; ++g) {
      flatten(t.ghosts_[g].key, t.ghosts_[g].list);
    }
    flatten(t.rows_[r].key, t.row_burials_[r]);
  }
  for (; g < t.ghosts_.size(); ++g) flatten(t.ghosts_[g].key, t.ghosts_[g].list);
  return out;
}

std::size_t LocationTableReference::slab_entries(const LocationTable& t) {
  return t.slab_.size();
}

}  // namespace ahsw::overlay
