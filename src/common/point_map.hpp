// Hash map for point lookups only. It offers find, try_emplace, erase,
// contains and size, and no iterators: a std::unordered_map walks in an
// order that depends on the standard library, the hash and the insertion
// history, and with no way to walk this map that order cannot reach a
// report, an EXPLAIN tree or a wire payload. It is the one hash container
// in src/, tools/ and bench/ (lint rule D1 bans the raw std::unordered_*
// types everywhere else); a caller that needs a traversal keeps an ordered
// projection beside it (cf. rdf::TermDictionary::terms()).
#pragma once

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <utility>

namespace ahsw::common {

template <typename K, typename V, typename Hash = std::hash<K>>
class PointMap {
 public:
  /// The value held under `key`, or null. The pointer stays valid until
  /// `key` is erased; inserting other keys never moves a held value.
  [[nodiscard]] V* find(const K& key) {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const V* find(const K& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Hold V(args...) under `key` unless a value is held already. Returns
  /// the held value and whether it was inserted now.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    auto [it, inserted] = map_.try_emplace(key, std::forward<Args>(args)...);
    return {&it->second, inserted};
  }

  /// Drop `key`; returns whether a value was held under it.
  bool erase(const K& key) { return map_.erase(key) > 0; }

  [[nodiscard]] bool contains(const K& key) const {
    return map_.contains(key);
  }
  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }

 private:
  std::unordered_map<K, V, Hash> map_;
};

}  // namespace ahsw::common
