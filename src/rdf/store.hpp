// In-memory RDF triple store with three collated orderings (SPO, POS, OSP).
//
// Each storage node in the overlay owns one TripleStore for the data it
// shares; the local SPARQL engine evaluates sub-queries against it. The
// three orderings serve all eight triple-pattern shapes with a range scan.
//
// A store keys its orderings on TermDictionary ids. The stores of one
// overlay intern into the overlay's dictionary, so the ids their scans emit
// agree across nodes; a standalone store (the merged oracle store, an
// RDFPeers peer, a test fixture) owns a private dictionary.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "rdf/dictionary.hpp"
#include "rdf/triple.hpp"

namespace ahsw::rdf {

class TripleStore {
 public:
  /// A standalone store interning into a private dictionary.
  TripleStore();
  /// A store interning into `dict`, which must outlive it (the overlay's
  /// dictionary, shared by its storage nodes).
  explicit TripleStore(TermDictionary& dict);

  /// A copy of a standalone store gets its own copy of the dictionary; a
  /// copy of a store on a shared dictionary keeps pointing at that one
  /// (HybridOverlay::clone_for_worker rebinds it to the clone's copy).
  TripleStore(const TripleStore& other);
  TripleStore& operator=(const TripleStore& other);
  TripleStore(TripleStore&&) noexcept = default;
  TripleStore& operator=(TripleStore&&) noexcept = default;

  /// Point a store on a shared dictionary at `dict`, which must assign the
  /// same ids (a copy of the old dictionary).
  void rebind(TermDictionary& dict) noexcept { dict_ = &dict; }

  /// Insert a triple. Returns true if newly added (set semantics).
  bool insert(const Triple& t);

  /// Extend the dictionary's term order to the terms inserted since the
  /// last refresh (TermDictionary::refresh_order()): whoever inserts calls
  /// it before ranking kernels read this store's scans.
  void refresh_order() { dict_->refresh_order(); }

  /// Remove a triple. Returns true if it was present.
  bool erase(const Triple& t);

  [[nodiscard]] bool contains(const Triple& t) const;

  [[nodiscard]] std::size_t size() const noexcept { return spo_.size(); }
  [[nodiscard]] bool empty() const noexcept { return spo_.empty(); }

  /// The one index scan: invoke `fn(s, p, o)` with dictionary ids for every
  /// triple matching the pattern's bound positions, until it returns false.
  /// Variable-sharing constraints (e.g. ?x p ?x) are NOT enforced here.
  /// Iteration order is deterministic (term-id order of the chosen index).
  void match_ids(const TriplePattern& pattern,
                 const std::function<bool(TermId, TermId, TermId)>& fn) const;

  /// match_ids with every match decoded to a Triple.
  void match(const TriplePattern& pattern,
             const std::function<void(const Triple&)>& fn) const;

  /// All matches collected into a vector.
  [[nodiscard]] std::vector<Triple> match(const TriplePattern& pattern) const;

  /// Number of matches without materializing them; used to maintain the
  /// frequency counts the location table carries (Table I of the paper).
  [[nodiscard]] std::size_t count_matches(const TriplePattern& pattern) const;

  /// Invoke `fn` for every stored triple.
  void for_each(const std::function<void(const Triple&)>& fn) const;

  /// The dictionary interning this store's terms: the ids match_ids emits
  /// resolve through it.
  [[nodiscard]] const TermDictionary& dictionary() const noexcept {
    return *dict_;
  }

 private:
  using Key = std::array<TermId, 3>;  // in index-specific position order

  // Decoded positions: spo_[s][p][o], pos_[p][o][s], osp_[o][s][p].
  std::set<Key> spo_;
  std::set<Key> pos_;
  std::set<Key> osp_;
  std::unique_ptr<TermDictionary> own_;  // standalone stores only
  TermDictionary* dict_;

  /// Encode pattern positions to ids; returns false if some bound term is
  /// not in the dictionary (=> zero matches).
  [[nodiscard]] bool encode(const TriplePattern& pattern, bool& s_bound,
                            bool& p_bound, bool& o_bound, TermId& s, TermId& p,
                            TermId& o) const;
};

}  // namespace ahsw::rdf
