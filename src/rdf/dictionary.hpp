// Term dictionary: interns RDF terms to dense 32-bit ids.
//
// The triple store keys its orderings on ids instead of full terms, which
// keeps index nodes cheap and makes equality comparisons O(1). The storage
// nodes of one overlay share one dictionary, so their scans emit ids every
// merge downstream can compare without touching a string. The dictionary
// also keeps the Term order of its ids (rank), so those merges sort and
// rank rows by comparing integers.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/point_map.hpp"
#include "rdf/term.hpp"

namespace ahsw::rdf {

using TermId = std::uint32_t;
inline constexpr TermId kInvalidTermId = 0xffffffffu;

class TermDictionary {
 public:
  /// Intern a term, returning its id (existing or freshly assigned). A new
  /// term has no rank until the next refresh_order().
  TermId intern(const Term& t);

  /// Id of a term if already interned.
  [[nodiscard]] std::optional<TermId> find(const Term& t) const;

  /// Term for an id previously returned by intern(). Precondition: valid id.
  /// The reference stays valid for the dictionary's lifetime: interning
  /// more terms never moves the ones already held.
  [[nodiscard]] const Term& term(TermId id) const { return terms_.at(id); }

  [[nodiscard]] std::size_t size() const noexcept { return terms_.size(); }

  /// The sanctioned traversal: every interned term in id (= insertion)
  /// order, so `terms()[id] == term(id)`. `ids_` is a common::PointMap,
  /// which cannot be walked, so its hash order never reaches an output.
  [[nodiscard]] const std::deque<Term>& terms() const noexcept {
    return terms_;
  }

  /// Extend the term order to the ids interned since the last refresh:
  /// sorts those k ids and merges them into the held order, O(N + k log k).
  /// Every writer of a dictionary that kernels rank through calls it once
  /// its interning is done.
  void refresh_order();

  /// The position of term(id) among all interned terms in Term order:
  /// rank(a) < rank(b) iff term(a) < term(b). Precondition: the order
  /// covers `id` (see require_order()).
  [[nodiscard]] std::uint32_t rank(TermId id) const noexcept {
    return rank_[id];
  }

  /// Throws std::logic_error unless the order covers every interned term
  /// (a refresh_order() was missed after interning).
  void require_order() const;

 private:
  common::PointMap<Term, TermId, TermHash> ids_;
  std::deque<Term> terms_;  // deque: references survive later interns
  std::vector<TermId> by_rank_;      // the ordered ids, in Term order
  std::vector<std::uint32_t> rank_;  // id -> its index in by_rank_
};

}  // namespace ahsw::rdf
