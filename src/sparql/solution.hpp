// Solution mappings and the set-level operations of the SPARQL algebra.
//
// Follows Perez, Arenas & Gutierrez, "Semantics and complexity of SPARQL"
// (TODS 2009), the formalization the paper adopts in Sect. IV-A:
//   - a solution mapping u is a partial function from variables to RDF terms;
//   - u1, u2 are compatible iff they agree on every shared variable;
//   - Join:  O1 x O2 = { u1 u u2 | u1 in O1, u2 in O2, compatible }
//   - Union: O1 u O2
//   - Difference: O1 \ O2 = { u1 in O1 | forall u2 in O2: not
//     compatible(u1, u2) }, which occurs only inside LeftJoin (it is not
//     SPARQL 1.1 MINUS, which the parser does not accept);
//   - LeftJoin: (O1 x O2) u (O1 \ O2), with an optional filter condition
//     applied inside the join part (SPARQL OPTIONAL semantics).
// set_union below and the id kernels of sparql/columnar.hpp implement
// Union, Join and LeftJoin. Their row-at-a-time definitions, compatible()
// and merged() included, are the test oracle in tests/support/row_reference.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rdf/term.hpp"

namespace ahsw::sparql {

/// One solution mapping (a row of a SPARQL result). Stored as a sorted
/// flat vector of (variable name, term) pairs; names exclude the '?'.
class Binding {
 public:
  Binding() = default;

  /// Term bound to `var`, or nullptr when unbound.
  [[nodiscard]] const rdf::Term* get(std::string_view var) const noexcept;

  /// Bind `var` to `term`. Overwrites an existing binding of the same var.
  void set(std::string_view var, rdf::Term term);

  /// Bind `var`, which sorts after every variable bound so far, to `term`
  /// (a row built in schema order appends each slot at the back).
  void append(std::string_view var, const rdf::Term& term) {
    slots_.emplace_back(std::string(var), term);
  }
  /// Make room for `n` slots.
  void reserve(std::size_t n) { slots_.reserve(n); }

  [[nodiscard]] bool bound(std::string_view var) const noexcept {
    return get(var) != nullptr;
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] bool empty() const noexcept { return slots_.empty(); }

  /// Sorted (name, term) pairs; iteration order is deterministic.
  [[nodiscard]] const std::vector<std::pair<std::string, rdf::Term>>& slots()
      const noexcept {
    return slots_;
  }

  /// Serialized size for the network cost model.
  [[nodiscard]] std::size_t byte_size() const noexcept;

  /// Debug form: `{x-><a>, y->"v"}` with variables in sorted order.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Binding&, const Binding&) = default;
  /// Lexicographic over sorted slots: gives result sets a canonical order.
  friend std::strong_ordering operator<=>(const Binding&,
                                          const Binding&) = default;

 private:
  std::vector<std::pair<std::string, rdf::Term>> slots_;
};

/// A set of solution mappings (duplicates allowed: SPARQL solution
/// *sequences* keep multiplicity until DISTINCT/REDUCED).
class SolutionSet {
 public:
  SolutionSet() = default;
  explicit SolutionSet(std::vector<Binding> rows) : rows_(std::move(rows)) {}

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }

  void add(Binding b) { rows_.push_back(std::move(b)); }

  [[nodiscard]] const std::vector<Binding>& rows() const noexcept {
    return rows_;
  }
  [[nodiscard]] std::vector<Binding>& rows() noexcept { return rows_; }

  /// Total *raw* (uncompressed) serialized size. The cost model charges the
  /// compressed size instead (net::wire::charged_bytes); this raw figure
  /// travels with every send as the raw() of its net::wire::charge, so the
  /// compression win stays observable. Summed over the rows on each call;
  /// every caller sizes a given set once. (The distributed processor ships
  /// sparql::IdRows and sizes those instead.)
  [[nodiscard]] std::size_t byte_size() const noexcept;

  /// Sort rows canonically, so tests can compare result sets whatever
  /// order their rows arrived in. (Final answers are ordered in ids, by
  /// finalize_result.)
  void normalize();

  [[nodiscard]] std::string to_string() const;

 private:
  static constexpr std::size_t kSetFraming = 4;

  std::vector<Binding> rows_;
};

// Join, left join, filter and distinct over SolutionSets are the
// vec_* entry points of sparql/columnar.hpp.

/// O1 u O2.
[[nodiscard]] SolutionSet set_union(const SolutionSet& a,
                                    const SolutionSet& b);

/// Variables appearing in any row of `s`, sorted.
[[nodiscard]] std::vector<std::string> variables_of(const SolutionSet& s);

}  // namespace ahsw::sparql
