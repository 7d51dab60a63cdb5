// SPARQL algebra and the Query Transformation stage (Fig. 3).
//
// The parsed AST is translated into algebra expressions following the W3C
// recommendation's ToAlgebra rules and the notation of Perez et al. that the
// paper uses: AND -> Join, UNION -> Union, OPT -> LeftJoin, FILTER ->
// Filter, with adjacent triple patterns fused into one BGP. E.g. Fig. 9
// becomes `Filter(C1, LeftJoin(BGP(P1 . P2), BGP(P3), true))` and, after
// filter pushing, `LeftJoin(BGP(Filter(C1, P1) . P2), BGP(P3), true)`.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "rdf/triple.hpp"
#include "sparql/ast.hpp"
#include "sparql/expr.hpp"

namespace ahsw::sparql {

enum class AlgebraKind {
  kBgp,       // basic graph pattern: conjunction of triple patterns
  kJoin,      // Join(left, right)
  kLeftJoin,  // LeftJoin(left, right, expr)  -- expr == nullptr means `true`
  kUnion,     // Union(left, right)
  kFilter,    // Filter(expr, left)
};

struct Algebra;
using AlgebraPtr = std::shared_ptr<const Algebra>;

/// One triple pattern inside a BGP, optionally carrying a pushed-down
/// filter (the result of the optimizer's filter-pushing rewrite; see
/// Sect. IV-G of the paper). A pushed filter constrains only variables
/// bound by this pattern.
struct BgpPattern {
  rdf::TriplePattern pattern;
  ExprPtr pushed_filter;  // may be null

  [[nodiscard]] std::string to_string() const;
};

/// Immutable algebra tree node.
struct Algebra {
  AlgebraKind kind = AlgebraKind::kBgp;

  std::vector<BgpPattern> bgp;          // kBgp
  AlgebraPtr left;                      // all unary/binary kinds
  AlgebraPtr right;                     // binary kinds
  ExprPtr expr;                         // kFilter / kLeftJoin condition

  [[nodiscard]] static AlgebraPtr make_bgp(
      std::vector<rdf::TriplePattern> patterns);
  [[nodiscard]] static AlgebraPtr make_bgp2(std::vector<BgpPattern> patterns);
  [[nodiscard]] static AlgebraPtr make_join(AlgebraPtr l, AlgebraPtr r);
  [[nodiscard]] static AlgebraPtr make_left_join(AlgebraPtr l, AlgebraPtr r,
                                                 ExprPtr condition);
  [[nodiscard]] static AlgebraPtr make_union(AlgebraPtr l, AlgebraPtr r);
  [[nodiscard]] static AlgebraPtr make_filter(ExprPtr condition, AlgebraPtr a);

  /// Variables this sub-expression is guaranteed to bind in every solution
  /// ("certain" variables; OPTIONAL right sides are excluded). Drives
  /// filter-pushing safety checks.
  [[nodiscard]] std::set<std::string> certain_variables() const;

  /// Textual form in the paper's notation (see file comment).
  [[nodiscard]] std::string to_string() const;
};

/// Translate the WHERE clause of a parsed query (ToAlgebra): the graph
/// pattern part only. Solution modifiers are not algebra nodes; they run
/// as post-processing at the initiator (`finalize_result`).
[[nodiscard]] AlgebraPtr translate_pattern(const GroupPattern& group);

}  // namespace ahsw::sparql
