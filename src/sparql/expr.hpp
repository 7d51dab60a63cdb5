// SPARQL FILTER expressions: built-in conditions per the SPARQL 1.0
// recommendation subset used by the paper's examples (regex, comparisons,
// logical connectives, arithmetic, bound/isIRI/isLiteral/isBlank,
// str/lang/datatype).
//
// Evaluation follows SPARQL error semantics: a type error yields an "error"
// value, which FILTER treats as false, and which || / && absorb per the
// three-valued logic of the spec.
#pragma once

#include <memory>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "rdf/term.hpp"
#include "sparql/solution.hpp"

namespace ahsw::sparql {

enum class ExprKind {
  kVar,       // ?x
  kConst,     // RDF term constant
  kNot,       // !e
  kNeg,       // -e
  kOr,        // e1 || e2
  kAnd,       // e1 && e2
  kEq,        // =
  kNe,        // !=
  kLt,        // <
  kGt,        // >
  kLe,        // <=
  kGe,        // >=
  kAdd,       // +
  kSub,       // -
  kMul,       // *
  kDiv,       // /
  kRegex,     // regex(e, pattern [, flags])
  kBound,     // bound(?x)
  kIsIri,     // isIRI(e)
  kIsLiteral, // isLiteral(e)
  kIsBlank,   // isBlank(e)
  kStr,       // str(e)
  kLang,      // lang(e)
  kDatatype,  // datatype(e)
};

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable expression tree node.
struct Expr {
  ExprKind kind;
  std::string var;          // kVar / kBound: variable name without '?'
  rdf::Term constant;       // kConst
  std::vector<ExprPtr> args;
  /// kRegex whose pattern is a constant literal and whose flags are a
  /// constant or absent: the pattern is compiled once, by Expr::regex, into
  /// `compiled` (null when it does not compile, which evaluates to the
  /// error value). Read-only afterwards, so parallel workers share it.
  /// Otherwise evaluation compiles the pattern per call.
  bool constant_pattern = false;
  std::shared_ptr<const std::regex> compiled;

  [[nodiscard]] static ExprPtr variable(std::string name);
  [[nodiscard]] static ExprPtr constant_term(rdf::Term t);
  [[nodiscard]] static ExprPtr unary(ExprKind k, ExprPtr a);
  [[nodiscard]] static ExprPtr binary(ExprKind k, ExprPtr a, ExprPtr b);
  [[nodiscard]] static ExprPtr regex(ExprPtr text, ExprPtr pattern,
                                     ExprPtr flags = nullptr);
  [[nodiscard]] static ExprPtr bound(std::string name);

  /// SPARQL surface form, e.g. `regex(?name, "Smith")`.
  [[nodiscard]] std::string to_string() const;

  /// Serialized size for the network cost model (filters ship with
  /// sub-queries).
  [[nodiscard]] std::size_t byte_size() const noexcept;
};

/// Result of evaluating an expression: an RDF term, or "error".
using ExprValue = std::optional<rdf::Term>;

/// Evaluate `e` under `binding`. std::nullopt encodes the SPARQL error value.
[[nodiscard]] ExprValue evaluate(const Expr& e, const Binding& binding);

/// Effective boolean value of evaluating `e`; errors map to false (which is
/// exactly the FILTER semantics).
[[nodiscard]] bool satisfies(const Expr& e, const Binding& binding);

/// All variables mentioned by the expression (drives filter pushing: a
/// filter may move below a join only if the operand binds all of these).
void collect_variables(const Expr& e, std::set<std::string>& out);
[[nodiscard]] std::set<std::string> variables_of(const Expr& e);

}  // namespace ahsw::sparql
