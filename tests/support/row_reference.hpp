// Row-at-a-time reference implementations of the SPARQL set operators and
// of query finalization (modifiers and result forms).
//
// Every hash-join key concatenates `Term::to_string()` values and every
// compatibility check compares full terms. That is slow and obviously
// correct, which makes these the oracle for the dictionary-id kernels of
// sparql/columnar.hpp (tests/sparql/kernel_reference_test.cpp): each kernel
// must return the same rows in the same order. Test-only; nothing under
// src/ includes this.
#pragma once

#include "sparql/eval.hpp"
#include "sparql/expr.hpp"
#include "sparql/solution.hpp"

namespace ahsw::sparql::row_reference {

/// `b` with only the named variables kept (SPARQL projection).
[[nodiscard]] Binding projected(const Binding& b,
                                const std::vector<std::string>& vars);

/// O1 x O2 (hash join on the shared variables).
[[nodiscard]] SolutionSet join(const SolutionSet& a, const SolutionSet& b);

/// O1 - O2 (per Perez et al.: drop u1 compatible with any u2).
[[nodiscard]] SolutionSet minus(const SolutionSet& a, const SolutionSet& b);

/// Left outer join without a condition: (O1 x O2) u (O1 - O2).
[[nodiscard]] SolutionSet left_join(const SolutionSet& a,
                                    const SolutionSet& b);

/// LeftJoin with an optional condition (cond == nullptr means `true`).
[[nodiscard]] SolutionSet left_join_conditioned(const SolutionSet& a,
                                                const SolutionSet& b,
                                                const ExprPtr& cond);

/// Rows of `in` satisfying `e`.
[[nodiscard]] SolutionSet filter_set(const SolutionSet& in, const Expr& e);

/// Canonically sorted with duplicates removed.
[[nodiscard]] SolutionSet deduplicated(SolutionSet in);

/// The answer to `q` from its raw result, in Bindings: sort (canonical or
/// ORDER BY) the whole input, then project, DISTINCT/REDUCED and slice.
/// The oracle for sparql::finalize_result, which does this in ids.
[[nodiscard]] QueryResult finalize_result(const Query& q, SolutionSet raw,
                                          const rdf::TripleStore* store);

}  // namespace ahsw::sparql::row_reference
