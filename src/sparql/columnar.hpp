// Dictionary-id implementations of the SPARQL set algebra: the one kernel
// set behind join, minus, left_join, left_join_conditioned, filter_set and
// deduplicated (those names forward here).
//
// Each kernel interns every distinct term of its operand sets into a
// per-operation rdf::TermDictionary — ids assigned in Term `operator<=>`
// order, so id order == term order — and runs the algebra over columnar
// TermId batches. Strings are touched exactly twice per operation: once to
// intern each distinct term and once to materialize the surviving rows.
//
// Row-order contract: join emits, per left row in order, the compatible
// right rows in their input order (fully keyed matches before rows that
// leave a shared variable unbound); minus and filter keep input order; an
// unconditioned left join appends the unmatched left rows after the join
// part, a conditioned one emits each left row's extensions (or the row
// alone) in place; distinct is the canonical sort with duplicates removed.
// Rows, plan notes and traffic of every distributed query depend on this
// order, so the golden digests pin it, and
// tests/sparql/kernel_reference_test.cpp checks it row for row against the
// row-at-a-time reference in tests/support/.
#pragma once

#include "sparql/expr.hpp"
#include "sparql/solution.hpp"

namespace ahsw::sparql {

/// Join: O1 x O2.
[[nodiscard]] SolutionSet vec_join(const SolutionSet& a, const SolutionSet& b);

/// Minus: O1 - O2.
[[nodiscard]] SolutionSet vec_minus(const SolutionSet& a,
                                    const SolutionSet& b);

/// LeftJoin without condition: join part then unmatched rows.
[[nodiscard]] SolutionSet vec_left_join(const SolutionSet& a,
                                        const SolutionSet& b);

/// LeftJoin with OPTIONAL condition; `cond == nullptr` means `true`.
/// Condition evaluation is memoized on the tuple of dictionary ids
/// the expression's variables take in the merged row, so each distinct
/// id-tuple pays for one string-space evaluation.
[[nodiscard]] SolutionSet vec_left_join_conditioned(const SolutionSet& a,
                                                    const SolutionSet& b,
                                                    const ExprPtr& cond);

/// Filter with the same memoization as above.
[[nodiscard]] SolutionSet vec_filter_set(const SolutionSet& in, const Expr& e);

/// Distinct: canonical sort + unique via id comparisons only
/// (id order == term order by construction, so the result matches
/// normalize() + std::unique exactly).
[[nodiscard]] SolutionSet vec_deduplicated(const SolutionSet& in);

}  // namespace ahsw::sparql
