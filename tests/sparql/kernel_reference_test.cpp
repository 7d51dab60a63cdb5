// The dictionary-id set kernels against the row-at-a-time reference in
// tests/support/: random operand sets over a small shared term pool, and
// every kernel must return the reference's rows in the reference's exact
// order. Distributed rows, plan notes and traffic all depend on that order;
// the system-level pin is tests/dqp/golden_digest_test.cpp.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "sparql/eval.hpp"
#include "support/row_reference.hpp"

namespace ahsw::sparql {
namespace {

using rdf::Term;

Term pool_term(common::Rng& rng) {
  switch (rng.below(4)) {
    case 0: return Term::iri("http://t/" + std::to_string(rng.below(8)));
    case 1: return Term::literal("v" + std::to_string(rng.below(8)));
    case 2: return Term::integer(static_cast<long long>(rng.below(8)));
    default: return Term::lang_literal("w" + std::to_string(rng.below(4)),
                                       "en");
  }
}

/// Random set over a small shared var/term pool so joins hit, OPTIONAL
/// rows sometimes miss shared vars, and duplicates occur.
SolutionSet random_set(common::Rng& rng) {
  static const char* kVars[] = {"a", "b", "x", "y"};
  SolutionSet s;
  std::size_t rows = rng.below(12);
  for (std::size_t r = 0; r < rows; ++r) {
    Binding row;
    for (const char* v : kVars) {
      if (rng.chance(0.55)) row.set(v, pool_term(rng));
    }
    s.add(std::move(row));
  }
  return s;
}

TEST(KernelReference, JoinMatchesRowForRow) {
  common::Rng rng(101);
  for (int trial = 0; trial < 60; ++trial) {
    SolutionSet a = random_set(rng);
    SolutionSet b = random_set(rng);
    EXPECT_EQ(join(a, b).rows(), row_reference::join(a, b).rows())
        << "trial " << trial;
  }
}

TEST(KernelReference, MinusAndLeftJoinMatch) {
  common::Rng rng(102);
  for (int trial = 0; trial < 60; ++trial) {
    SolutionSet a = random_set(rng);
    SolutionSet b = random_set(rng);
    EXPECT_EQ(minus(a, b).rows(), row_reference::minus(a, b).rows())
        << "trial " << trial;
    EXPECT_EQ(left_join(a, b).rows(), row_reference::left_join(a, b).rows())
        << "trial " << trial;
  }
}

TEST(KernelReference, ConditionedLeftJoinMatches) {
  common::Rng rng(103);
  // ?x > 3 exercises the memoized condition path including type errors
  // (non-numeric terms evaluate to the SPARQL error value -> false).
  ExprPtr cond = Expr::binary(ExprKind::kGt, Expr::variable("x"),
                              Expr::constant_term(Term::integer(3)));
  for (int trial = 0; trial < 60; ++trial) {
    SolutionSet a = random_set(rng);
    SolutionSet b = random_set(rng);
    EXPECT_EQ(left_join_conditioned(a, b, cond).rows(),
              row_reference::left_join_conditioned(a, b, cond).rows())
        << "trial " << trial;
    EXPECT_EQ(left_join_conditioned(a, b, nullptr).rows(),
              row_reference::left_join_conditioned(a, b, nullptr).rows())
        << "trial " << trial;
  }
}

TEST(KernelReference, FilterAndDistinctMatch) {
  common::Rng rng(104);
  ExprPtr bound_y = Expr::bound("y");
  ExprPtr cond = Expr::binary(ExprKind::kOr, bound_y,
                              Expr::binary(ExprKind::kEq, Expr::variable("a"),
                                           Expr::variable("b")));
  for (int trial = 0; trial < 60; ++trial) {
    SolutionSet s = random_set(rng);
    EXPECT_EQ(filter_set(s, *cond).rows(),
              row_reference::filter_set(s, *cond).rows())
        << "trial " << trial;
    EXPECT_EQ(deduplicated(s).rows(), row_reference::deduplicated(s).rows())
        << "trial " << trial;
  }
}

TEST(KernelReference, EmptyAndEmptyBindingEdgeCases) {
  SolutionSet empty;
  SolutionSet one_empty_row;
  one_empty_row.add(Binding{});
  for (const SolutionSet* a : {&empty, &one_empty_row}) {
    for (const SolutionSet* b : {&empty, &one_empty_row}) {
      EXPECT_EQ(join(*a, *b).rows(), row_reference::join(*a, *b).rows());
      EXPECT_EQ(left_join(*a, *b).rows(),
                row_reference::left_join(*a, *b).rows());
      EXPECT_EQ(minus(*a, *b).rows(), row_reference::minus(*a, *b).rows());
    }
    EXPECT_EQ(deduplicated(*a).rows(), row_reference::deduplicated(*a).rows());
  }
}

}  // namespace
}  // namespace ahsw::sparql
