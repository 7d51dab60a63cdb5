// The dictionary-id set kernels against the row-at-a-time reference in
// tests/support/: random operand sets over a small shared term pool, and
// every kernel must return the reference's rows in the reference's exact
// order — through the SolutionSet entry points and on id rows over a
// dictionary whose id order is not term order. Distributed rows, plan
// notes and traffic all depend on that order; the system-level pin is
// tests/dqp/golden_digest_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sparql/columnar.hpp"
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
    EXPECT_EQ(vec_join(a, b).rows(), row_reference::join(a, b).rows())
        << "trial " << trial;
  }
}

TEST(KernelReference, LeftJoinMatches) {
  common::Rng rng(102);
  for (int trial = 0; trial < 60; ++trial) {
    SolutionSet a = random_set(rng);
    SolutionSet b = random_set(rng);
    EXPECT_EQ(vec_left_join(a, b).rows(), row_reference::left_join(a, b).rows())
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
    EXPECT_EQ(vec_left_join_conditioned(a, b, cond).rows(),
              row_reference::left_join_conditioned(a, b, cond).rows())
        << "trial " << trial;
    EXPECT_EQ(vec_left_join_conditioned(a, b, nullptr).rows(),
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
    EXPECT_EQ(vec_filter_set(s, *cond).rows(),
              row_reference::filter_set(s, *cond).rows())
        << "trial " << trial;
    EXPECT_EQ(vec_deduplicated(s).rows(), row_reference::deduplicated(s).rows())
        << "trial " << trial;
  }
}

TEST(KernelReference, EmptyAndEmptyBindingEdgeCases) {
  SolutionSet empty;
  SolutionSet one_empty_row;
  one_empty_row.add(Binding{});
  for (const SolutionSet* a : {&empty, &one_empty_row}) {
    for (const SolutionSet* b : {&empty, &one_empty_row}) {
      EXPECT_EQ(vec_join(*a, *b).rows(), row_reference::join(*a, *b).rows());
      EXPECT_EQ(vec_left_join(*a, *b).rows(),
                row_reference::left_join(*a, *b).rows());
    }
    EXPECT_EQ(vec_deduplicated(*a).rows(),
              row_reference::deduplicated(*a).rows());
  }
}

/// A dictionary holding the whole term pool in descending term order, so a
/// kernel that compared ids instead of terms would order rows backwards.
rdf::TermDictionary reversed_pool() {
  std::vector<Term> pool;
  for (int i = 0; i < 8; ++i) {
    pool.push_back(Term::iri("http://t/" + std::to_string(i)));
    pool.push_back(Term::literal("v" + std::to_string(i)));
    pool.push_back(Term::integer(i));
    if (i < 4) {
      pool.push_back(Term::lang_literal("w" + std::to_string(i), "en"));
    }
  }
  std::sort(pool.begin(), pool.end());
  rdf::TermDictionary dict;
  for (auto it = pool.rbegin(); it != pool.rend(); ++it) dict.intern(*it);
  dict.refresh_order();
  return dict;
}

/// `got` materializes to `want` row for row and keeps the schema invariant
/// (the variables bound in at least one row).
void expect_rows(const IdRows& got, const SolutionSet& want,
                 const std::string& where) {
  const SolutionSet rows = got.materialize();
  EXPECT_EQ(rows.rows(), want.rows()) << where;
  EXPECT_EQ(got.vars, variables_of(rows)) << where;
  EXPECT_EQ(got.cells.size(), got.rows * got.vars.size()) << where;
}

/// Random set whose rows bind only `vars` (with unbound cells).
SolutionSet random_set_over(common::Rng& rng,
                            const std::vector<const char*>& vars) {
  SolutionSet s;
  const std::size_t rows = rng.below(10);
  for (std::size_t r = 0; r < rows; ++r) {
    Binding row;
    for (const char* v : vars) {
      if (rng.chance(0.6)) row.set(v, pool_term(rng));
    }
    s.add(std::move(row));
  }
  return s;
}

TEST(KernelReference, IdKernelsMatchOnReversedDictionary) {
  common::Rng rng(105);
  rdf::TermDictionary dict = reversed_pool();
  const std::size_t pool = dict.size();
  ExprPtr cond = Expr::binary(ExprKind::kGt, Expr::variable("x"),
                              Expr::constant_term(Term::integer(3)));
  ExprPtr filter = Expr::binary(
      ExprKind::kOr, Expr::bound("y"),
      Expr::binary(ExprKind::kEq, Expr::variable("a"), Expr::variable("b")));
  for (int trial = 0; trial < 80; ++trial) {
    const std::string where = "trial " + std::to_string(trial);
    // Every third trial pairs disjoint schemas: a cross product.
    const SolutionSet a = trial % 3 == 0 ? random_set_over(rng, {"a", "b"})
                                         : random_set(rng);
    const SolutionSet b = trial % 3 == 0 ? random_set_over(rng, {"x", "y"})
                                         : random_set(rng);
    const IdRows ia = intern_rows(a, dict);
    const IdRows ib = intern_rows(b, dict);
    expect_rows(join(ia, ib), row_reference::join(a, b), "join " + where);
    expect_rows(left_join(ia, ib), row_reference::left_join(a, b),
                "left join " + where);
    expect_rows(left_join_conditioned(ia, ib, cond),
                row_reference::left_join_conditioned(a, b, cond),
                "conditioned left join " + where);
    expect_rows(left_join_conditioned(ia, ib, nullptr),
                row_reference::left_join(a, b), "unconditioned " + where);
    expect_rows(filter_set(ia, *filter), row_reference::filter_set(a, *filter),
                "filter " + where);
    expect_rows(deduplicated(ia), row_reference::deduplicated(a),
                "distinct " + where);
    expect_rows(set_union(ia, ib), set_union(a, b), "union " + where);
  }
  EXPECT_EQ(dict.size(), pool);  // every term came from the pool

  // A join and a left join on a two-column key with thousands of distinct
  // id tuples, so the join's id-tuple index grows and probes. Keys repeat
  // on the right after 61 * 41 rows (groups chain rows in order), and some
  // rows leave a key column unbound (checked pairwise).
  auto keyed = [](int rows, int stride, int period, const char* payload) {
    SolutionSet s;
    for (int r = 0; r < rows; ++r) {
      const int k = r * stride;
      Binding row;
      if (k % 13 != 0) {
        row.set("k1", Term::iri("http://k/" + std::to_string(k % 61)));
      }
      if (k % 17 != 0) {
        row.set("k2", Term::literal("k" + std::to_string(k % period)));
      }
      row.set(payload, Term::integer(r));
      s.add(std::move(row));
    }
    return s;
  };
  const SolutionSet ka = keyed(1500, 1, 53, "a");
  const SolutionSet kb = keyed(2700, 7, 41, "b");
  const IdRows ika = intern_rows(ka, dict);
  const IdRows ikb = intern_rows(kb, dict);
  expect_rows(join(ika, ikb), row_reference::join(ka, kb), "keyed join");
  expect_rows(left_join(ika, ikb), row_reference::left_join(ka, kb),
              "keyed left join");
}

TEST(KernelReference, IdKernelsOnZeroVariableRows) {
  rdf::TermDictionary dict;
  SolutionSet empty;
  SolutionSet one_empty_row;
  one_empty_row.add(Binding{});
  SolutionSet two_empty_rows = one_empty_row;
  two_empty_rows.add(Binding{});
  SolutionSet bound;
  Binding row;
  row.set("x", Term::iri("http://t/1"));
  bound.add(row);
  bound.add(Binding{});
  const ExprPtr never = Expr::bound("x");
  for (const SolutionSet* a :
       {&empty, &one_empty_row, &two_empty_rows, &bound}) {
    for (const SolutionSet* b :
         {&empty, &one_empty_row, &two_empty_rows, &bound}) {
      const IdRows ia = intern_rows(*a, dict);
      const IdRows ib = intern_rows(*b, dict);
      const std::string where = a->to_string() + " , " + b->to_string();
      expect_rows(join(ia, ib), row_reference::join(*a, *b), where);
      expect_rows(left_join(ia, ib), row_reference::left_join(*a, *b), where);
      expect_rows(left_join_conditioned(ia, ib, never),
                  row_reference::left_join_conditioned(*a, *b, never), where);
      expect_rows(set_union(ia, ib), set_union(*a, *b), where);
    }
    const IdRows ia = intern_rows(*a, dict);
    expect_rows(deduplicated(ia), row_reference::deduplicated(*a),
                a->to_string());
    expect_rows(filter_set(ia, *never), row_reference::filter_set(*a, *never),
                a->to_string());
  }
}

TEST(KernelReference, DistinctRanksTermsNotIds) {
  // Interned z..a, so ids run against term order; distinct must still
  // return Binding's canonical order.
  rdf::TermDictionary dict;
  SolutionSet s;
  for (const char* v : {"z", "m", "a", "m", "q", "a"}) {
    Binding row;
    row.set("x", Term::literal(v));
    if (v[0] != 'q') row.set("y", Term::iri(std::string("http://t/") + v));
    s.add(std::move(row));
  }
  for (const char* v : {"z", "q", "m", "a"}) {
    (void)dict.intern(Term::iri(std::string("http://t/") + v));
    (void)dict.intern(Term::literal(v));
  }
  const IdRows ids = intern_rows(s, dict);
  const SolutionSet want = row_reference::deduplicated(s);
  ASSERT_EQ(want.size(), 4u);
  expect_rows(deduplicated(ids), want, "distinct");
}

TEST(KernelReference, ProjectAndRowsAtKeepTheSchemaInvariant) {
  common::Rng rng(106);
  rdf::TermDictionary dict;
  for (int trial = 0; trial < 40; ++trial) {
    const SolutionSet s = random_set(rng);
    const IdRows ids = intern_rows(s, dict);
    SolutionSet projected;
    for (const Binding& b : s.rows()) {
      projected.add(row_reference::projected(b, {"y", "a"}));
    }
    expect_rows(project(ids, {"y", "a", "absent"}), projected, "project");
    std::vector<std::size_t> picks;
    SolutionSet picked;
    for (std::size_t r = s.size(); r-- > 0;) {
      if (rng.chance(0.4)) {
        picks.push_back(r);
        picked.add(s.rows()[r]);
      }
    }
    expect_rows(rows_at(ids, picks), picked, "rows_at");
  }
}

}  // namespace
}  // namespace ahsw::sparql
