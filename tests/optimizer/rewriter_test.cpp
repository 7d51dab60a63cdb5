// Filter-pushing rewrites: the Fig. 9 example plus semantic-equivalence
// property checks on randomized data.
#include "optimizer/rewriter.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "rdf/store.hpp"
#include "sparql/eval.hpp"

namespace ahsw::optimizer {
namespace {

using sparql::Algebra;
using sparql::AlgebraKind;
using sparql::AlgebraPtr;
using sparql::Expr;
using sparql::ExprKind;
using sparql::ExprPtr;

constexpr std::string_view kPrologue =
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
    "PREFIX ns: <http://example.org/ns#>\n";

AlgebraPtr pattern_of(const std::string& q) {
  return sparql::translate_pattern(sparql::parse_query(q).where);
}

TEST(SplitConjuncts, FlattensAndChains) {
  ExprPtr a = Expr::variable("a");
  ExprPtr b = Expr::variable("b");
  ExprPtr c = Expr::variable("c");
  ExprPtr e = Expr::binary(ExprKind::kAnd, Expr::binary(ExprKind::kAnd, a, b),
                           c);
  std::vector<ExprPtr> parts = split_conjuncts(e);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0]->var, "a");
  EXPECT_EQ(parts[2]->var, "c");
}

TEST(SplitConjuncts, NonAndIsSingleton) {
  ExprPtr e = Expr::binary(ExprKind::kOr, Expr::variable("a"),
                           Expr::variable("b"));
  EXPECT_EQ(split_conjuncts(e).size(), 1u);
  EXPECT_TRUE(split_conjuncts(nullptr).empty());
}

TEST(CombineConjuncts, InvertsSplit) {
  ExprPtr a = Expr::variable("a");
  ExprPtr b = Expr::variable("b");
  ExprPtr combined = combine_conjuncts({a, b});
  ASSERT_NE(combined, nullptr);
  EXPECT_EQ(combined->kind, ExprKind::kAnd);
  EXPECT_EQ(combine_conjuncts({}), nullptr);
  EXPECT_EQ(combine_conjuncts({a}), a);
}

TEST(PushFilters, Fig9RewritePushesIntoP1) {
  // Filter(C1, LeftJoin(BGP(P1 . P2), BGP(P3), true))
  //   -> LeftJoin(BGP(Filter(C1, P1) . P2), BGP(P3), true).
  AlgebraPtr a = pattern_of(std::string(kPrologue) + R"(
      SELECT ?x ?y ?z WHERE {
        ?x foaf:name ?name ;
           ns:knowsNothingAbout ?y .
        FILTER regex(?name, "Smith")
        OPTIONAL { ?y foaf:knows ?z . }
      })");
  ASSERT_EQ(a->kind, AlgebraKind::kFilter);

  AlgebraPtr pushed = push_filters(a);
  ASSERT_EQ(pushed->kind, AlgebraKind::kLeftJoin);
  ASSERT_EQ(pushed->left->kind, AlgebraKind::kBgp);
  ASSERT_EQ(pushed->left->bgp.size(), 2u);
  // C1 sits on the name pattern (P1), not on P2.
  ASSERT_NE(pushed->left->bgp[0].pushed_filter, nullptr);
  EXPECT_EQ(pushed->left->bgp[0].pushed_filter->to_string(),
            "regex(?name, \"Smith\")");
  EXPECT_EQ(pushed->left->bgp[1].pushed_filter, nullptr);
  EXPECT_EQ(pushed->to_string(),
            "LeftJoin(BGP(Filter(regex(?name, \"Smith\"), "
            "?x <http://xmlns.com/foaf/0.1/name> ?name) . "
            "?x <http://example.org/ns#knowsNothingAbout> ?y), "
            "BGP(?y <http://xmlns.com/foaf/0.1/knows> ?z), true)");
}

TEST(PushFilters, MultiPatternConditionStaysAboveBgp) {
  AlgebraPtr a = pattern_of(R"(
      SELECT ?x WHERE {
        ?x <http://age> ?a .
        ?x <http://height> ?h .
        FILTER(?a > ?h)
      })");
  AlgebraPtr pushed = push_filters(a);
  // ?a > ?h spans two patterns: remains a Filter over the BGP.
  ASSERT_EQ(pushed->kind, AlgebraKind::kFilter);
  EXPECT_EQ(pushed->left->kind, AlgebraKind::kBgp);
  for (const sparql::BgpPattern& p : pushed->left->bgp) {
    EXPECT_EQ(p.pushed_filter, nullptr);
  }
}

TEST(PushFilters, ConjunctionSplitsAcrossPatterns) {
  AlgebraPtr a = pattern_of(R"(
      SELECT ?x WHERE {
        ?x <http://age> ?a .
        ?x <http://name> ?n .
        FILTER(?a > 18 && regex(?n, "Sm"))
      })");
  AlgebraPtr pushed = push_filters(a);
  ASSERT_EQ(pushed->kind, AlgebraKind::kBgp);
  ASSERT_NE(pushed->bgp[0].pushed_filter, nullptr);
  ASSERT_NE(pushed->bgp[1].pushed_filter, nullptr);
}

TEST(PushFilters, DoesNotPushIntoOptionalSide) {
  AlgebraPtr a = pattern_of(R"(
      SELECT ?x WHERE {
        ?x <http://p> ?y .
        OPTIONAL { ?y <http://q> ?z . }
        FILTER(bound(?z))
      })");
  AlgebraPtr pushed = push_filters(a);
  // bound(?z) references the optional variable: must stay above LeftJoin.
  ASSERT_EQ(pushed->kind, AlgebraKind::kFilter);
  EXPECT_EQ(pushed->left->kind, AlgebraKind::kLeftJoin);
}

TEST(PushFilters, DistributesOverUnion) {
  AlgebraPtr a = pattern_of(R"(
      SELECT ?x WHERE {
        { ?x <http://a> ?v . } UNION { ?x <http://b> ?v . }
        FILTER(?v > 3)
      })");
  AlgebraPtr pushed = push_filters(a);
  ASSERT_EQ(pushed->kind, AlgebraKind::kUnion);
  ASSERT_NE(pushed->left->bgp[0].pushed_filter, nullptr);
  ASSERT_NE(pushed->right->bgp[0].pushed_filter, nullptr);
}

TEST(PushFilters, IdempotentOnFilterFreePlans) {
  AlgebraPtr a = pattern_of("SELECT ?x WHERE { ?x <http://p> ?y . }");
  AlgebraPtr pushed = push_filters(a);
  EXPECT_EQ(pushed->to_string(), a->to_string());
}

// --- semantic equivalence on randomized data --------------------------------

rdf::TripleStore random_store(std::uint64_t seed) {
  common::Rng rng(seed);
  rdf::TripleStore store;
  for (int i = 0; i < 150; ++i) {
    store.insert({rdf::Term::iri("http://n" + std::to_string(rng.below(12))),
                  rdf::Term::iri("http://" + std::string(1, static_cast<char>(
                                                                'p' + rng.below(3)))),
                  rng.chance(0.5)
                      ? rdf::Term::integer(static_cast<long long>(rng.below(40)))
                      : rdf::Term::iri("http://n" + std::to_string(rng.below(12)))});
  }
  return store;
}

class FilterPushEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(FilterPushEquivalence, PushedPlanGivesSameSolutions) {
  std::string query = GetParam();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    rdf::TripleStore store = random_store(seed);
    sparql::LocalEngine engine(store);
    AlgebraPtr plain = pattern_of(query);
    AlgebraPtr pushed = push_filters(plain);
    sparql::SolutionSet a = sparql::vec_deduplicated(engine.evaluate(*plain));
    sparql::SolutionSet b = sparql::vec_deduplicated(engine.evaluate(*pushed));
    EXPECT_EQ(a.rows(), b.rows()) << "seed " << seed << "\nplain:  "
                                  << plain->to_string() << "\npushed: "
                                  << pushed->to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, FilterPushEquivalence,
    ::testing::Values(
        // single-pattern filter
        "SELECT ?x WHERE { ?x <http://p> ?v . FILTER(?v > 10) }",
        // conjunctive filter across two patterns
        "SELECT ?x WHERE { ?x <http://p> ?v . ?x <http://q> ?w . "
        "FILTER(?v > 5 && ?w > 5) }",
        // cross-pattern comparison (cannot push into one pattern)
        "SELECT ?x WHERE { ?x <http://p> ?v . ?x <http://q> ?w . "
        "FILTER(?v < ?w) }",
        // filter over a union
        "SELECT ?x WHERE { { ?x <http://p> ?v . } UNION { ?x <http://q> ?v . "
        "} FILTER(?v >= 20) }",
        // filter above an optional, on the mandatory side
        "SELECT ?x WHERE { ?x <http://p> ?v . OPTIONAL { ?v <http://q> ?w . "
        "} FILTER(isIRI(?v)) }",
        // filter referencing the optional side
        "SELECT ?x WHERE { ?x <http://p> ?v . OPTIONAL { ?v <http://q> ?w . "
        "} FILTER(bound(?w)) }",
        // filter with negation
        "SELECT ?x WHERE { ?x <http://p> ?v . FILTER(!(?v = 7)) }"));

}  // namespace
}  // namespace ahsw::optimizer
