// Query Transformation tests: the paper gives the exact algebra expression
// for each of its example queries (Sect. IV-C..IV-G); these tests check we
// produce the same shapes.
#include <gtest/gtest.h>

#include "sparql/algebra.hpp"

namespace ahsw::sparql {
namespace {

constexpr std::string_view kPrologue =
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
    "PREFIX ns: <http://example.org/ns#>\n";

AlgebraPtr pattern_of(const std::string& q) {
  return translate_pattern(parse_query(q).where);
}

TEST(Translate, Fig5PrimitiveBecomesSingletonBgp) {
  AlgebraPtr a = pattern_of(std::string(kPrologue) +
                            "SELECT ?x WHERE { ?x foaf:knows ns:me . }");
  EXPECT_EQ(a->to_string(),
            "BGP(?x <http://xmlns.com/foaf/0.1/knows> "
            "<http://example.org/ns#me>)");
}

TEST(Translate, Fig6ConjunctionFusesIntoOneBgp) {
  // BGP(P1 . P2), not Join(BGP(P1), BGP(P2)).
  AlgebraPtr a = pattern_of(std::string(kPrologue) + R"(
      SELECT ?x ?y ?z WHERE {
        ?x foaf:knows ?z .
        ?x ns:knowsNothingAbout ?y .
      })");
  EXPECT_EQ(a->kind, AlgebraKind::kBgp);
  EXPECT_EQ(a->bgp.size(), 2u);
  EXPECT_EQ(a->to_string(),
            "BGP(?x <http://xmlns.com/foaf/0.1/knows> ?z . "
            "?x <http://example.org/ns#knowsNothingAbout> ?y)");
}

TEST(Translate, Fig7OptionalBecomesLeftJoinTrue) {
  AlgebraPtr a = pattern_of(std::string(kPrologue) + R"(
      SELECT ?x ?y WHERE {
        { ?x foaf:name "Smith" .
          ?x foaf:knows ?y . }
        OPTIONAL { ?y foaf:nick "Shrek" . }
      })");
  ASSERT_EQ(a->kind, AlgebraKind::kLeftJoin);
  EXPECT_EQ(a->expr, nullptr);  // prints as `true`
  EXPECT_EQ(a->left->kind, AlgebraKind::kBgp);
  EXPECT_EQ(a->left->bgp.size(), 2u);
  EXPECT_EQ(a->right->kind, AlgebraKind::kBgp);
  EXPECT_EQ(a->right->bgp.size(), 1u);
  EXPECT_EQ(a->to_string(),
            "LeftJoin("
            "BGP(?x <http://xmlns.com/foaf/0.1/name> \"Smith\" . "
            "?x <http://xmlns.com/foaf/0.1/knows> ?y), "
            "BGP(?y <http://xmlns.com/foaf/0.1/nick> \"Shrek\"), true)");
}

TEST(Translate, Fig8UnionOfTwoBgps) {
  AlgebraPtr a = pattern_of(std::string(kPrologue) + R"(
      SELECT ?x ?y ?z WHERE {
        { ?x foaf:name "Smith" .
          ?x foaf:knows ?y . }
        UNION
        { ?x foaf:mbox <mailto:abc@example.org> .
          ?x foaf:knows ?z . }
      })");
  ASSERT_EQ(a->kind, AlgebraKind::kUnion);
  EXPECT_EQ(a->left->kind, AlgebraKind::kBgp);
  EXPECT_EQ(a->right->kind, AlgebraKind::kBgp);
}

TEST(Translate, Fig9FilterOverLeftJoin) {
  // Filter(C1, LeftJoin(BGP(P1 . P2), BGP(P3), true)).
  AlgebraPtr a = pattern_of(std::string(kPrologue) + R"(
      SELECT ?x ?y ?z WHERE {
        ?x foaf:name ?name ;
           ns:knowsNothingAbout ?y .
        FILTER regex(?name, "Smith")
        OPTIONAL { ?y foaf:knows ?z . }
      })");
  ASSERT_EQ(a->kind, AlgebraKind::kFilter);
  EXPECT_EQ(a->expr->to_string(), "regex(?name, \"Smith\")");
  ASSERT_EQ(a->left->kind, AlgebraKind::kLeftJoin);
  EXPECT_EQ(a->left->left->kind, AlgebraKind::kBgp);
  EXPECT_EQ(a->left->left->bgp.size(), 2u);
  EXPECT_EQ(a->left->right->bgp.size(), 1u);
}

TEST(Translate, FilterInsideOptionalBecomesLeftJoinCondition) {
  // W3C rule: OPTIONAL { P FILTER F } -> LeftJoin(G, P, F).
  AlgebraPtr a = pattern_of(std::string(kPrologue) + R"(
      SELECT ?x WHERE {
        ?x foaf:knows ?y .
        OPTIONAL { ?y foaf:nick ?n . FILTER regex(?n, "ogre") }
      })");
  ASSERT_EQ(a->kind, AlgebraKind::kLeftJoin);
  ASSERT_NE(a->expr, nullptr);
  EXPECT_EQ(a->expr->to_string(), "regex(?n, \"ogre\")");
  EXPECT_EQ(a->right->kind, AlgebraKind::kBgp);
}

TEST(Translate, TwoOptionalsNestLeftAssociative) {
  AlgebraPtr a = pattern_of(std::string(kPrologue) + R"(
      SELECT ?x WHERE {
        ?x foaf:knows ?y .
        OPTIONAL { ?y foaf:nick ?n . }
        OPTIONAL { ?y foaf:mbox ?m . }
      })");
  // (P1 OPT P2) OPT P3.
  ASSERT_EQ(a->kind, AlgebraKind::kLeftJoin);
  ASSERT_EQ(a->left->kind, AlgebraKind::kLeftJoin);
  EXPECT_EQ(a->left->left->kind, AlgebraKind::kBgp);
}

TEST(Translate, UnionThenTripleJoins) {
  AlgebraPtr a = pattern_of(R"(
      SELECT ?x WHERE {
        { ?x <http://a> ?y . } UNION { ?x <http://b> ?y . }
        ?x <http://c> ?z .
      })");
  ASSERT_EQ(a->kind, AlgebraKind::kJoin);
  EXPECT_EQ(a->left->kind, AlgebraKind::kUnion);
  EXPECT_EQ(a->right->kind, AlgebraKind::kBgp);
}

TEST(Translate, MultipleFiltersConjoin) {
  AlgebraPtr a = pattern_of(R"(
      SELECT ?x WHERE {
        ?x <http://age> ?a .
        FILTER(?a > 10)
        FILTER(?a < 20)
      })");
  ASSERT_EQ(a->kind, AlgebraKind::kFilter);
  EXPECT_EQ(a->expr->kind, ExprKind::kAnd);
  EXPECT_EQ(a->left->kind, AlgebraKind::kBgp);
}

TEST(Algebra, CertainVariablesBgpAndJoin) {
  AlgebraPtr a = pattern_of(R"(
      SELECT ?x WHERE { ?x <http://p> ?y . ?y <http://q> ?z . })");
  EXPECT_EQ(a->certain_variables(),
            (std::set<std::string>{"x", "y", "z"}));
}

TEST(Algebra, CertainVariablesExcludeOptionalSide) {
  AlgebraPtr a = pattern_of(R"(
      SELECT ?x WHERE {
        ?x <http://p> ?y .
        OPTIONAL { ?y <http://q> ?z . }
      })");
  EXPECT_EQ(a->certain_variables(), (std::set<std::string>{"x", "y"}));
}

TEST(Algebra, CertainVariablesUnionIsIntersection) {
  AlgebraPtr a = pattern_of(R"(
      SELECT ?x WHERE {
        { ?x <http://a> ?y . } UNION { ?x <http://b> ?z . }
      })");
  EXPECT_EQ(a->certain_variables(), (std::set<std::string>{"x"}));
}

TEST(Algebra, EmptyGroupIsEmptyBgp) {
  AlgebraPtr a = pattern_of("SELECT * WHERE { }");
  EXPECT_EQ(a->kind, AlgebraKind::kBgp);
  EXPECT_TRUE(a->bgp.empty());
  EXPECT_EQ(a->to_string(), "BGP()");
}

}  // namespace
}  // namespace ahsw::sparql
