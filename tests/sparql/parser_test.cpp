// Parser tests, built around the paper's own example queries (Figs. 4-9).
#include <gtest/gtest.h>

#include "dqp/physical_plan.hpp"
#include "optimizer/rewriter.hpp"
#include "sparql/ast.hpp"
#include "sparql/lexer.hpp"

namespace ahsw::sparql {
namespace {

constexpr std::string_view kPrologue =
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
    "PREFIX ns: <http://example.org/ns#>\n";

// Fig. 4 of the paper (ORDER BY moved after the group, per the SPARQL
// grammar; the paper's listing places it inside the braces).
const std::string kFig4 = std::string(kPrologue) + R"(
SELECT ?x ?y ?z
FROM <http://example.org/foaf/xyzFoaf>
WHERE {
  ?x foaf:name ?name .
  ?x foaf:knows ?z .
  ?x ns:knowsNothingAbout ?y .
  ?y foaf:knows ?z .
  FILTER regex(?name, "Smith")
}
ORDER BY DESC(?x)
)";

TEST(Parser, Fig4FullQuery) {
  Query q = parse_query(kFig4);
  EXPECT_EQ(q.form, QueryForm::kSelect);
  EXPECT_EQ(q.select_vars, (std::vector<std::string>{"x", "y", "z"}));
  ASSERT_EQ(q.from.size(), 1u);
  EXPECT_EQ(q.from[0], "http://example.org/foaf/xyzFoaf");
  ASSERT_EQ(q.order_by.size(), 1u);
  EXPECT_FALSE(q.order_by[0].ascending);
  // 4 triple patterns + 1 filter.
  EXPECT_EQ(q.where.elements.size(), 5u);
  int triples = 0, filters = 0;
  for (const GroupElement& el : q.where.elements) {
    triples += el.kind == GroupElement::Kind::kTriple ? 1 : 0;
    filters += el.kind == GroupElement::Kind::kFilter ? 1 : 0;
  }
  EXPECT_EQ(triples, 4);
  EXPECT_EQ(filters, 1);
}

TEST(Parser, Fig4PrefixesExpand) {
  Query q = parse_query(kFig4);
  const GroupElement& first = q.where.elements[0];
  ASSERT_EQ(first.kind, GroupElement::Kind::kTriple);
  const rdf::Term* p = first.triple.bound_p();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->lexical(), "http://xmlns.com/foaf/0.1/name");
}

TEST(Parser, Fig5PrimitiveQuery) {
  Query q = parse_query(std::string(kPrologue) +
                        "SELECT ?x WHERE { ?x foaf:knows ns:me . }");
  ASSERT_EQ(q.where.elements.size(), 1u);
  const rdf::TriplePattern& p = q.where.elements[0].triple;
  EXPECT_NE(rdf::var_of(p.s), nullptr);
  EXPECT_EQ(p.bound_p()->lexical(), "http://xmlns.com/foaf/0.1/knows");
  EXPECT_EQ(p.bound_o()->lexical(), "http://example.org/ns#me");
}

TEST(Parser, Fig6ConjunctionQuery) {
  Query q = parse_query(std::string(kPrologue) + R"(
    SELECT ?x ?y ?z WHERE {
      ?x foaf:knows ?z .
      ?x ns:knowsNothingAbout ?y .
    })");
  EXPECT_EQ(q.where.elements.size(), 2u);
  EXPECT_EQ(q.where.elements[0].kind, GroupElement::Kind::kTriple);
  EXPECT_EQ(q.where.elements[1].kind, GroupElement::Kind::kTriple);
}

TEST(Parser, Fig7OptionalQuery) {
  Query q = parse_query(std::string(kPrologue) + R"(
    SELECT ?x ?y WHERE {
      { ?x foaf:name "Smith" .
        ?x foaf:knows ?y . }
      OPTIONAL { ?y foaf:nick "Shrek" . }
    })");
  ASSERT_EQ(q.where.elements.size(), 2u);
  EXPECT_EQ(q.where.elements[0].kind, GroupElement::Kind::kGroup);
  EXPECT_EQ(q.where.elements[1].kind, GroupElement::Kind::kOptional);
  EXPECT_EQ(q.where.elements[1].groups[0].elements.size(), 1u);
}

TEST(Parser, Fig8UnionQuery) {
  Query q = parse_query(std::string(kPrologue) + R"(
    SELECT ?x ?y ?z WHERE {
      { ?x foaf:mbox <mailto:abc@example.org> .
        ?x foaf:knows ?z . }
      UNION
      { ?x foaf:name "Smith" .
        ?x foaf:knows ?y . }
    })");
  ASSERT_EQ(q.where.elements.size(), 1u);
  EXPECT_EQ(q.where.elements[0].kind, GroupElement::Kind::kUnion);
  EXPECT_EQ(q.where.elements[0].groups.size(), 2u);
}

TEST(Parser, Fig9FilterWithOptional) {
  Query q = parse_query(std::string(kPrologue) + R"(
    SELECT ?x ?y ?z WHERE {
      ?x foaf:name ?name ;
         ns:knowsNothingAbout ?y .
      FILTER regex(?name, "Smith")
      OPTIONAL { ?y foaf:knows ?z . }
    })");
  ASSERT_EQ(q.where.elements.size(), 4u);
  EXPECT_EQ(q.where.elements[0].kind, GroupElement::Kind::kTriple);
  EXPECT_EQ(q.where.elements[1].kind, GroupElement::Kind::kTriple);
  EXPECT_EQ(q.where.elements[2].kind, GroupElement::Kind::kFilter);
  EXPECT_EQ(q.where.elements[3].kind, GroupElement::Kind::kOptional);
  // The semicolon shares the subject ?x.
  const rdf::Variable* s0 = rdf::var_of(q.where.elements[0].triple.s);
  const rdf::Variable* s1 = rdf::var_of(q.where.elements[1].triple.s);
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s0->name, s1->name);
}

TEST(Parser, ObjectListWithComma) {
  Query q = parse_query(std::string(kPrologue) +
                        "SELECT ?x WHERE { ?x foaf:knows ns:a, ns:b . }");
  ASSERT_EQ(q.where.elements.size(), 2u);
  EXPECT_EQ(q.where.elements[0].triple.bound_o()->lexical(),
            "http://example.org/ns#a");
  EXPECT_EQ(q.where.elements[1].triple.bound_o()->lexical(),
            "http://example.org/ns#b");
}

TEST(Parser, RdfTypeShortcutA) {
  Query q = parse_query(std::string(kPrologue) +
                        "SELECT ?x WHERE { ?x a foaf:Person . }");
  EXPECT_EQ(q.where.elements[0].triple.bound_p()->lexical(),
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
}

TEST(Parser, SelectStar) {
  Query q = parse_query("SELECT * WHERE { ?s ?p ?o . }");
  EXPECT_TRUE(q.select_all);
  EXPECT_EQ(q.pattern_variables(),
            (std::vector<std::string>{"o", "p", "s"}));
}

TEST(Parser, SelectDistinctAndModifiers) {
  Query q = parse_query(
      "SELECT DISTINCT ?s WHERE { ?s ?p ?o . } ORDER BY ?s LIMIT 10 OFFSET 5");
  EXPECT_TRUE(q.distinct);
  ASSERT_TRUE(q.limit.has_value());
  EXPECT_EQ(*q.limit, 10u);
  EXPECT_EQ(q.offset, 5u);
  ASSERT_EQ(q.order_by.size(), 1u);
  EXPECT_TRUE(q.order_by[0].ascending);
}

TEST(Parser, SelectReduced) {
  Query q = parse_query("SELECT REDUCED ?s WHERE { ?s ?p ?o . }");
  EXPECT_TRUE(q.reduced);
  EXPECT_FALSE(q.distinct);
}

TEST(Parser, AskQuery) {
  Query q = parse_query("ASK { ?s ?p ?o . }");
  EXPECT_EQ(q.form, QueryForm::kAsk);
  EXPECT_EQ(q.where.elements.size(), 1u);
}

TEST(Parser, ConstructQuery) {
  Query q = parse_query(std::string(kPrologue) + R"(
    CONSTRUCT { ?x foaf:knows ?y . }
    WHERE { ?y foaf:knows ?x . })");
  EXPECT_EQ(q.form, QueryForm::kConstruct);
  ASSERT_EQ(q.construct_template.size(), 1u);
}

TEST(Parser, DescribeWithIriAndVar) {
  Query q = parse_query(std::string(kPrologue) +
                        "DESCRIBE ns:me ?x WHERE { ?x foaf:knows ns:me . }");
  EXPECT_EQ(q.form, QueryForm::kDescribe);
  ASSERT_EQ(q.describe_targets.size(), 2u);
  EXPECT_NE(rdf::term_of(q.describe_targets[0]), nullptr);
  EXPECT_NE(rdf::var_of(q.describe_targets[1]), nullptr);
}

TEST(Parser, FromNamed) {
  Query q = parse_query(
      "SELECT ?s FROM <http://g1> FROM NAMED <http://g2> WHERE { ?s ?p ?o . "
      "}");
  ASSERT_EQ(q.from.size(), 1u);
  ASSERT_EQ(q.from_named.size(), 1u);
  EXPECT_EQ(q.from_named[0], "http://g2");
}

TEST(Parser, NumericAndBooleanObjects) {
  Query q = parse_query(
      "SELECT ?s WHERE { ?s <http://p> 42 . ?s <http://q> 3.5 . "
      "?s <http://r> true . }");
  EXPECT_EQ(*q.where.elements[0].triple.bound_o(), rdf::Term::integer(42));
  EXPECT_EQ(q.where.elements[1].triple.bound_o()->datatype(),
            rdf::xsd::kDouble);
  EXPECT_EQ(q.where.elements[2].triple.bound_o()->datatype(),
            rdf::xsd::kBoolean);
}

TEST(Parser, FilterComparisonAndLogic) {
  Query q = parse_query(
      "SELECT ?s WHERE { ?s <http://age> ?a . "
      "FILTER(?a >= 18 && (?a < 65 || bound(?a))) }");
  ASSERT_EQ(q.where.elements.size(), 2u);
  const ExprPtr& f = q.where.elements[1].filter;
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->kind, ExprKind::kAnd);
}

TEST(Parser, NestedOptionalAndUnion) {
  Query q = parse_query(std::string(kPrologue) + R"(
    SELECT ?x WHERE {
      ?x foaf:knows ?y .
      OPTIONAL {
        ?y foaf:nick ?n .
        OPTIONAL { ?y foaf:mbox ?m . }
      }
    })");
  const GroupElement& opt = q.where.elements[1];
  ASSERT_EQ(opt.kind, GroupElement::Kind::kOptional);
  EXPECT_EQ(opt.groups[0].elements[1].kind, GroupElement::Kind::kOptional);
}

TEST(Parser, ThreeWayUnion) {
  Query q = parse_query(R"(
    SELECT ?x WHERE {
      { ?x <http://a> ?y . } UNION { ?x <http://b> ?y . }
      UNION { ?x <http://c> ?y . }
    })");
  EXPECT_EQ(q.where.elements[0].groups.size(), 3u);
}

TEST(Parser, BlankNodeLabelsAreNonDistinguishedVariables) {
  // SPARQL 4.1.4: _:b in a pattern is a variable scoped to the query, not
  // a concrete blank node; the same label co-references.
  Query q = parse_query(std::string(kPrologue) +
                        "SELECT ?n WHERE { _:p foaf:name ?n . _:p foaf:age "
                        "?a . }");
  const rdf::Variable* s0 = rdf::var_of(q.where.elements[0].triple.s);
  const rdf::Variable* s1 = rdf::var_of(q.where.elements[1].triple.s);
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s0->name, s1->name);
  // Non-distinguished vars do not appear in SELECT * projections.
  EXPECT_EQ(q.pattern_variables(), (std::vector<std::string>{"a", "n"}));
}

TEST(Parser, UndeclaredPrefixThrows) {
  EXPECT_THROW((void)parse_query("SELECT ?x WHERE { ?x nope:p ?y . }"),
               QuerySyntaxError);
}

TEST(Parser, MissingBraceThrows) {
  EXPECT_THROW((void)parse_query("SELECT ?x WHERE { ?x ?p ?y ."),
               QuerySyntaxError);
}

TEST(Parser, MissingProjectionThrows) {
  EXPECT_THROW((void)parse_query("SELECT WHERE { ?x ?p ?y . }"),
               QuerySyntaxError);
}

TEST(Parser, LiteralSubjectThrows) {
  EXPECT_THROW((void)parse_query("SELECT ?x WHERE { \"lit\" ?p ?y . }"),
               QuerySyntaxError);
}

TEST(Parser, TrailingInputThrows) {
  EXPECT_THROW((void)parse_query("ASK { ?s ?p ?o . } garbage"),
               QuerySyntaxError);
}

std::string repeated(std::string_view unit, std::size_t n) {
  std::string out;
  out.reserve(unit.size() * n);
  for (std::size_t i = 0; i < n; ++i) out += unit;
  return out;
}

/// Parse `text`, expecting the nesting bound to reject it on line 1.
void expect_nesting_error(const std::string& text) {
  try {
    (void)parse_query(text);
    ADD_FAILURE() << "hostile nesting was accepted";
  } catch (const QuerySyntaxError& e) {
    EXPECT_EQ(e.line(), 1u);
    EXPECT_GT(e.column(), 1u);
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
}

TEST(Parser, FiftyThousandNestedGroupsIsASyntaxError) {
  expect_nesting_error("SELECT ?x WHERE " + repeated("{", 50000) +
                       " ?x ?p ?o . " + repeated("}", 50000));
}

TEST(Parser, HundredThousandNestedNegationsIsASyntaxError) {
  expect_nesting_error("SELECT ?x WHERE { ?x ?p ?o . FILTER(" +
                       repeated("!(", 100000) + "?o" +
                       repeated(")", 100000) + ") }");
}

TEST(Parser, SixtyFourDeepGroupParsesAndPlans) {
  const std::string text = "SELECT ?x WHERE " + repeated("{ ", 64) +
                           "?x ?p ?o . FILTER(!(!(?o = 1)))" +
                           repeated(" }", 64);
  Query q = parse_query(text);
  AlgebraPtr a = optimizer::push_filters(translate_pattern(q.where));
  dqp::PhysicalPlan plan =
      dqp::compile_physical_plan(*a, dqp::ExecutionPolicy{}, q.form);
  EXPECT_FALSE(plan.to_lines().empty());
}

}  // namespace
}  // namespace ahsw::sparql
