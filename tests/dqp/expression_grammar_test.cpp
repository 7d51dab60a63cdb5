// The FILTER expression grammar the paper's example queries do not reach:
// lang-tagged and typed literals, the arithmetic and `<=` operators, unary
// minus and plus, IRI, prefixed-name, decimal and boolean constants, and
// the isLiteral/isBlank/str/lang/datatype built-ins. Each case pins the
// parsed expression's printed form (a fixed point of parse -> to_string),
// its answer from the single-site engine, and the distributed answer.
#include <gtest/gtest.h>

#include <algorithm>

#include "dqp_test_util.hpp"

namespace ahsw::dqp {
namespace {

using rdf::Term;
using testing::canon;

constexpr std::string_view kEx = "http://example.org/g#";
constexpr std::string_view kPrologue =
    "PREFIX ex: <http://example.org/g#>\n";

Term ex(const std::string& local) {
  return Term::iri(std::string(kEx) + local);
}

workload::TestbedConfig config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 4;
  cfg.storage_nodes = 3;
  cfg.foaf.persons = 0;
  return cfg;
}

/// One value per subject, each of a different term shape, spread over the
/// storage nodes.
void share_values(workload::Testbed& bed) {
  const Term v = ex("v");
  const std::vector<rdf::Triple> data = {
      {ex("s1"), v, Term::lang_literal("chat", "fr")},
      {ex("s2"), v, Term::lang_literal("cat", "en")},
      {ex("s3"), v, Term::integer(5)},
      {ex("s4"), v, Term::typed_literal("2.5", std::string(rdf::xsd::kDouble))},
      {ex("s5"), v,
       Term::typed_literal("true", std::string(rdf::xsd::kBoolean))},
      {ex("s6"), v, ex("thing")},
      {ex("s7"), v, Term::blank("b1")},
      {ex("s8"), v, Term::literal("plain")},
      {ex("s9"), v, Term::typed_literal("12", std::string(kEx) + "myType")},
  };
  for (std::size_t i = 0; i < data.size(); ++i) {
    const net::NodeAddress node =
        bed.storage_addrs()[i % bed.storage_addrs().size()];
    (void)bed.overlay().share_triples(node, {data[i]}, 0);
  }
}

std::string select_with(const std::string& filter) {
  return std::string(kPrologue) + "SELECT ?s WHERE { ?s ex:v ?o . FILTER(" +
         filter + ") }";
}

/// The subjects of a SELECT ?s answer as local names, sorted.
std::vector<std::string> subjects(const sparql::SolutionSet& rows) {
  std::vector<std::string> out;
  for (const sparql::Binding& b : rows.rows()) {
    out.push_back(b.get("s")->lexical().substr(kEx.size()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct GrammarCase {
  std::string filter;   // as written in the query
  std::string printed;  // Expr::to_string of the parsed filter
  std::vector<std::string> subjects;  // expected answer
};

const std::string kInt = "^^<http://www.w3.org/2001/XMLSchema#integer>";
const std::string kDbl = "^^<http://www.w3.org/2001/XMLSchema#double>";
const std::string kBool = "^^<http://www.w3.org/2001/XMLSchema#boolean>";

const std::vector<GrammarCase>& cases() {
  static const std::vector<GrammarCase> kCases = {
      {R"(?o = "chat"@fr)", R"((?o = "chat"@fr))", {"s1"}},
      {R"(?o = "12"^^ex:myType)",
       R"((?o = "12"^^<http://example.org/g#myType>))", {"s9"}},
      {"?o <= 5", "(?o <= \"5\"" + kInt + ")", {"s3", "s4"}},
      {"?o + 1 = 6", "((?o + \"1\"" + kInt + ") = \"6\"" + kInt + ")", {"s3"}},
      {"?o * 2 = 5", "((?o * \"2\"" + kInt + ") = \"5\"" + kInt + ")", {"s4"}},
      {"?o / 2 = 2.5", "((?o / \"2\"" + kInt + ") = \"2.5\"" + kDbl + ")",
       {"s3"}},
      {"-?o < -3", "(-(?o) < -(\"3\"" + kInt + "))", {"s3"}},
      {"+?o = +5", "(?o = \"5\"" + kInt + ")", {"s3"}},
      {"?o = <http://example.org/g#thing>",
       "(?o = <http://example.org/g#thing>)", {"s6"}},
      {"?o = ex:thing", "(?o = <http://example.org/g#thing>)", {"s6"}},
      {"?o = 2.5", "(?o = \"2.5\"" + kDbl + ")", {"s4"}},
      {"?o = TRUE", "(?o = \"true\"" + kBool + ")", {"s5"}},
      {"datatype(?o) = datatype(FALSE)",
       "(datatype(?o) = datatype(\"false\"" + kBool + "))", {"s5"}},
      {"isLiteral(?o)", "isLiteral(?o)",
       {"s1", "s2", "s3", "s4", "s5", "s8", "s9"}},
      {"isBlank(?o)", "isBlank(?o)", {"s7"}},
      {R"(str(?o) = "chat")", R"((str(?o) = "chat"))", {"s1"}},
      {R"(lang(?o) = "en")", R"((lang(?o) = "en"))", {"s2"}},
      {"datatype(?o) = ex:myType",
       "(datatype(?o) = <http://example.org/g#myType>)", {"s9"}},
  };
  return kCases;
}

TEST(ExpressionGrammar, PrintsParsesAndAnswersEveryForm) {
  workload::Testbed bed(config());
  share_values(bed);
  DistributedQueryProcessor proc(bed.overlay());
  const rdf::TripleStore merged = bed.overlay().merged_store();
  for (const GrammarCase& c : cases()) {
    SCOPED_TRACE(c.filter);
    const sparql::Query q = sparql::parse_query(select_with(c.filter));
    ASSERT_EQ(q.where.elements.size(), 2u);
    const sparql::ExprPtr& f = q.where.elements[1].filter;
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->to_string(), c.printed);
    // The printed form parses back to itself.
    const sparql::Query again =
        sparql::parse_query(select_with(f->to_string()));
    EXPECT_EQ(again.where.elements[1].filter->to_string(), c.printed);

    const sparql::QueryResult oracle = sparql::execute_local(q, merged);
    EXPECT_EQ(subjects(oracle.solutions), c.subjects);
    const sparql::QueryResult dist =
        proc.execute(q, bed.storage_addrs().front());
    EXPECT_EQ(canon(dist.solutions).rows(), canon(oracle.solutions).rows());
  }
}

}  // namespace
}  // namespace ahsw::dqp
