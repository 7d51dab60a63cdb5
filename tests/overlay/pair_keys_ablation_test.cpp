// Ablation of the six-key index (Sect. III-B): with pair_keys disabled the
// overlay publishes only the RDFPeers-style S/P/O keys; two-attribute
// patterns over-approximate their provider sets but answers stay correct.
#include <gtest/gtest.h>

#include "dqp/processor.hpp"
#include "sparql/eval.hpp"
#include "workload/testbed.hpp"
#include "workload/vocab.hpp"

namespace ahsw::overlay {
namespace {

using rdf::Term;
using rdf::TriplePattern;
using rdf::Variable;

workload::TestbedConfig config(bool pair_keys) {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 5;
  cfg.storage_nodes = 6;
  cfg.overlay.pair_keys = pair_keys;
  cfg.foaf.persons = 60;
  cfg.foaf.seed = 71;
  cfg.partition.seed = 72;
  return cfg;
}

TEST(PairKeysAblation, ThreeKeyModePublishesHalfTheEntries) {
  workload::Testbed six(config(true));
  workload::Testbed three(config(false));
  auto entries = [](workload::Testbed& bed) {
    std::size_t n = 0;
    for (const auto& [id, ix] : bed.overlay().index_nodes()) {
      n += ix.table.entry_count();
    }
    return n;
  };
  EXPECT_GT(entries(six), entries(three));
  // Six keys vs three per triple: roughly double the entries (exact ratio
  // depends on key sharing within a node's data).
  EXPECT_GE(entries(six) * 10, entries(three) * 15);
}

TEST(PairKeysAblation, PairPatternOverApproximatesProviders) {
  workload::Testbed six(config(true));
  workload::Testbed three(config(false));
  // (?x, knows, p0): six-key mode consults the PO row (exact); three-key
  // mode consults the O row of p0 (any triple with p0 as object).
  TriplePattern pattern{
      Variable{"x"}, Term::iri(std::string(workload::foaf::kKnows)),
      Term::iri("http://example.org/people/p0")};
  auto loc6 = six.overlay().locate(six.storage_addrs().front(), pattern, 0);
  auto loc3 =
      three.overlay().locate(three.storage_addrs().front(), pattern, 0);
  ASSERT_TRUE(loc6.ok);
  ASSERT_TRUE(loc3.ok);
  EXPECT_GE(loc3.providers.size(), loc6.providers.size());
}

TEST(PairKeysAblation, AnswersStayOracleCorrect) {
  workload::Testbed bed(config(false));
  dqp::DistributedQueryProcessor proc(bed.overlay());
  for (const char* q :
       {"SELECT ?x WHERE { ?x foaf:knows <http://example.org/people/p0> . }",
        "SELECT ?o WHERE { <http://example.org/people/p1> foaf:knows ?o . }",
        "SELECT ?x ?z WHERE { ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y "
        ". }",
        "SELECT ?x ?n WHERE { ?x foaf:name ?n . FILTER regex(?n, \"Smith\") "
        "}"}) {
    std::string query =
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
        "PREFIX ns: <http://example.org/ns#>\n" +
        std::string(q);
    sparql::Query parsed = sparql::parse_query(query);
    sparql::QueryResult dist =
        proc.execute(parsed, bed.storage_addrs().front(), nullptr);
    sparql::QueryResult oracle =
        sparql::execute_local(parsed, bed.overlay().merged_store());
    EXPECT_EQ(sparql::vec_deduplicated(dist.solutions).rows(),
              sparql::vec_deduplicated(oracle.solutions).rows())
        << q;
  }
}

TEST(PairKeysAblation, SingleAttributePatternsIdenticalInBothModes) {
  workload::Testbed six(config(true));
  workload::Testbed three(config(false));
  TriplePattern pattern{Term::iri("http://example.org/people/p2"),
                        Variable{"p"}, Variable{"o"}};
  auto loc6 = six.overlay().locate(six.storage_addrs().front(), pattern, 0);
  auto loc3 =
      three.overlay().locate(three.storage_addrs().front(), pattern, 0);
  ASSERT_TRUE(loc6.ok);
  ASSERT_TRUE(loc3.ok);
  EXPECT_EQ(loc6.providers.size(), loc3.providers.size());
}

}  // namespace
}  // namespace ahsw::overlay
