// Primitive SPARQL queries (Sect. IV-C): correctness of all eight triple-
// pattern shapes under every strategy, and the traffic/response-time
// tradeoff the paper predicts between Basic and the chain optimizations.
#include <gtest/gtest.h>

#include <utility>

#include "dqp_test_util.hpp"
#include "../support/param_names.hpp"
#include "workload/vocab.hpp"

namespace ahsw::dqp {
namespace {

using optimizer::PrimitiveStrategy;
using testing::expect_matches_oracle;
using testing::kPrologue;

workload::TestbedConfig small_config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 5;
  cfg.storage_nodes = 6;
  cfg.foaf.persons = 80;
  cfg.foaf.seed = 11;
  cfg.partition.overlap = 0.25;  // some triples shared by two providers
  cfg.partition.seed = 12;
  return cfg;
}

struct ShapeStrategyCase {
  const char* shape;  // test_names::shape_name of the query's pattern
  const char* query;
  PrimitiveStrategy strategy;
};

class PrimitiveShapes
    : public ::testing::TestWithParam<ShapeStrategyCase> {};

TEST_P(PrimitiveShapes, DistributedMatchesOracle) {
  workload::Testbed bed(small_config());
  ExecutionPolicy policy;
  policy.primitive = GetParam().strategy;
  DistributedQueryProcessor proc(bed.overlay(), policy);
  expect_matches_oracle(bed, proc,
                        std::string(kPrologue) + GetParam().query,
                        bed.storage_addrs().front());
}

// One query per bound-position shape; p0 is the most popular person.
constexpr std::pair<const char*, const char*> kShapeQueries[] = {
    // fully bound -> ASK-like select
    {"spo",
     "SELECT ?x WHERE { <http://example.org/people/p1> foaf:knows "
     "<http://example.org/people/p0> . }"},
    {"spx",
     "SELECT ?o WHERE { <http://example.org/people/p1> foaf:knows ?o . }"},
    {"sxo",
     "SELECT ?p WHERE { <http://example.org/people/p1> ?p "
     "<http://example.org/people/p0> . }"},
    {"xpo",
     "SELECT ?x WHERE { ?x foaf:knows <http://example.org/people/p0> . }"},
    {"sxx", "SELECT ?p ?o WHERE { <http://example.org/people/p3> ?p ?o . }"},
    {"xpx", "SELECT ?x ?o WHERE { ?x foaf:nick ?o . }"},
    {"xxo", "SELECT ?x ?p WHERE { ?x ?p <http://example.org/people/p0> . }"},
    // -> broadcast / flooding
    {"xxx", "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }"},
};

std::vector<ShapeStrategyCase> all_cases() {
  std::vector<ShapeStrategyCase> out;
  for (const auto& [shape, q] : kShapeQueries) {
    for (PrimitiveStrategy s :
         {PrimitiveStrategy::kBasic, PrimitiveStrategy::kChain,
          PrimitiveStrategy::kFrequencyChain}) {
      out.push_back({shape, q, s});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    EightShapesThreeStrategies, PrimitiveShapes,
    ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<ShapeStrategyCase>& instance) {
      return std::string(instance.param.shape) + "_" +
             test_names::param_name(
                 optimizer::primitive_strategy_name(instance.param.strategy));
    });

/// Helper: run one query under a strategy and return its report.
ExecutionReport run_with(workload::Testbed& bed, PrimitiveStrategy s,
                         const std::string& query) {
  ExecutionPolicy policy;
  policy.primitive = s;
  DistributedQueryProcessor proc(bed.overlay(), policy);
  ExecutionReport rep;
  (void)proc.execute(query, bed.storage_addrs().front(), &rep);
  return rep;
}

TEST(PrimitiveTradeoffs, BasicHasLowerResponseTimeThanChains) {
  // Sect. IV-C: "the basic query processing trades transmission costs for a
  // low response time" — parallel scatter/gather beats a sequential chain.
  workload::Testbed bed(small_config());
  std::string q = std::string(kPrologue) +
                  "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }";
  ExecutionReport basic = run_with(bed, PrimitiveStrategy::kBasic, q);
  ExecutionReport chain = run_with(bed, PrimitiveStrategy::kChain, q);
  ASSERT_GT(basic.providers_contacted, 2);
  EXPECT_LT(basic.response_time, chain.response_time);
}

std::uint64_t data_bytes(const ExecutionReport& r) {
  return r.traffic.bytes_by[static_cast<std::size_t>(net::Category::kData)] +
         r.traffic.bytes_by[static_cast<std::size_t>(net::Category::kResult)];
}

TEST(PrimitiveTradeoffs, FrequencyChainNoHeavierThanPlainChain) {
  // Visiting providers in ascending frequency minimizes the cumulative
  // size of the travelling merged set, so the frequency chain never ships
  // more than an arbitrarily ordered chain.
  workload::TestbedConfig cfg = small_config();
  cfg.foaf.popularity_skew = 1.2;
  workload::Testbed bed(cfg);
  std::string q =
      std::string(kPrologue) +
      "SELECT ?x WHERE { ?x foaf:knows <http://example.org/people/p0> . }";
  ExecutionReport chain = run_with(bed, PrimitiveStrategy::kChain, q);
  ExecutionReport freq = run_with(bed, PrimitiveStrategy::kFrequencyChain, q);
  ASSERT_GT(chain.providers_contacted, 1);
  EXPECT_LE(data_bytes(freq), data_bytes(chain));
}

TEST(PrimitiveTradeoffs, FrequencyChainBeatsBasicUnderSkew) {
  // Sect. IV-C further optimization: with a Table-I-like skew (one provider
  // holding most matches), ending the chain at the largest provider means
  // its solutions travel once (straight to the initiator) instead of twice
  // (to the assembly index node, then onward), cutting total transmission.
  workload::TestbedConfig cfg;
  cfg.index_nodes = 4;
  cfg.storage_nodes = 3;
  cfg.foaf.persons = 0;  // hand-built data below
  workload::Testbed bed(cfg);

  rdf::Term knows = rdf::Term::iri(std::string(workload::foaf::kKnows));
  rdf::Term target = rdf::Term::iri("http://example.org/people/p0");
  auto share = [&](std::size_t node, int count, const std::string& tag) {
    std::vector<rdf::Triple> triples;
    for (int i = 0; i < count; ++i) {
      triples.push_back({rdf::Term::iri("http://example.org/people/" + tag +
                                        std::to_string(i)),
                         knows, target});
    }
    bed.overlay().share_triples(bed.storage_addrs()[node], triples, 0);
  };
  share(0, 2, "a");    // small
  share(1, 4, "b");    // medium
  share(2, 60, "c");   // the D3-style heavyweight
  bed.network().reset_stats();

  std::string q =
      std::string(kPrologue) +
      "SELECT ?x WHERE { ?x foaf:knows <http://example.org/people/p0> . }";
  ExecutionReport basic = run_with(bed, PrimitiveStrategy::kBasic, q);
  ExecutionReport freq = run_with(bed, PrimitiveStrategy::kFrequencyChain, q);
  ASSERT_EQ(basic.providers_contacted, 3);
  EXPECT_LT(data_bytes(freq), data_bytes(basic));
  // The flip side of the paper's tradeoff: the chain is sequential, so its
  // response time is the price paid for the traffic reduction.
  EXPECT_GE(freq.response_time, basic.response_time);
}

TEST(PrimitiveTradeoffs, ChainVisitsEveryProviderOnce) {
  workload::Testbed bed(small_config());
  std::string q = std::string(kPrologue) +
                  "SELECT ?x ?o WHERE { ?x foaf:mbox ?o . }";
  ExecutionReport rep = run_with(bed, PrimitiveStrategy::kChain, q);
  // Every live provider of the P-key row runs the sub-query exactly once.
  auto loc = bed.overlay().locate(
      bed.storage_addrs().front(),
      rdf::TriplePattern{rdf::Variable{"x"},
                         rdf::Term::iri(std::string(workload::foaf::kMbox)),
                         rdf::Variable{"o"}},
      0);
  EXPECT_EQ(rep.providers_contacted, static_cast<int>(loc.providers.size()));
}

TEST(PrimitiveTradeoffs, EmptyAnswerCostsOnlyIndexTraffic) {
  workload::Testbed bed(small_config());
  ExecutionPolicy policy;
  DistributedQueryProcessor proc(bed.overlay(), policy);
  ExecutionReport rep;
  sparql::QueryResult r = proc.execute(
      std::string(kPrologue) +
          "SELECT ?x WHERE { ?x foaf:knows <http://example.org/people/"
          "nonexistent> . }",
      bed.storage_addrs().front(), &rep);
  EXPECT_TRUE(r.solutions.empty());
  EXPECT_EQ(rep.providers_contacted, 0);
  EXPECT_EQ(
      rep.traffic.bytes_by[static_cast<std::size_t>(net::Category::kData)],
      0u);
  EXPECT_GT(rep.index_lookups, 0);
}

TEST(PrimitiveTradeoffs, ReportCountsRingHops) {
  workload::Testbed bed(small_config());
  DistributedQueryProcessor proc(bed.overlay());
  ExecutionReport rep;
  (void)proc.execute(std::string(kPrologue) +
                         "SELECT ?o WHERE { <http://example.org/people/p1> "
                         "foaf:knows ?o . }",
                     bed.storage_addrs().front(), &rep);
  EXPECT_EQ(rep.index_lookups, 1);
  EXPECT_GE(rep.ring_hops, 0);
  EXPECT_GT(rep.traffic.messages, 0u);
  EXPECT_GT(rep.response_time, 0.0);
  EXPECT_TRUE(rep.complete);
}

TEST(PrimitiveTradeoffs, InitiatorCanBeAnyStorageNode) {
  workload::Testbed bed(small_config());
  DistributedQueryProcessor proc(bed.overlay());
  std::string q = std::string(kPrologue) +
                  "SELECT ?o WHERE { <http://example.org/people/p2> "
                  "foaf:knows ?o . }";
  sparql::QueryResult first =
      proc.execute(q, bed.storage_addrs().front(), nullptr);
  sparql::QueryResult last =
      proc.execute(q, bed.storage_addrs().back(), nullptr);
  EXPECT_EQ(testing::canon(first.solutions).rows(),
            testing::canon(last.solutions).rows());
}

}  // namespace
}  // namespace ahsw::dqp
