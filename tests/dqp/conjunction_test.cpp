// Conjunction graph patterns (Sect. IV-D): correctness under every policy
// combination, frequency-driven join ordering, and overlap-aware execution
// site selection.
#include <gtest/gtest.h>

#include "dqp_test_util.hpp"
#include "../support/param_names.hpp"
#include "workload/vocab.hpp"

namespace ahsw::dqp {
namespace {

using optimizer::PrimitiveStrategy;
using testing::expect_matches_oracle;
using testing::kPrologue;

workload::TestbedConfig config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 5;
  cfg.storage_nodes = 6;
  cfg.foaf.persons = 100;
  cfg.foaf.knows_nothing_fraction = 0.5;
  cfg.foaf.seed = 21;
  cfg.partition.overlap = 0.3;
  cfg.partition.seed = 22;
  return cfg;
}

// The Fig. 6 query.
const std::string kFig6 = std::string(kPrologue) + R"(
  SELECT ?x ?y ?z WHERE {
    ?x foaf:knows ?z .
    ?x ns:knowsNothingAbout ?y .
  })";

struct PolicyCase {
  PrimitiveStrategy strategy;
  bool freq_order;
  bool overlap_sites;
};

class ConjunctionPolicies : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(ConjunctionPolicies, Fig6MatchesOracle) {
  workload::Testbed bed(config());
  ExecutionPolicy policy;
  policy.primitive = GetParam().strategy;
  policy.frequency_join_order = GetParam().freq_order;
  policy.overlap_aware_sites = GetParam().overlap_sites;
  DistributedQueryProcessor proc(bed.overlay(), policy);
  expect_matches_oracle(bed, proc, kFig6, bed.storage_addrs().front());
}

std::vector<PolicyCase> policy_cases() {
  std::vector<PolicyCase> out;
  for (PrimitiveStrategy s :
       {PrimitiveStrategy::kBasic, PrimitiveStrategy::kChain,
        PrimitiveStrategy::kFrequencyChain}) {
    for (bool fo : {false, true}) {
      for (bool os : {false, true}) out.push_back({s, fo, os});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicyCombinations, ConjunctionPolicies,
    ::testing::ValuesIn(policy_cases()),
    [](const ::testing::TestParamInfo<PolicyCase>& instance) {
      return test_names::param_name(
                 optimizer::primitive_strategy_name(instance.param.strategy)) +
             (instance.param.freq_order ? "_freq_order" : "_plan_order") +
             (instance.param.overlap_sites ? "_overlap_sites" : "_any_site");
    });

TEST(Conjunction, ThreePatternPathQuery) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  expect_matches_oracle(bed, proc,
                        std::string(kPrologue) + R"(
      SELECT ?x ?y ?z WHERE {
        ?x foaf:knows ?z .
        ?x ns:knowsNothingAbout ?y .
        ?y foaf:knows ?z .
      })",
                        bed.storage_addrs()[1]);
}

TEST(Conjunction, StarQueryAroundOneSubject) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  expect_matches_oracle(bed, proc,
                        std::string(kPrologue) + R"(
      SELECT ?x ?n ?a WHERE {
        ?x foaf:name ?n .
        ?x foaf:age ?a .
        ?x foaf:mbox ?m .
      })",
                        bed.storage_addrs()[2]);
}

TEST(Conjunction, EmptyPatternShortCircuits) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  ExecutionReport rep;
  sparql::QueryResult r = proc.execute(
      std::string(kPrologue) + R"(
      SELECT ?x ?z WHERE {
        ?x <http://example.org/ns#noSuchPredicate> ?q .
        ?x foaf:knows ?z .
      })",
      bed.storage_addrs().front(), &rep);
  EXPECT_TRUE(r.solutions.empty());
  // Frequency ordering puts the empty pattern first; the join aborts before
  // contacting the second pattern's providers.
  EXPECT_EQ(rep.providers_contacted, 0);
}

TEST(Conjunction, FrequencyOrderingReducesDataTraffic) {
  // A selective pattern evaluated first keeps intermediates small; textual
  // order starts with the bulky foaf:knows pattern. This is the paper's
  // "the smaller the intermediate results the more efficient the query
  // processing".
  workload::TestbedConfig cfg = config();
  cfg.foaf.persons = 150;
  workload::Testbed bed(cfg);
  // knows is bulky; nick is sparse. Textual order: knows first.
  std::string q = std::string(kPrologue) + R"(
      SELECT ?x ?z ?n WHERE {
        ?x foaf:knows ?z .
        ?z foaf:nick ?n .
      })";
  auto run = [&](bool freq_order) {
    ExecutionPolicy policy;
    policy.frequency_join_order = freq_order;
    DistributedQueryProcessor proc(bed.overlay(), policy);
    ExecutionReport rep;
    (void)proc.execute(q, bed.storage_addrs().front(), &rep);
    return rep;
  };
  ExecutionReport textual = run(false);
  ExecutionReport optimized = run(true);
  auto data = [](const ExecutionReport& r) {
    return r.traffic.bytes_by[static_cast<std::size_t>(net::Category::kData)];
  };
  EXPECT_LT(data(optimized), data(textual));
  // Both orders must of course agree on the answer (checked elsewhere);
  // here we check the plan notes recorded the decision.
  ASSERT_FALSE(optimized.plan_notes.empty());
}

TEST(Conjunction, OverlapAwareSiteSelectionSavesShipping) {
  // Build the Sect. IV-D scenario: S1 = {D1, D3, D4}, S2 = {D1, D2}; with
  // overlap-aware sites the P1 chain ends at D1, where the P2 results also
  // land, so the final join needs no extra shipment of either operand.
  workload::TestbedConfig cfg;
  cfg.index_nodes = 4;
  cfg.storage_nodes = 4;
  cfg.foaf.persons = 0;
  workload::Testbed bed(cfg);
  auto& ov = bed.overlay();
  rdf::Term knows = rdf::Term::iri(std::string(workload::foaf::kKnows));
  rdf::Term kna =
      rdf::Term::iri(std::string(workload::ex::kKnowsNothingAbout));
  auto person = [](int i) {
    return rdf::Term::iri("http://example.org/people/p" + std::to_string(i));
  };
  net::NodeAddress d1 = bed.storage_addrs()[0];
  net::NodeAddress d2 = bed.storage_addrs()[1];
  net::NodeAddress d3 = bed.storage_addrs()[2];
  net::NodeAddress d4 = bed.storage_addrs()[3];
  // P1 = (?x knows ?z) providers: d1, d3, d4.
  ov.share_triples(d1, {{person(1), knows, person(2)}}, 0);
  ov.share_triples(d3, {{person(3), knows, person(2)},
                        {person(1), knows, person(4)}}, 0);
  ov.share_triples(d4, {{person(5), knows, person(2)},
                        {person(6), knows, person(7)},
                        {person(1), knows, person(8)}}, 0);
  // P2 = (?x knowsNothingAbout ?y) providers: d1, d2.
  ov.share_triples(d1, {{person(1), kna, person(3)}}, 0);
  ov.share_triples(d2, {{person(3), kna, person(1)},
                        {person(5), kna, person(6)}}, 0);
  bed.network().reset_stats();

  auto run = [&](bool overlap_aware) {
    ExecutionPolicy policy;
    policy.overlap_aware_sites = overlap_aware;
    DistributedQueryProcessor proc(bed.overlay(), policy);
    ExecutionReport rep;
    (void)proc.execute(std::string(kPrologue) + R"(
        SELECT ?x ?y ?z WHERE {
          ?x foaf:knows ?z .
          ?x ns:knowsNothingAbout ?y .
        })",
                       d2, &rep);
    return rep;
  };
  ExecutionReport naive = run(false);
  ExecutionReport aware = run(true);
  EXPECT_LE(aware.traffic.bytes, naive.traffic.bytes);
}

TEST(Conjunction, CartesianProductAcrossDisjointPatterns) {
  workload::TestbedConfig cfg = config();
  cfg.foaf.persons = 12;  // keep the product small
  cfg.foaf.knows_per_person = 1.0;
  workload::Testbed bed(cfg);
  DistributedQueryProcessor proc(bed.overlay());
  expect_matches_oracle(bed, proc,
                        std::string(kPrologue) + R"(
      SELECT ?a ?b WHERE {
        ?a foaf:nick ?n1 .
        ?b foaf:mbox ?m1 .
      })",
                        bed.storage_addrs().front());
}

}  // namespace
}  // namespace ahsw::dqp
