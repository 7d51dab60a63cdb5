// OPTIONAL (Sect. IV-E), UNION (IV-F) and FILTER (IV-G) distributed
// processing: correctness under every join-site policy and the effects the
// paper attributes to each optimization.
#include <gtest/gtest.h>

#include "dqp_test_util.hpp"
#include "../support/param_names.hpp"
#include "workload/vocab.hpp"

namespace ahsw::dqp {
namespace {

using optimizer::JoinSitePolicy;
using testing::expect_matches_oracle;
using testing::kPrologue;

workload::TestbedConfig config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 5;
  cfg.storage_nodes = 6;
  cfg.foaf.persons = 90;
  cfg.foaf.nick_fraction = 0.4;
  cfg.foaf.seed = 31;
  cfg.partition.overlap = 0.25;
  cfg.partition.seed = 32;
  return cfg;
}

// Fig. 7 (generalized: any name, nick optional).
const std::string kOptionalQuery = std::string(kPrologue) + R"(
  SELECT ?x ?y ?n WHERE {
    ?x foaf:knows ?y .
    OPTIONAL { ?y foaf:nick ?n . }
  })";

// Fig. 8.
const std::string kUnionQuery = std::string(kPrologue) + R"(
  SELECT ?x WHERE {
    { ?x foaf:nick ?n . }
    UNION
    { ?x foaf:mbox ?m . }
  })";

// Fig. 9.
const std::string kFilterOptionalQuery = std::string(kPrologue) + R"(
  SELECT ?x ?y ?z WHERE {
    ?x foaf:name ?name ;
       ns:knowsNothingAbout ?y .
    FILTER regex(?name, "Smith")
    OPTIONAL { ?y foaf:knows ?z . }
  })";

class JoinSitePolicies : public ::testing::TestWithParam<JoinSitePolicy> {};

TEST_P(JoinSitePolicies, OptionalMatchesOracle) {
  workload::Testbed bed(config());
  ExecutionPolicy policy;
  policy.join_site = GetParam();
  DistributedQueryProcessor proc(bed.overlay(), policy);
  expect_matches_oracle(bed, proc, kOptionalQuery,
                        bed.storage_addrs().front());
}

TEST_P(JoinSitePolicies, Fig9FilterOptionalMatchesOracle) {
  workload::Testbed bed(config());
  ExecutionPolicy policy;
  policy.join_site = GetParam();
  DistributedQueryProcessor proc(bed.overlay(), policy);
  expect_matches_oracle(bed, proc, kFilterOptionalQuery,
                        bed.storage_addrs()[3]);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, JoinSitePolicies,
    ::testing::Values(JoinSitePolicy::kMoveSmall, JoinSitePolicy::kQuerySite,
                      JoinSitePolicy::kThirdSite),
    [](const ::testing::TestParamInfo<JoinSitePolicy>& instance) {
      return test_names::param_name(
          optimizer::join_site_policy_name(instance.param));
    });

TEST(Optional, MoveSmallShipsTheSmallerOperand) {
  // Make one side far bigger than the other and check the plan went to the
  // big side's site (the Cornell & Yu rule the paper adopts).
  workload::Testbed bed(config());
  ExecutionPolicy policy;
  policy.join_site = JoinSitePolicy::kMoveSmall;
  DistributedQueryProcessor proc(bed.overlay(), policy);
  ExecutionReport rep;
  (void)proc.execute(kOptionalQuery, bed.storage_addrs().front(), &rep);
  bool saw_site_note = false;
  for (const std::string& note : rep.plan_notes) {
    if (note.find("join-site: move-small") != std::string::npos) {
      saw_site_note = true;
    }
  }
  EXPECT_TRUE(saw_site_note);
}

TEST(Optional, QuerySitePolicyShipsBothToInitiator) {
  workload::Testbed bed(config());
  ExecutionPolicy policy;
  policy.join_site = JoinSitePolicy::kQuerySite;
  DistributedQueryProcessor proc(bed.overlay(), policy);
  ExecutionReport rep;
  net::NodeAddress initiator = bed.storage_addrs().front();
  (void)proc.execute(kOptionalQuery, initiator, &rep);
  bool found = false;
  for (const std::string& note : rep.plan_notes) {
    if (note.find("query-site -> node " + std::to_string(initiator)) !=
        std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Optional, ThirdSitePicksHighestCapacityNode) {
  workload::Testbed bed(config());
  // Give one storage node outsized capacity.
  net::NodeAddress beefy = bed.storage_addrs()[4];
  bed.overlay().storage_state(beefy).capacity = 100.0;
  ExecutionPolicy policy;
  policy.join_site = JoinSitePolicy::kThirdSite;
  DistributedQueryProcessor proc(bed.overlay(), policy);
  ExecutionReport rep;
  (void)proc.execute(kOptionalQuery, bed.storage_addrs().front(), &rep);
  bool found = false;
  for (const std::string& note : rep.plan_notes) {
    if (note.find("third-site -> node " + std::to_string(beefy)) !=
        std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Optional, ChainedOptionalsLeftAssociative) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  expect_matches_oracle(bed, proc,
                        std::string(kPrologue) + R"(
      SELECT ?x ?n ?m WHERE {
        ?x foaf:knows ?y .
        OPTIONAL { ?y foaf:nick ?n . }
        OPTIONAL { ?y foaf:mbox ?m . }
      })",
                        bed.storage_addrs()[1]);
}

TEST(Union, MatchesOracleBothPolicies) {
  for (bool overlap_aware : {false, true}) {
    workload::Testbed bed(config());
    ExecutionPolicy policy;
    policy.overlap_aware_sites = overlap_aware;
    DistributedQueryProcessor proc(bed.overlay(), policy);
    expect_matches_oracle(bed, proc, kUnionQuery,
                          bed.storage_addrs().front());
  }
}

TEST(Union, Fig8ExactQueryMatchesOracle) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  expect_matches_oracle(bed, proc,
                        std::string(kPrologue) + R"(
      SELECT ?x ?y ?z WHERE {
        { ?x foaf:name "Smith" .
          ?x foaf:knows ?y . }
        UNION
        { ?x foaf:mbox <mailto:abc@example.org> .
          ?x foaf:knows ?z . }
      })",
                        bed.storage_addrs().front());
}

TEST(Union, SharedProviderSiteSavesShipping) {
  // Sect. IV-F: S1 = {D1, D3}, S2 = {D2, D3}; both chains can end at D3
  // where the union is free.
  workload::TestbedConfig cfg;
  cfg.index_nodes = 4;
  cfg.storage_nodes = 3;
  cfg.foaf.persons = 0;
  workload::Testbed bed(cfg);
  auto& ov = bed.overlay();
  rdf::Term nick = rdf::Term::iri(std::string(workload::foaf::kNick));
  rdf::Term mbox = rdf::Term::iri(std::string(workload::foaf::kMbox));
  auto person = [](int i) {
    return rdf::Term::iri("http://example.org/people/p" + std::to_string(i));
  };
  net::NodeAddress d1 = bed.storage_addrs()[0];
  net::NodeAddress d2 = bed.storage_addrs()[1];
  net::NodeAddress d3 = bed.storage_addrs()[2];
  ov.share_triples(d1, {{person(1), nick, rdf::Term::literal("a")}}, 0);
  ov.share_triples(d3, {{person(2), nick, rdf::Term::literal("b")},
                        {person(3), nick, rdf::Term::literal("c")}}, 0);
  ov.share_triples(d2, {{person(4), mbox, rdf::Term::iri("mailto:x@y")}}, 0);
  ov.share_triples(d3, {{person(5), mbox, rdf::Term::iri("mailto:z@y")},
                        {person(6), mbox, rdf::Term::iri("mailto:w@y")}}, 0);
  bed.network().reset_stats();

  auto run = [&](bool overlap_aware) {
    ExecutionPolicy policy;
    policy.overlap_aware_sites = overlap_aware;
    DistributedQueryProcessor proc(bed.overlay(), policy);
    ExecutionReport rep;
    (void)proc.execute(kUnionQuery, d1, &rep);
    return rep;
  };
  ExecutionReport naive = run(false);
  ExecutionReport aware = run(true);
  EXPECT_LE(aware.traffic.bytes, naive.traffic.bytes);
}

TEST(Filter, PushingReducesShippedData) {
  // Sect. IV-G: pushing the regex into P1 filters at the providers, so
  // non-Smith rows never cross the network.
  workload::Testbed bed(config());
  auto run = [&](bool push) {
    ExecutionPolicy policy;
    policy.push_filters = push;
    DistributedQueryProcessor proc(bed.overlay(), policy);
    ExecutionReport rep;
    (void)proc.execute(kFilterOptionalQuery, bed.storage_addrs().front(),
                       &rep);
    return rep;
  };
  ExecutionReport unpushed = run(false);
  ExecutionReport pushed = run(true);
  auto data = [](const ExecutionReport& r) {
    return r.traffic.bytes_by[static_cast<std::size_t>(net::Category::kData)];
  };
  EXPECT_LT(data(pushed), data(unpushed));
}

TEST(Filter, PushedAndUnpushedAgree) {
  workload::Testbed bed(config());
  ExecutionPolicy no_push;
  no_push.push_filters = false;
  DistributedQueryProcessor a(bed.overlay(), no_push);
  DistributedQueryProcessor b(bed.overlay());
  sparql::QueryResult ra =
      a.execute(kFilterOptionalQuery, bed.storage_addrs().front(), nullptr);
  sparql::QueryResult rb =
      b.execute(kFilterOptionalQuery, bed.storage_addrs().front(), nullptr);
  EXPECT_EQ(testing::canon(ra.solutions).rows(),
            testing::canon(rb.solutions).rows());
}

TEST(Filter, PlanNoteShowsPushedAlgebra) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  ExecutionReport rep;
  (void)proc.execute(kFilterOptionalQuery, bed.storage_addrs().front(), &rep);
  ASSERT_FALSE(rep.plan_notes.empty());
  EXPECT_NE(rep.plan_notes.front().find("Filter(regex(?name, \"Smith\")"),
            std::string::npos);
}

TEST(Filter, CrossPatternFilterEvaluatesAtCollectingNode) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  expect_matches_oracle(bed, proc,
                        std::string(kPrologue) + R"(
      SELECT ?x ?y WHERE {
        ?x foaf:age ?a .
        ?y foaf:age ?b .
        FILTER(?a < ?b - 40)
      })",
                        bed.storage_addrs().front());
}

}  // namespace
}  // namespace ahsw::dqp
