// Node departure and failure during query processing (Sect. III-C/III-D):
// storage-node crashes with lazy location-table repair, index-node crashes
// masked by replication or repaired by republication, graceful departures.
#include <gtest/gtest.h>

#include "dqp_test_util.hpp"
#include "workload/vocab.hpp"

namespace ahsw::dqp {
namespace {

using testing::canon;
using testing::kPrologue;

workload::TestbedConfig config(int replication = 1) {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 5;
  cfg.storage_nodes = 6;
  cfg.overlay.replication_factor = replication;
  cfg.foaf.persons = 70;
  cfg.foaf.seed = 51;
  cfg.partition.seed = 52;
  return cfg;
}

const std::string kQuery = std::string(kPrologue) +
                           "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }";

TEST(Churn, StorageFailureYieldsLiveDataAnswer) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  net::NodeAddress victim = bed.storage_addrs()[2];
  bed.overlay().storage_node_fail(victim);

  ExecutionReport rep;
  sparql::QueryResult r =
      proc.execute(kQuery, bed.storage_addrs().front(), &rep);
  EXPECT_GT(rep.dead_providers_skipped, 0);
  EXPECT_GT(rep.traffic.timeouts, 0u);

  // The answer equals the oracle over the *live* nodes' data.
  sparql::QueryResult oracle = sparql::execute_local(
      sparql::parse_query(kQuery), bed.overlay().merged_store());
  EXPECT_EQ(canon(r.solutions).rows(), canon(oracle.solutions).rows());
}

TEST(Churn, LazyRepairRemovesStaleEntriesAfterFirstQuery) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  net::NodeAddress victim = bed.storage_addrs()[2];
  bed.overlay().storage_node_fail(victim);

  ExecutionReport first, second;
  (void)proc.execute(kQuery, bed.storage_addrs().front(), &first);
  (void)proc.execute(kQuery, bed.storage_addrs().front(), &second);
  // Sect. III-D: after the timeout-triggered repair, the second run no
  // longer trips over the corpse.
  EXPECT_GT(first.dead_providers_skipped, 0);
  EXPECT_EQ(second.dead_providers_skipped, 0);
  EXPECT_LT(second.response_time, first.response_time);
}

TEST(Churn, ChainSurvivesDeadHeadProvider) {
  // The frequency chain starts at the smallest provider; if that node is
  // dead, the index node detects the timeout and forwards past it. The
  // answer must equal the live oracle and the result must not be "located"
  // at a corpse.
  workload::TestbedConfig cfg;
  cfg.index_nodes = 4;
  cfg.storage_nodes = 4;
  cfg.foaf.persons = 0;
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
  share(0, 1, "small");   // chain head (smallest frequency)
  share(1, 5, "medium");
  share(2, 20, "large");  // chain end
  bed.overlay().storage_node_fail(bed.storage_addrs()[0]);

  ExecutionPolicy policy;
  policy.primitive = optimizer::PrimitiveStrategy::kFrequencyChain;
  DistributedQueryProcessor proc(bed.overlay(), policy);
  ExecutionReport rep;
  sparql::QueryResult r = proc.execute(
      std::string(kPrologue) +
          "SELECT ?x WHERE { ?x foaf:knows <http://example.org/people/p0> . "
          "}",
      bed.storage_addrs()[3], &rep);
  EXPECT_EQ(r.solutions.size(), 25u);  // medium + large survive
  EXPECT_EQ(rep.dead_providers_skipped, 1);
  EXPECT_GT(rep.traffic.timeouts, 0u);
}

TEST(Churn, UnreachableIndexRowCompletesEmptyAndIncomplete) {
  // Sect. III-D: every index node but the initiator's entry node crashes
  // and no repair has run, so the entry's whole successor list is dead and
  // the pattern's row cannot be looked up. The scan completes empty without
  // contacting a provider, and the report marks the answer incomplete.
  workload::Testbed bed(config());
  const net::NodeAddress initiator = bed.storage_addrs().front();
  const chord::Key entry =
      bed.overlay().storage_nodes().at(initiator).attached_index;
  std::vector<chord::Key> victims;
  for (const auto& [id, state] : bed.overlay().index_nodes()) {
    if (id != entry) victims.push_back(id);
  }
  for (chord::Key id : victims) bed.overlay().index_node_fail(id);

  DistributedQueryProcessor proc(bed.overlay());
  ExecutionReport rep;
  sparql::QueryResult r = proc.execute(kQuery, initiator, &rep);
  EXPECT_TRUE(r.solutions.empty());
  EXPECT_FALSE(rep.complete);
  EXPECT_EQ(rep.index_lookups, 1);
  EXPECT_EQ(rep.providers_contacted, 0);
  // The request to the entry node, then one routing timeout per dead entry
  // of its successor list; nothing else is sent.
  const auto routing = static_cast<std::size_t>(net::Category::kRouting);
  const auto index = static_cast<std::size_t>(net::Category::kIndex);
  EXPECT_EQ(rep.traffic.messages, 1u);
  EXPECT_EQ(rep.traffic.messages_by[index], 1u);
  EXPECT_EQ(rep.traffic.timeouts, victims.size());
  EXPECT_EQ(rep.traffic.timeouts_by[routing], victims.size());
  // The failed lookup completes when the last probe times out, so the
  // response time is that request hop plus every timeout above.
  const net::CostModel& cost = bed.network().cost_model();
  EXPECT_DOUBLE_EQ(rep.response_time,
                   cost.latency(rep.traffic.bytes) +
                       static_cast<double>(victims.size()) * cost.timeout_ms);
}

TEST(Churn, RelookupWithNoLiveProviderCompletesEmpty) {
  // Sect. III-D: the only provider of the row crashes for good. The scan
  // gives up on it (lazy repair purges it from the row), the policy's one
  // re-lookup finds the row empty, and the scan completes empty at the
  // re-lookup's answer; the index row was reachable, so the answer is
  // complete.
  workload::TestbedConfig cfg;
  cfg.index_nodes = 4;
  cfg.storage_nodes = 4;
  cfg.foaf.persons = 0;
  workload::Testbed bed(cfg);
  const rdf::Term knows = rdf::Term::iri(std::string(workload::foaf::kKnows));
  const rdf::Term target = rdf::Term::iri("http://example.org/people/p0");
  std::vector<rdf::Triple> triples;
  for (int i = 0; i < 3; ++i) {
    triples.push_back(
        {rdf::Term::iri("http://example.org/people/s" + std::to_string(i)),
         knows, target});
  }
  bed.overlay().share_triples(bed.storage_addrs()[0], triples, 0);
  bed.overlay().storage_node_fail(bed.storage_addrs()[0]);

  ExecutionPolicy policy;
  policy.retry.relookup = true;
  DistributedQueryProcessor proc(bed.overlay(), policy);
  ExecutionReport rep;
  sparql::QueryResult r = proc.execute(
      std::string(kPrologue) +
          "SELECT ?x WHERE { ?x foaf:knows <http://example.org/people/p0> . "
          "}",
      bed.storage_addrs()[3], &rep);
  EXPECT_TRUE(r.solutions.empty());
  EXPECT_TRUE(rep.complete);
  EXPECT_EQ(rep.index_lookups, 2);
  EXPECT_EQ(rep.relookups, 1);
  EXPECT_EQ(rep.dead_providers_skipped, 1);
  EXPECT_EQ(rep.providers_contacted, 0);
  // Two lookups of three index messages each, the sub-query to the dead
  // provider, its timeout and the purge report to the row's owner.
  const auto index = static_cast<std::size_t>(net::Category::kIndex);
  const auto query = static_cast<std::size_t>(net::Category::kQuery);
  EXPECT_EQ(rep.traffic.messages, 8u);
  EXPECT_EQ(rep.traffic.messages_by[index], 7u);
  EXPECT_EQ(rep.traffic.messages_by[query], 1u);
  EXPECT_EQ(rep.traffic.bytes, 301u);
  EXPECT_EQ(rep.traffic.timeouts, 1u);
  EXPECT_EQ(rep.traffic.timeouts_by[query], 1u);
  // On the critical path: the six lookup messages and the sub-query
  // (2 ms each, 277 bytes at 0.001 ms/B) and the 200 ms timeout; the purge
  // report runs beside the re-lookup.
  const net::CostModel cost = bed.network().cost_model();
  EXPECT_NEAR(rep.response_time,
              cost.timeout_ms + 7 * cost.per_message_ms +
                  277 * cost.per_byte_ms,
              1e-9);
}

TEST(Churn, GracefulStorageLeaveNeedsNoTimeouts) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  bed.overlay().storage_node_leave(bed.storage_addrs()[2], 0);

  ExecutionReport rep;
  sparql::QueryResult r =
      proc.execute(kQuery, bed.storage_addrs().front(), &rep);
  EXPECT_EQ(rep.dead_providers_skipped, 0);
  EXPECT_EQ(rep.traffic.timeouts, 0u);
  sparql::QueryResult oracle = sparql::execute_local(
      sparql::parse_query(kQuery), bed.overlay().merged_store());
  EXPECT_EQ(canon(r.solutions).rows(), canon(oracle.solutions).rows());
}

TEST(Churn, IndexFailureWithReplicationKeepsAnswersComplete) {
  workload::Testbed bed(config(/*replication=*/2));
  DistributedQueryProcessor proc(bed.overlay());
  sparql::QueryResult before =
      proc.execute(kQuery, bed.storage_addrs().front(), nullptr);

  chord::Key victim = bed.overlay().index_nodes().begin()->first;
  bed.overlay().index_node_fail(victim);
  bed.overlay().repair(0);
  bed.overlay().ring().fix_all_fingers_oracle();

  sparql::QueryResult after =
      proc.execute(kQuery, bed.storage_addrs().front(), nullptr);
  EXPECT_EQ(canon(before.solutions).rows(), canon(after.solutions).rows());
}

TEST(Churn, IndexFailureWithoutReplicationLosesRowsUntilRepublish) {
  workload::Testbed bed(config(/*replication=*/1));
  DistributedQueryProcessor proc(bed.overlay());
  sparql::QueryResult before =
      proc.execute(kQuery, bed.storage_addrs().front(), nullptr);
  ASSERT_FALSE(before.solutions.empty());

  // Fail the index node owning the foaf:knows P-key row.
  rdf::TriplePattern knows_pattern{
      rdf::Variable{"x"}, rdf::Term::iri(std::string(workload::foaf::kKnows)),
      rdf::Variable{"o"}};
  auto loc =
      bed.overlay().locate(bed.storage_addrs().front(), knows_pattern, 0);
  ASSERT_TRUE(loc.ok);
  bed.overlay().index_node_fail(loc.index_node);
  bed.overlay().repair(0);
  bed.overlay().ring().fix_all_fingers_oracle();

  sparql::QueryResult degraded =
      proc.execute(kQuery, bed.storage_addrs().front(), nullptr);
  EXPECT_TRUE(degraded.solutions.empty());  // the row died with its owner

  bed.overlay().republish_all(0);
  sparql::QueryResult restored =
      proc.execute(kQuery, bed.storage_addrs().front(), nullptr);
  EXPECT_EQ(canon(before.solutions).rows(),
            canon(restored.solutions).rows());
}

TEST(Churn, GracefulIndexLeavePreservesAnswers) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  sparql::QueryResult before =
      proc.execute(kQuery, bed.storage_addrs().front(), nullptr);

  chord::Key leaver = std::next(bed.overlay().index_nodes().begin())->first;
  bed.overlay().index_node_leave(leaver, 0);
  bed.overlay().ring().fix_all_fingers_oracle();

  sparql::QueryResult after =
      proc.execute(kQuery, bed.storage_addrs().front(), nullptr);
  EXPECT_EQ(canon(before.solutions).rows(), canon(after.solutions).rows());
}

TEST(Churn, NewIndexNodeJoinPreservesAnswers) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  sparql::QueryResult before =
      proc.execute(kQuery, bed.storage_addrs().front(), nullptr);

  for (int i = 0; i < 3; ++i) bed.overlay().add_index_node(0);
  bed.overlay().ring().fix_all_fingers_oracle();

  sparql::QueryResult after =
      proc.execute(kQuery, bed.storage_addrs().front(), nullptr);
  EXPECT_EQ(canon(before.solutions).rows(), canon(after.solutions).rows());
}

TEST(Churn, QueriesSurviveCombinedChurn) {
  workload::Testbed bed(config(/*replication=*/3));
  DistributedQueryProcessor proc(bed.overlay());

  // A storm: one index crash, one graceful index leave, one storage crash,
  // one new index join — then every query class still matches the live
  // oracle.
  auto index_it = bed.overlay().index_nodes().begin();
  chord::Key crash = index_it->first;
  chord::Key leave = std::next(index_it)->first;
  bed.overlay().index_node_fail(crash);
  bed.overlay().repair(0);
  bed.overlay().index_node_leave(leave, 0);
  bed.overlay().storage_node_fail(bed.storage_addrs()[4]);
  bed.overlay().add_index_node(0);
  bed.overlay().ring().fix_all_fingers_oracle();

  for (const char* q :
       {"SELECT ?x ?o WHERE { ?x foaf:knows ?o . }",
        "SELECT ?x ?y WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:nick "
        "?n . } }",
        "SELECT ?x WHERE { { ?x foaf:nick ?n . } UNION { ?x foaf:mbox ?m . "
        "} }"}) {
    std::string query = std::string(kPrologue) + q;
    sparql::QueryResult dist =
        proc.execute(query, bed.storage_addrs().front(), nullptr);
    sparql::QueryResult oracle = sparql::execute_local(
        sparql::parse_query(query), bed.overlay().merged_store());
    EXPECT_EQ(canon(dist.solutions).rows(), canon(oracle.solutions).rows())
        << q;
  }
}

}  // namespace
}  // namespace ahsw::dqp
