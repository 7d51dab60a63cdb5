// End-to-end Fig. 3 workflow tests: parse -> transform -> optimize -> ship
// -> local execution -> post-processing, across query forms and solution
// modifiers, plus the Fig. 4 flagship query.
#include <gtest/gtest.h>

#include "dqp_test_util.hpp"
#include "workload/vocab.hpp"

namespace ahsw::dqp {
namespace {

using testing::expect_matches_oracle;
using testing::kPrologue;

workload::TestbedConfig config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 4;
  cfg.storage_nodes = 5;
  cfg.foaf.persons = 60;
  cfg.foaf.seed = 41;
  cfg.partition.seed = 42;
  cfg.partition.overlap = 0.2;
  return cfg;
}

TEST(Workflow, Fig4FlagshipQueryEndToEnd) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  ExecutionReport rep;
  expect_matches_oracle(bed, proc,
                        std::string(kPrologue) + R"(
      SELECT ?x ?y ?z WHERE {
        ?x foaf:name ?name .
        ?x foaf:knows ?z .
        ?x ns:knowsNothingAbout ?y .
        ?y foaf:knows ?z .
        FILTER regex(?name, "Smith")
      } ORDER BY DESC(?x))",
                        bed.storage_addrs().front(), &rep);
  EXPECT_TRUE(rep.complete);
  EXPECT_GT(rep.index_lookups, 0);
  EXPECT_GT(rep.traffic.messages, 0u);
  EXPECT_GT(rep.response_time, 0.0);
}

TEST(Workflow, OrderByAppliedAtInitiator) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  sparql::QueryResult r = proc.execute(
      std::string(kPrologue) +
          "SELECT ?x ?a WHERE { ?x foaf:age ?a . } ORDER BY DESC(?a) LIMIT 5",
      bed.storage_addrs().front(), nullptr);
  ASSERT_LE(r.solutions.size(), 5u);
  ASSERT_GE(r.solutions.size(), 2u);
  double prev = 1e18;
  for (const sparql::Binding& b : r.solutions.rows()) {
    double v = 0;
    ASSERT_TRUE(b.get("a")->numeric_value(v));
    EXPECT_LE(v, prev);
    prev = v;
  }
}

TEST(Workflow, DistinctAndProjection) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  sparql::QueryResult all = proc.execute(
      std::string(kPrologue) + "SELECT ?y WHERE { ?x foaf:knows ?y . }",
      bed.storage_addrs().front(), nullptr);
  sparql::QueryResult distinct = proc.execute(
      std::string(kPrologue) +
          "SELECT DISTINCT ?y WHERE { ?x foaf:knows ?y . }",
      bed.storage_addrs().front(), nullptr);
  EXPECT_LE(distinct.solutions.size(), all.solutions.size());
  for (const sparql::Binding& b : distinct.solutions.rows()) {
    EXPECT_EQ(b.size(), 1u);
    EXPECT_TRUE(b.bound("y"));
  }
}

TEST(Workflow, AskQueryDistributed) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  expect_matches_oracle(bed, proc,
                        std::string(kPrologue) +
                            "ASK { ?x foaf:knows "
                            "<http://example.org/people/p0> . }",
                        bed.storage_addrs().front());
  expect_matches_oracle(bed, proc,
                        std::string(kPrologue) +
                            "ASK { ?x foaf:knows "
                            "<http://example.org/people/missing> . }",
                        bed.storage_addrs().front());
}

TEST(Workflow, ConstructQueryDistributed) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  expect_matches_oracle(bed, proc,
                        std::string(kPrologue) + R"(
      CONSTRUCT { ?y <http://example.org/ns#knownBy> ?x . }
      WHERE { ?x foaf:knows ?y . })",
                        bed.storage_addrs().front());
}

TEST(Workflow, DescribeQueryDistributed) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  expect_matches_oracle(
      bed, proc,
      std::string(kPrologue) + "DESCRIBE <http://example.org/people/p0>",
      bed.storage_addrs().front());
}

TEST(Workflow, DescribeVariableTargetDistributed) {
  // DESCRIBE ?x WHERE {...}: the targets are the pattern's bindings, which
  // the initiator gathers before it describes each of them.
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  const std::string query =
      std::string(kPrologue) +
      "DESCRIBE ?x WHERE { ?x foaf:knows <http://example.org/people/p1> . }";
  const sparql::QueryResult oracle = sparql::execute_local(
      sparql::parse_query(query), bed.overlay().merged_store());
  EXPECT_FALSE(oracle.graph.empty()) << "p1 must be known by someone";
  expect_matches_oracle(bed, proc, query, bed.storage_addrs().front());
}

TEST(Workflow, PlanExposesOptimizedAlgebra) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  sparql::AlgebraPtr plan = proc.plan(
      std::string(kPrologue) + R"(
      SELECT ?x WHERE {
        ?x foaf:name ?n .
        FILTER regex(?n, "Smith")
      })");
  // With push_filters on, the filter is inside the BGP.
  EXPECT_EQ(plan->kind, sparql::AlgebraKind::kBgp);
  ASSERT_EQ(plan->bgp.size(), 1u);
  EXPECT_NE(plan->bgp[0].pushed_filter, nullptr);
}

TEST(Workflow, ReportTrafficIsDeltaNotCumulative) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  std::string q = std::string(kPrologue) +
                  "SELECT ?o WHERE { <http://example.org/people/p1> "
                  "foaf:knows ?o . }";
  ExecutionReport first, second;
  (void)proc.execute(q, bed.storage_addrs().front(), &first);
  (void)proc.execute(q, bed.storage_addrs().front(), &second);
  // Same query, same state: the two executions cost the same.
  EXPECT_EQ(first.traffic.messages, second.traffic.messages);
  EXPECT_EQ(first.traffic.bytes, second.traffic.bytes);
}

TEST(Workflow, ExecutionIsDeterministic) {
  workload::Testbed bed1(config());
  workload::Testbed bed2(config());
  DistributedQueryProcessor p1(bed1.overlay());
  DistributedQueryProcessor p2(bed2.overlay());
  std::string q = std::string(kPrologue) + R"(
      SELECT ?x ?y WHERE {
        ?x foaf:knows ?y .
        OPTIONAL { ?y foaf:nick ?n . }
      })";
  ExecutionReport r1, r2;
  sparql::QueryResult a = p1.execute(q, bed1.storage_addrs().front(), &r1);
  sparql::QueryResult b = p2.execute(q, bed2.storage_addrs().front(), &r2);
  EXPECT_EQ(a.solutions.rows(), b.solutions.rows());
  EXPECT_EQ(r1.traffic.messages, r2.traffic.messages);
  EXPECT_DOUBLE_EQ(r1.response_time, r2.response_time);
}

TEST(Workflow, IndexNodeCanInitiateQueries) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  net::NodeAddress index_addr =
      bed.overlay().index_nodes().begin()->second.address;
  expect_matches_oracle(bed, proc,
                        std::string(kPrologue) +
                            "SELECT ?x ?o WHERE { ?x foaf:nick ?o . }",
                        index_addr);
}

}  // namespace
}  // namespace ahsw::dqp
