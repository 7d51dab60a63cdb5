// RetryPolicy: bounded re-contact with deterministic backoff, failover, and
// the lazy-repair re-lookup that rescues a query after every provider in the
// original row has been given up on.
#include <gtest/gtest.h>

#include "fault/harness.hpp"
#include "sparql/eval.hpp"
#include "workload/testbed.hpp"
#include "workload/vocab.hpp"

namespace ahsw::fault {
namespace {

constexpr std::string_view kPrologue =
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n";

workload::TestbedConfig config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 5;
  cfg.storage_nodes = 6;
  cfg.foaf.persons = 70;
  cfg.foaf.seed = 51;
  cfg.partition.seed = 52;
  return cfg;
}

dqp::BatchQuery knows_query(workload::Testbed& bed) {
  dqp::BatchQuery q;
  q.query = sparql::parse_query(std::string(kPrologue) +
                                "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }");
  q.initiator = bed.storage_addrs().front();
  return q;
}

TEST(RetryPolicy, BackoffGrowsGeometrically) {
  dqp::RetryPolicy p;
  p.max_retries = 3;
  p.backoff_base_ms = 8.0;
  p.backoff_growth = 2.0;
  EXPECT_TRUE(p.enabled());
  EXPECT_DOUBLE_EQ(p.backoff_ms(1), 8.0);
  EXPECT_DOUBLE_EQ(p.backoff_ms(2), 16.0);
  EXPECT_DOUBLE_EQ(p.backoff_ms(3), 32.0);
  EXPECT_FALSE(dqp::RetryPolicy{}.enabled());
}

/// One run of the knows query with the victim failed at t=0 and recovered at
/// `recover_at`, under `policy`.
dqp::ExecutionReport faulted_run(const dqp::ExecutionPolicy& policy,
                                 net::SimTime recover_at,
                                 std::size_t* rows = nullptr) {
  workload::Testbed bed(config());
  dqp::DistributedQueryProcessor proc(bed.overlay(), policy);
  FaultSchedule schedule;
  schedule.storage_fail(0, bed.storage_addrs()[2]);
  schedule.recover(recover_at, bed.storage_addrs()[2]);
  FaultRunResult res =
      run_with_faults(proc, bed.overlay(), {knows_query(bed)}, schedule);
  if (rows != nullptr) {
    *rows =
        sparql::vec_deduplicated(res.batch.results.front().solutions).size();
  }
  return res.batch.reports.front();
}

TEST(RetryPolicy, RetryReachesRecoveredProvider) {
  // The provider crashes before the query starts and recovers 60 ms in —
  // before the first contact's timeout expires. Without retries the query
  // gives up on it; with retries the backed-off re-contact lands on the
  // recovered node and the answer stays complete.
  std::size_t baseline_rows = 0, retried_rows = 0;
  dqp::ExecutionPolicy off;
  dqp::ExecutionReport base = faulted_run(off, 60, &baseline_rows);
  EXPECT_GT(base.dead_providers_skipped, 0);
  EXPECT_EQ(base.retries, 0);

  dqp::ExecutionPolicy on;
  on.retry.max_retries = 2;
  dqp::ExecutionReport rep = faulted_run(on, 60, &retried_rows);
  EXPECT_GT(rep.retries, 0);
  EXPECT_EQ(rep.dead_providers_skipped, 0);
  EXPECT_GT(retried_rows, baseline_rows);
}

TEST(RetryPolicy, ChainEngineRetriesToo) {
  std::size_t baseline_rows = 0, retried_rows = 0;
  dqp::ExecutionPolicy off;
  off.adaptive = false;
  off.primitive = optimizer::PrimitiveStrategy::kFrequencyChain;
  dqp::ExecutionReport base = faulted_run(off, 60, &baseline_rows);
  EXPECT_GT(base.dead_providers_skipped, 0);

  dqp::ExecutionPolicy on = off;
  on.retry.max_retries = 2;
  dqp::ExecutionReport rep = faulted_run(on, 60, &retried_rows);
  EXPECT_GT(rep.retries, 0);
  EXPECT_EQ(rep.dead_providers_skipped, 0);
  EXPECT_GT(retried_rows, baseline_rows);
}

TEST(RetryPolicy, ExhaustedRetriesStillGiveUp) {
  // The provider never recovers: retries burn their budget, then the query
  // gives up exactly as the no-retry path does (lazy purge included), at the
  // price of the extra attempts.
  dqp::ExecutionPolicy on;
  on.retry.max_retries = 2;
  dqp::ExecutionReport rep = faulted_run(on, /*recover_at=*/1e9);
  EXPECT_EQ(rep.retries, 2);
  EXPECT_GT(rep.dead_providers_skipped, 0);
  EXPECT_TRUE(rep.complete);
}

TEST(RetryPolicy, RelookupFindsRejoinedProvider) {
  // The *only* provider of the probed row crashes, so the whole provider set
  // exhausts; a rejoin republishes while the query is still in flight, and
  // the policy's single re-lookup picks the revived row up.
  workload::TestbedConfig cfg;
  cfg.index_nodes = 4;
  cfg.storage_nodes = 4;
  cfg.foaf.persons = 0;
  workload::Testbed bed(cfg);
  rdf::Term knows = rdf::Term::iri(std::string(workload::foaf::kKnows));
  rdf::Term target = rdf::Term::iri("http://example.org/people/p0");
  std::vector<rdf::Triple> triples;
  for (int i = 0; i < 3; ++i) {
    triples.push_back(
        {rdf::Term::iri("http://example.org/people/s" + std::to_string(i)),
         knows, target});
  }
  bed.overlay().share_triples(bed.storage_addrs()[0], triples, 0);

  const std::string query =
      std::string(kPrologue) +
      "SELECT ?x WHERE { ?x foaf:knows <http://example.org/people/p0> . }";
  dqp::BatchQuery q;
  q.query = sparql::parse_query(query);
  q.initiator = bed.storage_addrs()[3];

  FaultSchedule schedule;
  schedule.storage_fail(0, bed.storage_addrs()[0]);
  schedule.rejoin(100, bed.storage_addrs()[0]);

  dqp::ExecutionPolicy policy;
  policy.retry.relookup = true;  // no retries: give up fast, re-lookup once
  dqp::DistributedQueryProcessor proc(bed.overlay(), policy);
  FaultRunResult res = run_with_faults(proc, bed.overlay(), {q}, schedule);

  const dqp::ExecutionReport& rep = res.batch.reports.front();
  EXPECT_EQ(rep.relookups, 1);
  EXPECT_GT(rep.dead_providers_skipped, 0);
  EXPECT_EQ(res.batch.results.front().solutions.size(), 3u);

  // Without the re-lookup the answer is empty: the only provider was dead.
  workload::Testbed bed2(cfg);
  bed2.overlay().share_triples(bed2.storage_addrs()[0], triples, 0);
  dqp::BatchQuery q2 = q;
  q2.initiator = bed2.storage_addrs()[3];
  FaultSchedule schedule2;
  schedule2.storage_fail(0, bed2.storage_addrs()[0]);
  schedule2.rejoin(100, bed2.storage_addrs()[0]);
  dqp::DistributedQueryProcessor proc2(bed2.overlay());
  FaultRunResult res2 = run_with_faults(proc2, bed2.overlay(), {q2}, schedule2);
  EXPECT_EQ(res2.batch.reports.front().relookups, 0);
  EXPECT_TRUE(res2.batch.results.front().solutions.empty());
}

}  // namespace
}  // namespace ahsw::fault
