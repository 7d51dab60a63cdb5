// Regression for the dead-provider resurrection bug: a lazy purge only
// reached the owner's primary row, so when the owner later failed, repair
// promoted the stale replica row and the dead provider came back from the
// grave. `HybridOverlay::report_dead_provider` now forwards every purge to
// the owner's replica holders; these tests check that a crash of the owner
// after a lazy purge keeps the corpse buried.
#include <gtest/gtest.h>

#include "check/audit.hpp"
#include "fault/harness.hpp"
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
  cfg.overlay.replication_factor = 2;
  cfg.foaf.persons = 70;
  cfg.foaf.seed = 51;
  cfg.partition.seed = 52;
  return cfg;
}

const std::string kQuery = std::string(kPrologue) +
                           "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }";

struct ChurnOutcome {
  bool victim_listed_after_repair = false;  // index row resurrected?
  int second_query_skips = 0;               // query paid for it again?
};

/// Fail a provider, let a query lazily purge it, then crash the row's owner
/// and repair: replica promotion must not resurrect the corpse.
ChurnOutcome churn_owner_after_lazy_purge() {
  workload::Testbed bed(config());
  dqp::DistributedQueryProcessor proc(bed.overlay());
  net::NodeAddress victim = bed.storage_addrs()[2];
  bed.overlay().storage_node_fail(victim);

  dqp::ExecutionReport first;
  (void)proc.execute(kQuery, bed.storage_addrs().front(), &first);
  EXPECT_GT(first.dead_providers_skipped, 0) << "victim must be a provider";

  rdf::TriplePattern knows{rdf::Variable{"x"},
                           rdf::Term::iri(std::string(workload::foaf::kKnows)),
                           rdf::Variable{"o"}};
  auto loc = bed.overlay().locate(bed.storage_addrs().front(), knows, 0);
  EXPECT_TRUE(loc.ok);
  for (const overlay::Provider& p : loc.providers) {
    EXPECT_NE(p.address, victim) << "lazy purge must have removed the corpse";
  }

  // Crash the owner of the foaf:knows row; repair promotes the replica.
  bed.overlay().index_node_fail(loc.index_node);
  bed.overlay().repair(0);
  bed.overlay().ring().fix_all_fingers_oracle();

  ChurnOutcome out;
  auto after = bed.overlay().locate(bed.storage_addrs().front(), knows, 0);
  EXPECT_TRUE(after.ok);
  for (const overlay::Provider& p : after.providers) {
    if (p.address == victim) out.victim_listed_after_repair = true;
  }
  dqp::ExecutionReport second;
  (void)proc.execute(kQuery, bed.storage_addrs().front(), &second);
  out.second_query_skips = second.dead_providers_skipped;
  return out;
}

TEST(Resurrection, PurgePropagationKeepsCorpseBuried) {
  // Without the propagation the promoted replica row lists the dead
  // provider again and the next query pays a second round of timeouts for
  // a corpse it already reported.
  ChurnOutcome out = churn_owner_after_lazy_purge();
  EXPECT_FALSE(out.victim_listed_after_repair);
  EXPECT_EQ(out.second_query_skips, 0);
}

TEST(Resurrection, ConvergedAuditCleanAfterChurnStorm) {
  // AHSW_AUDIT-gated end-to-end check: a churny faulted batch followed by
  // convergence must satisfy I6 (no failed node in any primary or replica
  // row) together with the rest of the invariant suite.
  if (!check::audit_enabled()) {
    GTEST_SKIP() << "set AHSW_AUDIT=1 to run the audit-backed storm";
  }
  workload::Testbed bed(config());
  dqp::ExecutionPolicy policy;
  policy.retry.max_retries = 1;
  policy.retry.relookup = true;
  dqp::DistributedQueryProcessor proc(bed.overlay(), policy);

  std::vector<dqp::BatchQuery> batch;
  for (int i = 0; i < 4; ++i) {
    dqp::BatchQuery q;
    q.query = sparql::parse_query(kQuery);
    q.initiator = bed.storage_addrs().front();
    batch.push_back(std::move(q));
  }
  ChurnProfile profile;
  profile.horizon_ms = 400;
  profile.fails_per_second = 8;
  profile.recover_fraction = 0.5;
  profile.repair_every_ms = 150;
  FaultSchedule schedule =
      FaultSchedule::generate(profile, bed.storage_addrs(), 7);
  FaultRunResult res = run_with_faults(proc, bed.overlay(), batch, schedule);

  converge(bed.overlay(), res.batch.makespan);
  check::AuditOptions opt;
  opt.converged = true;
  opt.churned = true;
  check::AuditReport rep = check::audit(bed.overlay(), opt);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(rep.count(check::Invariant::kLiveness), 0u) << rep.to_string();
}

}  // namespace
}  // namespace ahsw::fault
