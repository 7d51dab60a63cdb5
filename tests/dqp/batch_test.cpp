// Concurrent multi-query execution through the shared event scheduler:
// per-query results still match the oracle, per-query traffic attribution
// conserves the network-wide delta (I5 per root span), identical seeds
// replay byte-identically, the batch makespan beats serial execution, and
// the per-node service model only ever delays cross-query work.
#include <gtest/gtest.h>

#include <numeric>

#include "check/audit.hpp"
#include "dqp_test_util.hpp"

namespace ahsw::dqp {
namespace {

using testing::canon;
using testing::kPrologue;

workload::TestbedConfig config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 5;
  cfg.storage_nodes = 8;
  cfg.foaf.persons = 70;
  cfg.foaf.seed = 71;
  cfg.partition.overlap = 0.25;
  cfg.partition.seed = 72;
  cfg.overlay.seed = 73;
  return cfg;
}

/// Eight queries spanning the plan classes, one initiator each.
std::vector<std::string> batch_queries() {
  const char* bodies[] = {
      "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }",
      "SELECT ?x ?n WHERE { ?x foaf:name ?n . ?x foaf:nick ?k . }",
      "SELECT ?x ?y ?n WHERE { ?x foaf:knows ?y . "
      "OPTIONAL { ?y foaf:nick ?n . } }",
      "SELECT ?x WHERE { { ?x foaf:nick ?n . } UNION "
      "{ ?x foaf:mbox ?m . } }",
      "SELECT ?x ?n WHERE { ?x foaf:name ?n . FILTER regex(?n, \"a\") }",
      "ASK { ?x foaf:knows ?y . }",
      "SELECT ?o WHERE { <http://example.org/people/p1> foaf:knows ?o . }",
      "SELECT DISTINCT ?n WHERE { ?x foaf:name ?n . } ORDER BY ?n LIMIT 5",
  };
  std::vector<std::string> out;
  for (const char* b : bodies) out.push_back(std::string(kPrologue) + b);
  return out;
}

std::vector<net::NodeAddress> initiators(const workload::Testbed& bed,
                                         std::size_t n) {
  std::vector<net::NodeAddress> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(bed.storage_addrs()[i % bed.storage_addrs().size()]);
  }
  return out;
}

TEST(Batch, ResultsMatchOracleAndTrafficConserves) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  obs::QueryTrace trace;
  proc.set_trace(&trace);

  std::vector<std::string> queries = batch_queries();
  const net::TrafficStats before = bed.network().stats();
  BatchResult r =
      proc.execute_batch(queries, initiators(bed, queries.size()));
  const net::TrafficStats delta = bed.network().stats().delta_since(before);

  ASSERT_EQ(r.results.size(), queries.size());
  ASSERT_EQ(r.reports.size(), queries.size());
  ASSERT_EQ(r.root_spans.size(), queries.size());

  // Every query's answer equals the single-site oracle.
  rdf::TripleStore merged = bed.overlay().merged_store();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    sparql::Query q = sparql::parse_query(queries[i]);
    sparql::QueryResult oracle = sparql::execute_local(q, merged);
    if (q.form == sparql::QueryForm::kAsk) {
      EXPECT_EQ(r.results[i].ask_answer, oracle.ask_answer) << queries[i];
    } else {
      EXPECT_EQ(canon(r.results[i].solutions).rows(),
                canon(oracle.solutions).rows())
          << queries[i];
    }
  }

  // Per-query traffic sums exactly to the batch-wide network delta, and
  // each query's root span subtree carries exactly its reported traffic.
  net::TrafficStats sum;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const net::TrafficStats& t = r.reports[i].traffic;
    sum.messages += t.messages;
    sum.bytes += t.bytes;
    sum.timeouts += t.timeouts;
    const net::TrafficStats subtree = trace.subtree(r.root_spans[i]);
    EXPECT_EQ(subtree.bytes, t.bytes) << i;
    EXPECT_EQ(subtree.messages, t.messages) << i;
    EXPECT_EQ(subtree.timeouts, t.timeouts) << i;
  }
  EXPECT_EQ(sum.messages, delta.messages);
  EXPECT_EQ(sum.bytes, delta.bytes);
  EXPECT_EQ(sum.timeouts, delta.timeouts);

  // I5 over the whole interleaved trace.
  check::AuditReport audit;
  check::audit_conservation(trace, delta, audit);
  EXPECT_TRUE(audit.pristine()) << audit.to_string();

  // Makespan: the batch finishes when its slowest query does, strictly
  // before the serial sum of the same response times.
  net::SimTime max_rt = 0;
  net::SimTime sum_rt = 0;
  for (const ExecutionReport& rep : r.reports) {
    max_rt = std::max(max_rt, rep.response_time);
    sum_rt += rep.response_time;
  }
  EXPECT_EQ(r.makespan, max_rt);
  EXPECT_LT(r.makespan, sum_rt);

  // Query-id labels on the interleaved roots.
  EXPECT_EQ(trace.span(r.root_spans[0]).label.rfind("q0 ", 0), 0u);
  EXPECT_EQ(trace.span(r.root_spans[7]).label.rfind("q7 ", 0), 0u);
  proc.set_trace(nullptr);
}

/// Spans compared field-by-field (determinism must include the trace).
void expect_traces_identical(const obs::QueryTrace& a,
                             const obs::QueryTrace& b) {
  ASSERT_EQ(a.spans().size(), b.spans().size());
  for (std::size_t i = 0; i < a.spans().size(); ++i) {
    const obs::Span& x = a.spans()[i];
    const obs::Span& y = b.spans()[i];
    EXPECT_EQ(x.parent, y.parent) << i;
    EXPECT_EQ(x.kind, y.kind) << i;
    EXPECT_EQ(x.label, y.label) << i;
    EXPECT_EQ(x.site, y.site) << i;
    EXPECT_EQ(x.begin, y.begin) << i;
    EXPECT_EQ(x.end, y.end) << i;
    EXPECT_EQ(x.traffic.messages, y.traffic.messages) << i;
    EXPECT_EQ(x.traffic.bytes, y.traffic.bytes) << i;
    EXPECT_EQ(x.traffic.timeouts, y.traffic.timeouts) << i;
    EXPECT_EQ(x.children, y.children) << i;
  }
}

TEST(Batch, IdenticalSeedsReplayByteIdentically) {
  BatchOptions opts;
  opts.service.service_ms = 1.5;  // contention on, to stress event order

  auto run_once = [&](obs::QueryTrace& trace) {
    workload::Testbed bed(config());
    DistributedQueryProcessor proc(bed.overlay());
    proc.set_trace(&trace);
    std::vector<std::string> queries = batch_queries();
    BatchResult r =
        proc.execute_batch(queries, initiators(bed, queries.size()), opts);
    proc.set_trace(nullptr);
    return r;
  };

  obs::QueryTrace trace_a;
  obs::QueryTrace trace_b;
  BatchResult a = run_once(trace_a);
  BatchResult b = run_once(trace_b);

  ASSERT_EQ(a.reports.size(), b.reports.size());
  EXPECT_EQ(a.makespan, b.makespan);
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_EQ(a.results[i].solutions.rows(), b.results[i].solutions.rows());
    EXPECT_EQ(a.reports[i].response_time, b.reports[i].response_time) << i;
    EXPECT_EQ(a.reports[i].traffic.messages, b.reports[i].traffic.messages);
    EXPECT_EQ(a.reports[i].traffic.bytes, b.reports[i].traffic.bytes);
    EXPECT_EQ(a.reports[i].plan_notes, b.reports[i].plan_notes) << i;
  }
  expect_traces_identical(trace_a, trace_b);
}

TEST(Batch, ServiceModelOnlyDelaysCrossQueryWork) {
  std::vector<std::string> queries = batch_queries();

  // Baseline: no contention.
  workload::Testbed bed_a(config());
  DistributedQueryProcessor proc_a(bed_a.overlay());
  BatchResult free_run =
      proc_a.execute_batch(queries, initiators(bed_a, queries.size()));

  // Same batch under contention: traffic is untouched (queueing charges
  // time, not bytes); per-query response times only ever grow.
  BatchOptions opts;
  opts.service.service_ms = 2.0;
  workload::Testbed bed_b(config());
  DistributedQueryProcessor proc_b(bed_b.overlay());
  BatchResult busy_run =
      proc_b.execute_batch(queries, initiators(bed_b, queries.size()), opts);

  ASSERT_EQ(free_run.reports.size(), busy_run.reports.size());
  bool some_delay = false;
  for (std::size_t i = 0; i < free_run.reports.size(); ++i) {
    EXPECT_EQ(busy_run.reports[i].traffic.bytes,
              free_run.reports[i].traffic.bytes)
        << i;
    EXPECT_EQ(busy_run.reports[i].traffic.messages,
              free_run.reports[i].traffic.messages)
        << i;
    EXPECT_GE(busy_run.reports[i].response_time,
              free_run.reports[i].response_time)
        << i;
    some_delay |= busy_run.reports[i].response_time >
                  free_run.reports[i].response_time;
    EXPECT_EQ(busy_run.results[i].solutions.rows(),
              free_run.results[i].solutions.rows())
        << i;
  }
  EXPECT_TRUE(some_delay);  // eight queries on eight nodes must collide
  EXPECT_GE(busy_run.makespan, free_run.makespan);

  // A batch of one never queues on itself: the model charges nothing.
  workload::Testbed bed_c(config());
  DistributedQueryProcessor proc_c(bed_c.overlay());
  BatchResult solo = proc_c.execute_batch({queries[1]},
                                          {bed_c.storage_addrs().front()},
                                          opts);
  workload::Testbed bed_d(config());
  DistributedQueryProcessor proc_d(bed_d.overlay());
  ExecutionReport direct_rep;
  (void)proc_d.execute(queries[1], bed_d.storage_addrs().front(),
                       &direct_rep);
  EXPECT_EQ(solo.reports[0].response_time, direct_rep.response_time);
}

TEST(Batch, DeadProviderBatchStillConserves) {
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  bed.overlay().storage_node_fail(bed.storage_addrs()[3]);
  obs::QueryTrace trace;
  proc.set_trace(&trace);

  std::vector<std::string> queries = batch_queries();
  const net::TrafficStats before = bed.network().stats();
  BatchResult r =
      proc.execute_batch(queries, initiators(bed, queries.size()));
  const net::TrafficStats delta = bed.network().stats().delta_since(before);

  check::AuditReport audit;
  check::AuditOptions opts;
  opts.churned = true;
  check::audit_conservation(trace, delta, audit, opts);
  EXPECT_TRUE(audit.pristine()) << audit.to_string();

  std::uint64_t timeouts = std::accumulate(
      r.reports.begin(), r.reports.end(), std::uint64_t{0},
      [](std::uint64_t acc, const ExecutionReport& rep) {
        return acc + rep.traffic.timeouts;
      });
  EXPECT_GT(timeouts, 0u);
  EXPECT_EQ(timeouts, delta.timeouts);
  proc.set_trace(nullptr);
}

// Batch of one must agree with single-query execution byte for byte (the
// execute() path is itself a batch of one; this pins the public API).
TEST(DagBatch, SingleQueryBatchMatchesExecute) {
  const std::string query = batch_queries()[1];

  workload::Testbed bed_a(config());
  DistributedQueryProcessor proc_a(bed_a.overlay());
  ExecutionReport rep;
  sparql::QueryResult direct =
      proc_a.execute(query, bed_a.storage_addrs().front(), &rep);

  workload::Testbed bed_b(config());
  DistributedQueryProcessor proc_b(bed_b.overlay());
  BatchResult batch =
      proc_b.execute_batch({query}, {bed_b.storage_addrs().front()});

  ASSERT_EQ(batch.results.size(), 1u);
  EXPECT_EQ(batch.results[0].solutions.rows(), direct.solutions.rows());
  EXPECT_EQ(batch.reports[0].response_time, rep.response_time);
  EXPECT_EQ(batch.makespan, rep.response_time);
  const net::TrafficStats& a = batch.reports[0].traffic;
  const net::TrafficStats& b = rep.traffic;
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.raw_bytes, b.raw_bytes);
  EXPECT_EQ(a.timeouts, b.timeouts);
  for (int c = 0; c < net::kCategoryCount; ++c) {
    EXPECT_EQ(a.messages_by[c], b.messages_by[c]) << "category " << c;
    EXPECT_EQ(a.bytes_by[c], b.bytes_by[c]) << "category " << c;
    EXPECT_EQ(a.timeouts_by[c], b.timeouts_by[c]) << "category " << c;
  }
}

}  // namespace
}  // namespace ahsw::dqp
