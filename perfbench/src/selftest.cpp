// The benchmark's own tests (`perfbench --selftest`):
//
//   - the answer checker accepts a correct answer and rejects corrupted
//     ones (a dropped row, an extra row, a flipped ASK answer), and the
//     parallel-vs-serial comparison names each corrupted field;
//   - every workload, at tiny sizes, attempts the same operations and
//     reports identical simulated metrics for one seed, generates other
//     inputs for another seed, and fails no operation, traced or not.
#include <iostream>
#include <string>

#include "bench.hpp"
#include "workload/testbed.hpp"

namespace perfbench {

using namespace ahsw;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "selftest FAIL: " << what << "\n";
  }
}

void checker_rejects_corruption() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 16;
  cfg.storage_nodes = 4;
  cfg.foaf.persons = 30;
  workload::Testbed bed(cfg);
  dqp::DistributedQueryProcessor proc(bed.overlay());
  const std::string select =
      "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
      "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }";
  const std::string ask =
      "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
      "ASK { ?x foaf:knows ?y . }";
  const rdf::TripleStore merged = bed.overlay().merged_store();
  const net::NodeAddress from = bed.storage_addrs().front();

  dqp::ExecutionReport rep;
  const sparql::QueryResult got = proc.execute(select, from, &rep);
  const sparql::QueryResult want =
      sparql::execute_local(sparql::parse_query(select), merged);
  expect(got.solutions.size() > 1, "select query has rows to corrupt");
  expect(same_answer(got, want), "checker accepts the correct answer");

  sparql::QueryResult dropped = got;
  dropped.solutions.rows().pop_back();
  expect(!same_answer(dropped, want), "checker rejects a dropped row");

  sparql::QueryResult extra = got;
  sparql::Binding bogus;
  bogus.set("x", rdf::Term::iri("http://example.org/people/nobody"));
  bogus.set("y", rdf::Term::iri("http://example.org/people/nobody"));
  extra.solutions.add(bogus);
  expect(!same_answer(extra, want), "checker rejects an extra row");

  const sparql::QueryResult yes = proc.execute(ask, from);
  sparql::QueryResult flipped = yes;
  flipped.ask_answer = !yes.ask_answer;
  expect(same_answer(yes, sparql::execute_local(sparql::parse_query(ask), merged)),
         "checker accepts the correct ASK answer");
  expect(!same_answer(flipped, yes), "checker rejects a flipped ASK answer");

  expect(serial_divergence(got, rep, got, rep).empty(),
         "identical runs do not diverge");
  expect(serial_divergence(dropped, rep, got, rep) == "solution rows",
         "divergence names corrupted rows");
  dqp::ExecutionReport slow = rep;
  slow.response_time += 1;
  expect(serial_divergence(got, slow, got, rep) == "response time",
         "divergence names a corrupted response time");
  dqp::ExecutionReport heavy = rep;
  heavy.traffic.bytes += 1;
  expect(serial_divergence(got, heavy, got, rep) == "traffic",
         "divergence names corrupted traffic");
  dqp::ExecutionReport hoppy = rep;
  hoppy.ring_hops += 1;
  expect(serial_divergence(got, hoppy, got, rep) == "lookup counters",
         "divergence names corrupted lookup counters");

  RunResult r;
  r.fail("one");
  r.fail("two");
  expect(r.failed == 2 && r.failures.size() == 2, "every failure is counted");
}

Metrics sim_only(const Metrics& m) {
  Metrics out;
  for (const auto& [name, metric] : m) {
    if (name.rfind("sim_", 0) == 0) out[name] = metric;
  }
  return out;
}

bool same_values(const Metrics& a, const Metrics& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, metric] : a) {
    auto it = b.find(name);
    if (it == b.end() || it->second.value != metric.value) return false;
  }
  return true;
}

void workloads_are_deterministic() {
  for (Workload w : kAllWorkloads) {
    const std::string name(workload_name(w));
    RunConfig c;
    c.workload = w;
    c.tiny = true;
    c.seed = 11;
    const RunResult a = run_workload(c);
    const RunResult b = run_workload(c);
    c.seed = 12;
    const RunResult other = run_workload(c);
    c.trace = true;
    const RunResult traced = run_workload(c);

    for (const RunResult* r : {&a, &b, &other, &traced}) {
      expect(r->ops > 0 && r->failed == 0,
             name + ": operations attempted and none failed" +
                 (r->failures.empty() ? "" : " (" + r->failures.front() + ")"));
    }
    expect(a.ops == b.ops, name + ": same seed attempts the same operations");
    expect(!sim_only(a.metrics).empty() &&
               same_values(sim_only(a.metrics), sim_only(b.metrics)),
           name + ": same seed gives identical sim_* metrics");
    expect(a.input_digest == b.input_digest,
           name + ": same seed generates the same inputs");
    expect(a.input_digest != other.input_digest,
           name + ": another seed generates other inputs");
    expect(traced.metrics.count("obs.trace_overhead_pct") == 1,
           name + ": traced run reports the trace overhead");
  }
}

}  // namespace

int run_selftest() {
  failures = 0;
  checker_rejects_corruption();
  workloads_are_deterministic();
  std::cout << "selftest: " << (failures == 0 ? "ok" : "FAILED") << " ("
            << failures << " failed checks)\n";
  return failures;
}

}  // namespace perfbench
