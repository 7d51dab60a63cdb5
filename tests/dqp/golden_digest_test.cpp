// Golden digests of the distributed query processor's observable behaviour.
//
// Every case runs one query (or one faulted batch) on a freshly built,
// identical-seed testbed and reduces what it observed to digest lines of the
// form `<case> <field> <value>`: result form, rows, graph and ASK answer;
// response time; per-category messages, bytes and timeouts plus total raw
// bytes; the report counters; plan notes and EXPLAIN lines; batch makespan;
// and the I5 conservation audit of the traced run. Scalars are stored
// verbatim, long strings as `n=<count> h=<fnv1a64>` over their lines.
//
// The expected lines live in tests/dqp/golden_digests.txt and
// tests/dqp/kernel_digests.txt. They were captured while the recursive
// interpreter and the row-at-a-time set operators still ran beside the DAG
// executor and the dictionary-id kernels, and all four combinations produced
// these exact lines, so they are the contract any refactor of the engine or
// the set kernels must keep. Each test checks one case; a mismatch reports
// the first differing field together with the actual line. There is no
// regenerate switch: a change that moves a digest on purpose edits the file
// by hand, in the same commit, and says why.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "common/hash.hpp"
#include "dqp_test_util.hpp"
#include "fault/harness.hpp"
#include "obs/explain.hpp"
#include "overlay/keys.hpp"
#include "workload/vocab.hpp"

namespace ahsw::dqp {
namespace {

using optimizer::JoinSitePolicy;
using optimizer::PrimitiveStrategy;
using testing::kPrologue;

std::string hex_digest(const std::vector<std::string>& lines) {
  std::uint64_t h = common::fnv1a64("");
  for (const std::string& line : lines) {
    h = common::fnv1a64(line, h);
    h = common::fnv1a64("\n", h);
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "n=%zu h=%016" PRIx64, lines.size(), h);
  return buf;
}

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Accumulates the digest lines of one test section.
class Digest {
 public:
  void add(const std::string& case_id, const std::string& field,
           const std::string& value) {
    lines_.push_back(case_id + " " + field + " " + value);
  }

  void add_result(const std::string& id, const sparql::QueryResult& r) {
    std::string form = std::to_string(static_cast<int>(r.form));
    for (const std::string& v : r.variables) form += " ?" + v;
    add(id, "form", form);
    std::vector<std::string> rows;
    for (const sparql::Binding& b : r.solutions.rows()) {
      rows.push_back(b.to_string());
    }
    add(id, "rows", hex_digest(rows));
    std::vector<std::string> graph;
    for (const rdf::Triple& t : r.graph) graph.push_back(t.to_string());
    add(id, "graph", hex_digest(graph));
    add(id, "ask", r.ask_answer ? "1" : "0");
  }

  void add_traffic(const std::string& id, const std::string& field,
                   const net::TrafficStats& t) {
    add(id, field,
        "messages=" + std::to_string(t.messages) +
            " bytes=" + std::to_string(t.bytes) +
            " raw_bytes=" + std::to_string(t.raw_bytes) +
            " timeouts=" + std::to_string(t.timeouts));
    for (int c = 0; c < net::kCategoryCount; ++c) {
      add(id,
          field + "." +
              std::string(net::category_name(static_cast<net::Category>(c))),
          "messages=" + std::to_string(t.messages_by[c]) +
              " bytes=" + std::to_string(t.bytes_by[c]) +
              " timeouts=" + std::to_string(t.timeouts_by[c]));
    }
  }

  void add_report(const std::string& id, const ExecutionReport& rep) {
    add(id, "response_time", exact(rep.response_time));
    add_traffic(id, "traffic", rep.traffic);
    add(id, "counters",
        "index_lookups=" + std::to_string(rep.index_lookups) +
            " ring_hops=" + std::to_string(rep.ring_hops) +
            " providers_contacted=" + std::to_string(rep.providers_contacted) +
            " dead_providers_skipped=" +
            std::to_string(rep.dead_providers_skipped) +
            " retries=" + std::to_string(rep.retries) +
            " relookups=" + std::to_string(rep.relookups) +
            " complete=" + (rep.complete ? "1" : "0"));
    add(id, "plan_notes", hex_digest(rep.plan_notes));
  }

  void add_explain(const std::string& id, const obs::QueryTrace& trace,
                   obs::SpanId root) {
    add(id, "explain", hex_digest(obs::explain_lines(trace, root)));
  }

  void add_audit(const std::string& id, const check::AuditReport& audit) {
    add(id, "audit",
        "corrupt=" + std::to_string(audit.corrupt) +
            " stale=" + std::to_string(audit.stale) + " " +
            hex_digest({audit.to_string()}));
  }

  [[nodiscard]] const std::vector<std::string>& lines() const noexcept {
    return lines_;
  }

 private:
  std::vector<std::string> lines_;
};

/// Committed lines of the digest file at `path` whose case id starts with
/// `section`.
std::vector<std::string> golden_section(const char* path,
                                        const std::string& section) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    if (line.compare(0, section.size(), section) == 0) out.push_back(line);
  }
  return out;
}

/// "<case> <field>" of a digest line.
std::string case_and_field(const std::string& line) {
  std::size_t case_end = line.find(' ');
  if (case_end == std::string::npos) return line;
  std::size_t field_end = line.find(' ', case_end + 1);
  return line.substr(0, field_end);
}

void expect_matches_golden(const Digest& digest, const char* path,
                           const std::string& section) {
  const std::vector<std::string> golden = golden_section(path, section);
  const std::vector<std::string>& actual = digest.lines();
  const std::size_t n = std::min(golden.size(), actual.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (golden[i] != actual[i]) {
      ADD_FAILURE() << "first golden digest mismatch at "
                    << case_and_field(golden[i]) << "\n  expected: "
                    << golden[i] << "\n  actual:   " << actual[i];
      return;
    }
  }
  if (golden.size() != actual.size()) {
    ADD_FAILURE() << "section " << section << ": " << golden.size()
                  << " golden lines, " << actual.size() << " actual; first "
                  << "unmatched line: "
                  << (golden.size() > n ? "expected " + golden[n]
                                        : "actual " + actual[n]);
  }
}

workload::TestbedConfig single_config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 5;
  cfg.storage_nodes = 6;
  cfg.foaf.persons = 70;
  cfg.foaf.seed = 31;
  cfg.partition.overlap = 0.25;
  cfg.partition.seed = 32;
  cfg.overlay.seed = 33;
  return cfg;
}

workload::TestbedConfig faulted_config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 5;
  cfg.storage_nodes = 6;
  cfg.foaf.persons = 60;
  cfg.foaf.seed = 91;
  cfg.partition.overlap = 0.25;
  cfg.partition.seed = 92;
  cfg.overlay.seed = 93;
  return cfg;
}

struct QueryClass {
  const char* name;
  const char* body;
};

/// Names the test parameter in failure messages.
void PrintTo(const QueryClass& qc, std::ostream* os) { *os << qc.name; }

// One query per class the plan compiler distinguishes.
const QueryClass kQueryClasses[] = {
    {"primitive", "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }"},
    {"conjunction",
     "SELECT ?x ?n ?o WHERE { ?x foaf:name ?n . ?x foaf:knows ?o . "
     "?o foaf:nick ?k . }"},
    {"optional",
     "SELECT ?x ?y ?n WHERE { ?x foaf:knows ?y . "
     "OPTIONAL { ?y foaf:nick ?n . } }"},
    {"union",
     "SELECT ?x WHERE { { ?x foaf:nick ?n . } UNION { ?x foaf:mbox ?m . } }"},
    {"filter",
     "SELECT ?x ?n WHERE { ?x foaf:name ?n . FILTER regex(?n, \"a\") }"},
    {"ask", "ASK { ?x foaf:knows ?y . }"},
    {"describe", "DESCRIBE <http://example.org/people/p0>"},
    {"modifiers",
     "SELECT DISTINCT ?n WHERE { ?x foaf:name ?n . } ORDER BY ?n "
     "LIMIT 5 OFFSET 2"},
};

ExecutionPolicy policy_for(const std::string& variant) {
  ExecutionPolicy policy;
  if (variant == "basic-third-site") {
    policy.primitive = PrimitiveStrategy::kBasic;
    policy.join_site = JoinSitePolicy::kThirdSite;
  } else if (variant == "chain-no-overlap-no-pushdown") {
    policy.primitive = PrimitiveStrategy::kChain;
    policy.overlap_aware_sites = false;
    policy.frequency_join_order = false;
    policy.push_filters = false;
  } else if (variant == "adaptive-dead-provider") {
    policy.adaptive = true;
  }
  return policy;
}

/// Run one query traced on a fresh testbed, digest everything it shows and
/// compare the digest with the lines of case `id` in the file at `path`.
void expect_single_matches_golden(const char* path, const std::string& id,
                                  const workload::TestbedConfig& cfg,
                                  const ExecutionPolicy& policy,
                                  bool kill_provider, const QueryClass& qc) {
  workload::Testbed bed(cfg);
  DistributedQueryProcessor proc(bed.overlay(), policy);
  if (kill_provider) {
    bed.overlay().storage_node_fail(bed.storage_addrs()[2]);
  }
  obs::QueryTrace trace;
  proc.set_trace(&trace);

  ExecutionReport rep;
  sparql::QueryResult result = proc.execute(
      std::string(kPrologue) + qc.body, bed.storage_addrs().front(), &rep);

  check::AuditReport audit;
  check::AuditOptions opts;
  opts.churned = kill_provider;
  check::audit_conservation(trace, rep.traffic, audit, opts);
  proc.set_trace(nullptr);

  Digest digest;
  digest.add_result(id, result);
  digest.add_report(id, rep);
  ASSERT_EQ(trace.roots().size(), 1u) << id;
  digest.add_explain(id, trace, trace.roots().front());
  digest.add_audit(id, audit);
  expect_matches_golden(digest, path, id + " ");
}

// --- Engine: 8 query classes x 5 policy variants. -----------------------

/// The recursive interpreter produced these cases' lines too, so each test
/// holds the DAG executor to the engine it replaced, field by field.
class DagEquivalence : public ::testing::TestWithParam<QueryClass> {
 protected:
  void expect_variant(const char* variant, bool kill_provider) const {
    expect_single_matches_golden(
        AHSW_GOLDEN_DIGESTS,
        std::string("single/") + variant + "/" + GetParam().name,
        single_config(), policy_for(variant), kill_provider, GetParam());
  }
};

TEST_P(DagEquivalence, DefaultPolicyHealthy) {
  expect_variant("default-healthy", /*kill_provider=*/false);
}

TEST_P(DagEquivalence, DefaultPolicyDeadProvider) {
  expect_variant("default-dead-provider", /*kill_provider=*/true);
}

TEST_P(DagEquivalence, BasicStrategyThirdSite) {
  expect_variant("basic-third-site", /*kill_provider=*/false);
}

TEST_P(DagEquivalence, ChainNoOverlapNoPushdown) {
  expect_variant("chain-no-overlap-no-pushdown", /*kill_provider=*/false);
}

TEST_P(DagEquivalence, AdaptiveDeadProvider) {
  expect_variant("adaptive-dead-provider", /*kill_provider=*/true);
}

INSTANTIATE_TEST_SUITE_P(QueryClasses, DagEquivalence,
                         ::testing::ValuesIn(kQueryClasses));

// --- Set kernels: 5 query classes, healthy and with a dead provider. ----

/// The first five classes are the ones whose local operators do set work:
/// scan, join chain, OPTIONAL's conditioned left join, UNION with merge
/// dedup, FILTER. They run on the faulted batch's testbed. The
/// row-at-a-time operators (now the reference in tests/support/) produced
/// these cases' lines too, so each test holds the dictionary-id kernels to
/// them across a whole distributed query.
/// tests/sparql/kernel_reference_test.cpp checks the kernels one by one.
class VectorizedToggle : public ::testing::TestWithParam<QueryClass> {
 protected:
  void expect_variant(const char* variant, bool kill_provider) const {
    expect_single_matches_golden(
        AHSW_KERNEL_DIGESTS,
        std::string("kernels/") + variant + "/" + GetParam().name,
        faulted_config(), ExecutionPolicy{}, kill_provider, GetParam());
  }
};

TEST_P(VectorizedToggle, InvisibleOnHealthySystem) {
  expect_variant("healthy", /*kill_provider=*/false);
}

TEST_P(VectorizedToggle, InvisibleWithDeadProvider) {
  expect_variant("dead-provider", /*kill_provider=*/true);
}

INSTANTIATE_TEST_SUITE_P(QueryClasses, VectorizedToggle,
                         ::testing::ValuesIn(std::begin(kQueryClasses),
                                             std::begin(kQueryClasses) + 5));

// --- Faulted batch with retries and lazy re-lookup. ---------------------

/// Mid-batch provider failure, repair, recovery and rejoin. The retry and
/// re-lookup paths re-ship carried solution sets, so they exercise the
/// merge kernels and re-charging under churn.
TEST(GoldenDigest, FaultedRetryBatch) {
  const char* bodies[] = {
      "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }",
      "SELECT ?x ?n WHERE { ?x foaf:name ?n . }",
      "ASK { ?x foaf:knows ?y . }",
      "SELECT ?x WHERE { ?x foaf:nick ?k . }",
  };
  workload::Testbed bed(faulted_config());
  ExecutionPolicy policy;
  policy.retry.max_retries = 1;
  policy.retry.relookup = true;
  DistributedQueryProcessor proc(bed.overlay(), policy);
  std::vector<BatchQuery> batch;
  for (std::size_t i = 0; i < std::size(bodies); ++i) {
    batch.push_back(
        BatchQuery{sparql::parse_query(std::string(kPrologue) + bodies[i]),
                   bed.storage_addrs()[i % bed.storage_addrs().size()]});
  }
  const net::NodeAddress victim = bed.storage_addrs()[4];
  fault::FaultSchedule schedule;
  schedule.storage_fail(4.0, victim)
      .repair(500.0)
      .recover(600.0, victim)
      .rejoin(650.0, victim);

  obs::QueryTrace trace;
  proc.set_trace(&trace);
  const net::TrafficStats before = bed.network().stats();
  fault::FaultRunResult run = fault::run_with_faults(
      proc, bed.overlay(), batch, schedule, BatchOptions{});
  const net::TrafficStats delta = bed.network().stats().delta_since(before);
  check::AuditReport audit;
  check::AuditOptions opts;
  opts.churned = true;
  check::audit_conservation(trace, delta, audit, opts);
  proc.set_trace(nullptr);

  Digest digest;
  int retries = 0;
  ASSERT_EQ(run.batch.results.size(), batch.size());
  ASSERT_EQ(run.batch.root_spans.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::string id = "faulted-retry/q" + std::to_string(i);
    digest.add_result(id, run.batch.results[i]);
    digest.add_report(id, run.batch.reports[i]);
    digest.add_explain(id, trace, run.batch.root_spans[i]);
    retries += run.batch.reports[i].retries +
               run.batch.reports[i].dead_providers_skipped;
  }
  digest.add("faulted-retry/batch", "makespan", exact(run.batch.makespan));
  digest.add_traffic("faulted-retry/batch", "delta", delta);
  digest.add_audit("faulted-retry/batch", audit);
  EXPECT_GT(retries, 0) << "fault did not bite; the case pins nothing";
  expect_matches_golden(digest, AHSW_GOLDEN_DIGESTS, "faulted-retry/");
}

// --- Location tables after index and storage churn. ---------------------

/// The rows of one location table, one line per entry: key, address,
/// frequency and version.
std::vector<std::string> table_lines(const overlay::LocationTable& table) {
  std::vector<std::string> out;
  for (const overlay::Row& r : table.rows()) {
    for (const overlay::Provider& p : r.providers) {
      out.push_back(std::to_string(r.key) + " " + std::to_string(p.address) +
                    " " + std::to_string(p.frequency) + " " +
                    std::to_string(p.version));
    }
  }
  return out;
}

/// Replication factor 3 on 8 index nodes. Under a faulted batch an index
/// node and a storage node fail, repair promotes replica rows and re-seeds
/// the replicas, and the storage node recovers and rejoins; then another
/// node retracts triples and the system converges. Digests the traffic of
/// the whole run and, for every live index node in id order, its primary
/// and replica rows and both tables' byte sizes (tombstones included).
TEST(GoldenDigest, ChurnedIndexState) {
  const char* bodies[] = {
      "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }",
      "SELECT ?x ?n WHERE { ?x foaf:name ?n . }",
      "SELECT ?x WHERE { ?x foaf:nick ?k . }",
  };
  workload::TestbedConfig cfg = faulted_config();
  cfg.index_nodes = 8;
  cfg.overlay.replication_factor = 3;
  workload::Testbed bed(cfg);
  ExecutionPolicy policy;
  policy.retry.max_retries = 1;
  policy.retry.relookup = true;
  DistributedQueryProcessor proc(bed.overlay(), policy);
  std::vector<BatchQuery> batch;
  for (std::size_t i = 0; i < std::size(bodies); ++i) {
    batch.push_back(
        BatchQuery{sparql::parse_query(std::string(kPrologue) + bodies[i]),
                   bed.storage_addrs()[i]});
  }
  const net::NodeAddress victim = bed.storage_addrs()[4];
  fault::FaultSchedule schedule;
  schedule.index_fail(1.0, bed.index_ids()[3])
      .storage_fail(2.0, victim)
      .repair(300.0)
      .recover(600.0, victim)
      .rejoin(650.0, victim);

  const net::TrafficStats before = bed.network().stats();
  fault::FaultRunResult run = fault::run_with_faults(
      proc, bed.overlay(), batch, schedule, BatchOptions{});
  ASSERT_EQ(run.injection_log.applied, 5);
  const net::NodeAddress leaver = bed.storage_addrs()[1];
  std::vector<rdf::Triple> retracted;
  bed.overlay().store_of(leaver).for_each([&](const rdf::Triple& t) {
    if (retracted.size() < 12) retracted.push_back(t);
  });
  bed.overlay().unshare_triples(leaver, retracted, 1000.0);
  fault::converge(bed.overlay(), 2000.0);
  const net::TrafficStats delta = bed.network().stats().delta_since(before);

  Digest digest;
  digest.add_traffic("churned-index/run", "delta", delta);
  int live = 0;
  for (const auto& [id, ix] : bed.overlay().index_nodes()) {
    if (!bed.overlay().ring().contains(id) ||
        bed.network().is_failed(ix.address)) {
      continue;
    }
    const std::string node = "churned-index/node" + std::to_string(live++);
    digest.add(node, "id", std::to_string(id));
    digest.add(node, "table", hex_digest(table_lines(ix.table)));
    digest.add(node, "replicas", hex_digest(table_lines(ix.replicas)));
    digest.add(node, "bytes",
               "table=" + std::to_string(ix.table.byte_size()) +
                   " replicas=" + std::to_string(ix.replicas.byte_size()));
  }
  EXPECT_EQ(live, 7);
  expect_matches_golden(digest, AHSW_GOLDEN_DIGESTS, "churned-index/");
}

// --- The index-write send sequence. ------------------------------------

/// Replication factor 3 on 8 index nodes, with a message tracer attached
/// after setup. Each step of share -> unshare -> storage fail and rejoin ->
/// storage leave -> republish_all -> index fail and repair gets one line
/// digesting every message it sent (from, to, bytes, raw bytes, send and
/// arrival time, category) in send order; two initiators hold invalidation
/// leases on rows each step touches. Then, for every live index node in id
/// order, its primary and replica rows, tombstone versions and byte sizes.
TEST(GoldenDigest, IndexWriteSendSequence) {
  workload::TestbedConfig cfg = faulted_config();
  cfg.index_nodes = 8;
  cfg.overlay.replication_factor = 3;
  workload::Testbed bed(cfg);
  overlay::HybridOverlay& ov = bed.overlay();
  net::Network& network = bed.network();
  const std::vector<net::NodeAddress>& storage = bed.storage_addrs();

  std::vector<std::string> sent;
  network.set_tracer([&](const net::MessageEvent& e) {
    sent.push_back(std::to_string(e.from) + " " + std::to_string(e.to) + " " +
                   std::to_string(e.bytes) + " " +
                   std::to_string(e.raw_bytes) + " " + exact(e.sent_at) +
                   " " + exact(e.arrives_at) + " " +
                   std::string(net::category_name(e.category)));
  });
  Digest digest;
  auto step = [&](const std::string& name) {
    digest.add("send-sequence/" + name, "sent", hex_digest(sent));
    sent.clear();
  };

  const rdf::Term knows = rdf::Term::iri(std::string(workload::foaf::kKnows));
  const rdf::Term name = rdf::Term::iri(std::string(workload::foaf::kName));
  const std::vector<chord::Key> leased = {
      overlay::index_key(overlay::IndexKeyKind::kP, knows),
      overlay::index_key(overlay::IndexKeyKind::kP, name)};
  auto lease = [&] {
    for (chord::Key key : leased) {
      ov.subscribe_invalidations(key, storage[0]);
      ov.subscribe_invalidations(key, storage[5]);
    }
  };

  const net::NodeAddress writer = storage[2];
  std::vector<rdf::Triple> added;
  for (int i = 0; i < 8; ++i) {
    const rdf::Term s =
        rdf::Term::iri("http://example.org/people/w" + std::to_string(i));
    added.push_back({s, knows, rdf::Term::iri("http://example.org/people/w" +
                                              std::to_string((i + 3) % 8))});
    added.push_back({s, name, rdf::Term::literal("W" + std::to_string(i))});
  }
  lease();
  ov.share_triples(writer, added, 100.0);
  step("share");

  std::vector<rdf::Triple> removed(added.begin(), added.begin() + 6);
  ov.store_of(writer).for_each([&](const rdf::Triple& t) {
    if (removed.size() < 14) removed.push_back(t);
  });
  lease();
  ov.unshare_triples(writer, removed, 200.0);
  step("unshare");

  const net::NodeAddress crashed = storage[4];
  ov.storage_node_fail(crashed);
  network.recover(crashed);
  lease();
  ov.storage_node_rejoin(crashed, 300.0);
  step("rejoin");

  lease();
  ov.storage_node_leave(storage[1], 400.0);
  step("leave");

  lease();
  ov.republish_all(500.0);
  step("republish");

  ov.index_node_fail(bed.index_ids()[3]);
  ov.repair(600.0);
  step("repair");
  network.set_tracer(nullptr);

  // Every key a remaining storage node publishes, for the tombstone lines.
  std::set<chord::Key> keys;
  for (const auto& [addr, s] : ov.storage_nodes()) {
    for (const auto& [key, freq] : s.published) keys.insert(key);
  }
  auto tomb_lines = [&](const overlay::LocationTable& table) {
    std::vector<std::string> out;
    for (chord::Key key : keys) {
      for (net::NodeAddress a : storage) {
        if (std::optional<std::uint32_t> v = table.tombstone_version(key, a)) {
          out.push_back(std::to_string(key) + " " + std::to_string(a) + " " +
                        std::to_string(*v));
        }
      }
    }
    return out;
  };
  int live = 0;
  for (const auto& [id, ix] : ov.index_nodes()) {
    if (!ov.ring().contains(id) || network.is_failed(ix.address)) continue;
    const std::string node = "send-sequence/node" + std::to_string(live++);
    digest.add(node, "id", std::to_string(id));
    digest.add(node, "table", hex_digest(table_lines(ix.table)));
    digest.add(node, "replicas", hex_digest(table_lines(ix.replicas)));
    digest.add(node, "tombstones",
               hex_digest(tomb_lines(ix.table)) + " replicas " +
                   hex_digest(tomb_lines(ix.replicas)));
    digest.add(node, "bytes",
               "table=" + std::to_string(ix.table.byte_size()) +
                   " replicas=" + std::to_string(ix.replicas.byte_size()));
  }
  EXPECT_EQ(live, 7);
  expect_matches_golden(digest, AHSW_GOLDEN_DIGESTS, "send-sequence/");
}

// --- Lazy re-lookup after a whole provider row was given up on. ----------

/// A testbed without FOAF data. Storage node 0 holds `?x foaf:knows p0`
/// for s0..s5; nodes 1 and 2 hold `?x foaf:name ?n` (s1 on both), names
/// and nicks sorting in the reverse of their subjects' order; node 1 also
/// holds `?x foaf:nick ?k` for s0..s8. Frequency order scans knows, name,
/// nick; the name chain ends at node 1, which it shares with nick.
std::unique_ptr<workload::Testbed> relookup_testbed() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 4;
  cfg.storage_nodes = 4;
  cfg.foaf.persons = 0;
  auto bed = std::make_unique<workload::Testbed>(cfg);
  auto person = [](int i) {
    return rdf::Term::iri("http://example.org/people/s" + std::to_string(i));
  };
  const rdf::Term knows = rdf::Term::iri(std::string(workload::foaf::kKnows));
  const rdf::Term name = rdf::Term::iri(std::string(workload::foaf::kName));
  const rdf::Term nick = rdf::Term::iri(std::string(workload::foaf::kNick));
  const rdf::Term p0 = rdf::Term::iri("http://example.org/people/p0");
  std::vector<std::vector<rdf::Triple>> held(3);
  for (int i = 0; i < 6; ++i) held[0].push_back({person(i), knows, p0});
  const char* names[] = {"Zed", "Yan", "Xia", "Wes", "Vic", "Uma", "Tom"};
  for (int i : {0, 1, 4}) {
    held[1].push_back({person(i), name, rdf::Term::literal(names[i])});
  }
  for (int i : {1, 2, 3, 5, 6}) {
    held[2].push_back({person(i), name, rdf::Term::literal(names[i])});
  }
  for (int i = 0; i < 9; ++i) {
    held[1].push_back(
        {person(i), nick, rdf::Term::literal("n" + std::to_string(8 - i))});
  }
  for (std::size_t n = 0; n < held.size(); ++n) {
    bed->overlay().share_triples(bed->storage_addrs()[n], held[n], 0);
  }
  return bed;
}

/// The conjunction the carry cases run: ORDER BY ?y ties every row (all
/// know p0), so the delivered order is the order the carry joins emit.
constexpr const char* kRelookupConjunction =
    "SELECT ?x ?n ?k WHERE { ?x foaf:knows ?y . ?x foaf:name ?n . "
    "?x foaf:nick ?k . } ORDER BY ?y";

/// Run `body` from storage node 3 under `strategy` (no retries, one
/// re-lookup) while the storage nodes at `victims` fail at t=0 and rejoin
/// at `rejoin_at`, after their contacts and before the scan gives up on the
/// last of them: every provider of one pattern is given up on, and the
/// re-lookup finds the republished row. Digests the traced run against case `id`, requires a re-lookup, and
/// checks the rows against the merged-store oracle (every provider is back).
void expect_relookup_matches_golden(const std::string& id,
                                    PrimitiveStrategy strategy,
                                    const char* body,
                                    const std::vector<std::size_t>& victims,
                                    net::SimTime rejoin_at) {
  std::unique_ptr<workload::Testbed> bed = relookup_testbed();
  ExecutionPolicy policy;
  policy.primitive = strategy;
  policy.retry.relookup = true;
  DistributedQueryProcessor proc(bed->overlay(), policy);
  const sparql::Query query =
      sparql::parse_query(std::string(kPrologue) + body);
  fault::FaultSchedule schedule;
  for (std::size_t v : victims) {
    schedule.storage_fail(0.0, bed->storage_addrs()[v]);
    schedule.rejoin(rejoin_at, bed->storage_addrs()[v]);
  }

  obs::QueryTrace trace;
  proc.set_trace(&trace);
  const net::TrafficStats before = bed->network().stats();
  fault::FaultRunResult run = fault::run_with_faults(
      proc, bed->overlay(), {BatchQuery{query, bed->storage_addrs()[3]}},
      schedule, BatchOptions{});
  const net::TrafficStats delta = bed->network().stats().delta_since(before);
  check::AuditReport audit;
  check::AuditOptions opts;
  opts.churned = true;
  check::audit_conservation(trace, delta, audit, opts);
  proc.set_trace(nullptr);

  ASSERT_EQ(run.batch.results.size(), 1u);
  ASSERT_EQ(run.batch.root_spans.size(), 1u);
  const ExecutionReport& rep = run.batch.reports.front();
  EXPECT_GT(rep.relookups, 0) << "no re-lookup ran; the case pins nothing";
  Digest digest;
  digest.add_result(id, run.batch.results.front());
  digest.add_report(id, rep);
  digest.add_explain(id, trace, run.batch.root_spans.front());
  digest.add(id, "makespan", exact(run.batch.makespan));
  digest.add_audit(id, audit);
  expect_matches_golden(digest, AHSW_GOLDEN_DIGESTS, id + " ");

  const sparql::QueryResult oracle =
      sparql::execute_local(query, bed->overlay().merged_store());
  EXPECT_FALSE(oracle.solutions.empty());
  EXPECT_EQ(testing::canon(run.batch.results.front().solutions).rows(),
            testing::canon(oracle.solutions).rows());
}

TEST(GoldenDigest, RelookupScatterRejoinedProvider) {
  expect_relookup_matches_golden(
      "relookup/scatter-single", PrimitiveStrategy::kBasic,
      "SELECT ?x WHERE { ?x foaf:knows <http://example.org/people/p0> . }",
      {0}, 100.0);
}

TEST(GoldenDigest, RelookupChainReshipsCarry) {
  expect_relookup_matches_golden(
      "relookup/chain-carry", PrimitiveStrategy::kFrequencyChain,
      kRelookupConjunction,
      // A chain visits its providers one by one: the second victim must
      // still be down when the first contact's timeout hands over to it.
      // The restarted chain ships the carry (larger than the sub-query) from
      // the lookup's completion and is not rotated to end at node 1.
      {1, 2}, 300.0);
}

TEST(GoldenDigest, RelookupScatterJoinsCarry) {
  expect_relookup_matches_golden(
      "relookup/scatter-carry", PrimitiveStrategy::kBasic,
      kRelookupConjunction,
      {1, 2}, 100.0);
}

}  // namespace
}  // namespace ahsw::dqp
