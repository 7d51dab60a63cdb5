// Audit-clean regression: the auditor must stay silent on states the
// protocol legitimately produces — quiescent testbeds (pristine), the
// paper's Fig. 1 topology (pristine), traced query executions (I5
// conserves), and churn sequences (zero corrupt; stale drift allowed).
#include <gtest/gtest.h>

#include "check/audit.hpp"
#include "common/rng.hpp"
#include "dqp/processor.hpp"
#include "workload/testbed.hpp"

namespace ahsw::check {
namespace {

workload::TestbedConfig config(int replication, bool pair_keys = true) {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 8;
  cfg.storage_nodes = 8;
  cfg.overlay.replication_factor = replication;
  cfg.overlay.pair_keys = pair_keys;
  cfg.foaf.persons = 40;
  cfg.foaf.seed = 11;
  cfg.partition.seed = 12;
  return cfg;
}

const char kPrologue[] = "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n";

TEST(AuditClean, QuiescentTestbedsAuditPristine) {
  struct Case {
    int replication;
    bool pair_keys;
  };
  for (Case c : {Case{1, true}, Case{3, true}, Case{1, false}}) {
    workload::Testbed bed(config(c.replication, c.pair_keys));
    AuditReport rep = audit(bed);
    EXPECT_TRUE(rep.pristine())
        << "rf=" << c.replication << " pair_keys=" << c.pair_keys << "\n"
        << rep.to_string();
    EXPECT_GT(rep.keys_checked, 0u);
  }
}

TEST(AuditClean, PaperTopologyAuditsPristine) {
  // The Fig. 1 network: index nodes N1, N4, N7, N12, N15 in a 4-bit space,
  // storage nodes D1..D4, plus the Fig. 2 shared triples.
  net::Network network;
  overlay::HybridOverlay ov(network,
                            overlay::OverlayConfig{chord::RingConfig{4, 2}, 1,
                                                   99});
  for (chord::Key id : {1u, 4u, 7u, 12u, 15u}) ov.add_index_node_with_id(id);
  ov.ring().fix_all_fingers_oracle();
  net::NodeAddress d1 = ov.add_storage_node_attached(7);
  net::NodeAddress d2 = ov.add_storage_node_attached(12);
  net::NodeAddress d3 = ov.add_storage_node_attached(7);
  net::NodeAddress d4 = ov.add_storage_node_attached(15);

  rdf::Term si = rdf::Term::iri("http://example.org/si");
  rdf::Term pi = rdf::Term::iri("http://example.org/pi");
  auto share = [&](net::NodeAddress node, int count, const std::string& tag) {
    std::vector<rdf::Triple> triples;
    for (int i = 0; i < count; ++i) {
      triples.push_back({si, pi,
                         rdf::Term::iri("http://example.org/o-" + tag +
                                        std::to_string(i))});
    }
    ov.share_triples(node, triples, 0);
  };
  share(d1, 10, "d1");
  share(d3, 20, "d3");
  share(d4, 15, "d4");
  (void)d2;

  AuditReport rep = audit(ov);
  EXPECT_TRUE(rep.pristine()) << rep.to_string();
  EXPECT_EQ(rep.nodes_checked, 5u);
  EXPECT_GT(rep.triples_checked, 0u);
}

TEST(AuditClean, TracedQueriesConserveTraffic) {
  workload::Testbed bed(config(1));
  dqp::DistributedQueryProcessor proc(bed.overlay());
  obs::QueryTrace trace;
  proc.set_trace(&trace);

  const std::string queries[] = {
      std::string(kPrologue) + "SELECT ?s ?o WHERE { ?s foaf:knows ?o }",
      std::string(kPrologue) +
          "SELECT ?s ?n WHERE { ?s foaf:knows ?o . ?o foaf:name ?n }",
      std::string(kPrologue) +
          "SELECT ?s WHERE { ?s foaf:name ?n FILTER(?n != \"nobody\") }",
  };
  for (const std::string& q : queries) {
    trace.clear();
    net::TrafficStats before = bed.network().stats();
    (void)proc.execute(q, bed.storage_addrs().front(), nullptr);
    net::TrafficStats delta = bed.network().stats().delta_since(before);
    AuditReport rep;
    audit_conservation(trace, delta, rep);
    EXPECT_TRUE(rep.pristine()) << q << "\n" << rep.to_string();
  }
}

TEST(AuditClean, RawBytesConserveAndExceedWireBytes) {
  // I5 covers both sides of the compression ratio: the wire-charged bytes
  // and the uncompressed raw bytes each conserve span-by-span, and on a
  // data-bearing query the raw total is strictly larger (the codec must
  // actually compress, or charging wire bytes is a no-op).
  workload::Testbed bed(config(1));
  dqp::DistributedQueryProcessor proc(bed.overlay());
  obs::QueryTrace trace;
  proc.set_trace(&trace);

  const std::string q = std::string(kPrologue) +
                        "SELECT ?s ?n WHERE { ?s foaf:knows ?o . "
                        "?o foaf:name ?n }";
  net::TrafficStats before = bed.network().stats();
  (void)proc.execute(q, bed.storage_addrs().front(), nullptr);
  net::TrafficStats delta = bed.network().stats().delta_since(before);

  AuditReport rep;
  audit_conservation(trace, delta, rep);
  EXPECT_TRUE(rep.pristine()) << rep.to_string();
  EXPECT_GT(delta.raw_bytes, delta.bytes);

  std::uint64_t span_raw = trace.unattributed().raw_bytes;
  for (const obs::Span& s : trace.spans()) span_raw += s.traffic.raw_bytes;
  EXPECT_EQ(span_raw, delta.raw_bytes);
}

TEST(AuditClean, ChurnSequenceNeverGoesCorrupt) {
  workload::Testbed bed(config(3));
  overlay::HybridOverlay& ov = bed.overlay();
  AuditOptions churned;
  churned.churned = true;
  net::SimTime now = bed.setup_completed_at();

  // Storage crash: location entries for the corpse linger (lazy repair).
  ov.storage_node_fail(bed.storage_addrs()[0]);
  AuditReport rep = audit(ov, churned);
  EXPECT_TRUE(rep.clean()) << "after storage fail\n" << rep.to_string();

  // Index crash + repair: replicas promote to the new owner.
  ov.index_node_fail(bed.index_ids()[1]);
  ov.repair(now);
  rep = audit(ov, churned);
  EXPECT_TRUE(rep.clean()) << "after index fail+repair\n" << rep.to_string();

  // Index join: the new node takes over its slice immediately.
  ov.add_index_node(now);
  rep = audit(ov, churned);
  EXPECT_TRUE(rep.clean()) << "after index join\n" << rep.to_string();

  // Graceful departures retract / hand over state.
  now = ov.storage_node_leave(bed.storage_addrs()[2], now);
  ov.index_node_leave(bed.index_ids()[3], now);
  rep = audit(ov, churned);
  EXPECT_TRUE(rep.clean()) << "after graceful leaves\n" << rep.to_string();

  // Converged fingers settle the ring again; the audit must stay
  // corrupt-free (frequency inflation from the at-least-once window may
  // remain stale).
  ov.ring().fix_all_fingers_oracle();
  rep = audit(ov, churned);
  EXPECT_TRUE(rep.clean()) << "after finger convergence\n" << rep.to_string();
}

TEST(AuditClean, BareRingChurnAuditsClean) {
  net::Network network;
  chord::Ring ring(network, chord::RingConfig{16, 4});
  common::Rng rng(21);
  std::vector<chord::Key> ids;
  for (int i = 0; i < 24; ++i) {
    chord::Key id = ring.truncate(rng.next());
    while (ring.contains(id)) id = ring.truncate(rng.next());
    if (ring.size() == 0) {
      ring.create(network.allocate_address(), id);
    } else {
      ring.join(network.allocate_address(), id, ids.front(), 0);
    }
    ids.push_back(id);
  }
  ring.fix_all_fingers_oracle();
  {
    AuditReport rep;
    audit_ring(ring, network, rep);
    EXPECT_TRUE(rep.pristine()) << rep.to_string();
  }

  AuditOptions churned;
  churned.churned = true;
  ring.fail(ids[5]);
  ring.fail(ids[6]);
  {
    AuditReport rep;
    audit_ring(ring, network, rep, churned);
    EXPECT_TRUE(rep.clean()) << "with corpses\n" << rep.to_string();
  }
  ring.repair(0);
  {
    AuditReport rep;
    audit_ring(ring, network, rep, churned);
    EXPECT_TRUE(rep.clean()) << "after repair\n" << rep.to_string();
  }
}

}  // namespace
}  // namespace ahsw::check
