// Span-tree tests: the Fig. 3 phase structure of one primitive query under
// each strategy, and the attribution invariant — every charged message and
// timeout lands in exactly one span, so span sums reproduce the query's
// TrafficStats delta.
#include <gtest/gtest.h>

#include "check/audit.hpp"
#include "dqp/processor.hpp"
#include "obs/trace.hpp"
#include "overlay/overlay.hpp"

namespace ahsw::obs {
namespace {

std::vector<SpanKind> child_kinds(const QueryTrace& t, SpanId id) {
  std::vector<SpanKind> out;
  for (SpanId c : t.span(id).children) out.push_back(t.span(c).kind);
  return out;
}

std::vector<const Span*> spans_of_kind(const QueryTrace& t, SpanKind k) {
  std::vector<const Span*> out;
  for (const Span& s : t.spans()) {
    if (s.kind == k) out.push_back(&s);
  }
  return out;
}

/// I5 over one query's trace: every charged message, byte and timeout lands
/// in exactly one span, none charged while no span was open.
void expect_conserved(const QueryTrace& trace,
                      const dqp::ExecutionReport& rep) {
  check::AuditReport audit;
  check::audit_conservation(trace, rep.traffic, audit);
  EXPECT_TRUE(audit.pristine()) << audit.to_string();
  EXPECT_TRUE(trace.unattributed() == net::TrafficStats{});
}

/// Three providers with frequencies 9 / 1 / 3 in address order, so the
/// frequency chain (ascending, largest last) must reorder them, plus one
/// data-free device acting as the query initiator.
struct Bed {
  net::Network network;
  overlay::HybridOverlay ov{network};
  std::vector<net::NodeAddress> devices;

  Bed() {
    for (int i = 0; i < 8; ++i) ov.add_index_node();
    ov.ring().fix_all_fingers_oracle();
    for (int i = 0; i < 4; ++i) devices.push_back(ov.add_storage_node());
    rdf::Term p = rdf::Term::iri("http://example.org/p");
    rdf::Term target = rdf::Term::iri("http://example.org/target");
    const int sizes[3] = {9, 1, 3};
    for (std::size_t pi = 0; pi < 3; ++pi) {
      std::vector<rdf::Triple> triples;
      for (int j = 0; j < sizes[pi]; ++j) {
        triples.push_back(
            {rdf::Term::iri("http://example.org/s" + std::to_string(pi) +
                            "_" + std::to_string(j)),
             p, target});
      }
      ov.share_triples(devices[pi], triples, 0);
    }
    network.reset_stats();
  }

  net::NodeAddress initiator() const { return devices.back(); }
};

constexpr const char* kQueryText =
    "SELECT ?x WHERE { ?x <http://example.org/p> "
    "<http://example.org/target> . }";

void run_traced(Bed& bed, optimizer::PrimitiveStrategy strategy,
                QueryTrace& trace, dqp::ExecutionReport& rep) {
  dqp::ExecutionPolicy policy;
  policy.primitive = strategy;
  dqp::DistributedQueryProcessor proc(bed.ov, policy);
  proc.set_trace(&trace);
  sparql::QueryResult out = proc.execute(kQueryText, bed.initiator(), &rep);
  EXPECT_EQ(out.solutions.size(), 13u);  // 9 + 1 + 3 matches
}

TEST(SpanTree, BasicStrategyPhases) {
  Bed bed;
  QueryTrace trace;
  dqp::ExecutionReport rep;
  run_traced(bed, optimizer::PrimitiveStrategy::kBasic, trace, rep);

  ASSERT_EQ(trace.roots().size(), 1u);
  const Span& root = trace.span(trace.roots().front());
  EXPECT_EQ(root.kind, SpanKind::kQuery);
  EXPECT_EQ(root.site, bed.initiator());
  EXPECT_EQ(child_kinds(trace, root.id),
            (std::vector<SpanKind>{SpanKind::kPlan, SpanKind::kIndexLookup,
                                   SpanKind::kPattern, SpanKind::kShip,
                                   SpanKind::kPostProcess}));

  // Scatter/gather: one sub-query ship and one local execution per provider,
  // no chain hops.
  EXPECT_EQ(spans_of_kind(trace, SpanKind::kSubQueryShip).size(), 3u);
  EXPECT_EQ(spans_of_kind(trace, SpanKind::kLocalExec).size(), 3u);
  EXPECT_TRUE(spans_of_kind(trace, SpanKind::kChainHop).empty());

  // The plan phase is local computation: no traffic.
  const Span& plan = *spans_of_kind(trace, SpanKind::kPlan).front();
  EXPECT_EQ(plan.traffic.messages, 0u);
  EXPECT_EQ(plan.traffic.bytes, 0u);
}

TEST(SpanTree, ChainStrategyVisitsProvidersAsHops) {
  Bed bed;
  QueryTrace trace;
  dqp::ExecutionReport rep;
  run_traced(bed, optimizer::PrimitiveStrategy::kChain, trace, rep);

  std::vector<const Span*> hops = spans_of_kind(trace, SpanKind::kChainHop);
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_TRUE(spans_of_kind(trace, SpanKind::kLocalExec).empty());
  // Address order, and logically sequential: each hop starts no earlier
  // than the previous one.
  EXPECT_EQ(hops[0]->site, bed.devices[0]);
  EXPECT_EQ(hops[1]->site, bed.devices[1]);
  EXPECT_EQ(hops[2]->site, bed.devices[2]);
  EXPECT_LE(hops[0]->begin, hops[1]->begin);
  EXPECT_LE(hops[1]->begin, hops[2]->begin);
}

TEST(SpanTree, FrequencyChainVisitsLargestProviderLast) {
  Bed bed;
  QueryTrace trace;
  dqp::ExecutionReport rep;
  run_traced(bed, optimizer::PrimitiveStrategy::kFrequencyChain, trace, rep);

  std::vector<const Span*> hops = spans_of_kind(trace, SpanKind::kChainHop);
  ASSERT_EQ(hops.size(), 3u);
  // Ascending frequency: 1 (device 1), 3 (device 2), 9 (device 0).
  EXPECT_EQ(hops[0]->site, bed.devices[1]);
  EXPECT_EQ(hops[1]->site, bed.devices[2]);
  EXPECT_EQ(hops[2]->site, bed.devices[0]);
}

TEST(SpanTree, SpanSumsReproduceTrafficDelta) {
  using optimizer::PrimitiveStrategy;
  for (PrimitiveStrategy strategy :
       {PrimitiveStrategy::kBasic, PrimitiveStrategy::kChain,
        PrimitiveStrategy::kFrequencyChain}) {
    Bed bed;
    QueryTrace trace;
    dqp::ExecutionReport rep;
    run_traced(bed, strategy, trace, rep);

    SCOPED_TRACE(optimizer::primitive_strategy_name(strategy));
    expect_conserved(trace, rep);
    ASSERT_EQ(trace.roots().size(), 1u);
    EXPECT_EQ(trace.subtree(trace.roots().front()).bytes, rep.traffic.bytes);
  }
}

TEST(SpanTree, TraceClearAllowsReuseAcrossQueries) {
  Bed bed;
  QueryTrace trace;
  dqp::ExecutionPolicy policy;
  dqp::DistributedQueryProcessor proc(bed.ov, policy);
  proc.set_trace(&trace);
  (void)proc.execute(kQueryText, bed.initiator(), nullptr);
  trace.clear();
  dqp::ExecutionReport rep;
  (void)proc.execute(kQueryText, bed.initiator(), &rep);
  ASSERT_EQ(trace.roots().size(), 1u);
  expect_conserved(trace, rep);
}

TEST(SpanTree, FailedProviderTimeoutIsTracedAndAttributed) {
  Bed bed;
  bed.ov.storage_node_fail(bed.devices[0]);  // crash: index rows stay stale

  QueryTrace trace;
  dqp::ExecutionReport rep;
  dqp::ExecutionPolicy policy;
  policy.primitive = optimizer::PrimitiveStrategy::kBasic;
  dqp::DistributedQueryProcessor proc(bed.ov, policy);
  proc.set_trace(&trace);
  sparql::QueryResult out = proc.execute(kQueryText, bed.initiator(), &rep);
  EXPECT_EQ(out.solutions.size(), 4u);  // the dead provider's 9 rows are lost

  // The timeout is counted, categorized as sub-query traffic, and appears
  // as a kTimeout leaf naming the suspect inside the per-provider span.
  ASSERT_GE(rep.traffic.timeouts, 1u);
  EXPECT_EQ(
      rep.traffic.timeouts_by[static_cast<std::size_t>(net::Category::kQuery)],
      rep.traffic.timeouts);
  expect_conserved(trace, rep);

  std::vector<const Span*> waits = spans_of_kind(trace, SpanKind::kTimeout);
  ASSERT_EQ(waits.size(), rep.traffic.timeouts);
  const Span& wait = *waits.front();
  EXPECT_EQ(wait.site, bed.devices[0]);
  EXPECT_EQ(wait.traffic.timeouts, 1u);
  EXPECT_EQ(
      wait.traffic
          .timeouts_by[static_cast<std::size_t>(net::Category::kQuery)],
      1u);
  ASSERT_NE(wait.parent, kNoSpan);
  EXPECT_EQ(trace.span(wait.parent).kind, SpanKind::kLocalExec);
  // The charged wait is visible in the span's time bounds.
  EXPECT_GE(wait.end - wait.begin,
            bed.network.cost_model().timeout_ms - 1e-9);
}

}  // namespace
}  // namespace ahsw::obs
