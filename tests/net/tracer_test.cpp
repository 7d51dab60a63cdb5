// Message-tracer tests, including a protocol-sequence assertion for the
// paper's Fig. 2 two-level index lookup: the exact message flow
// requester -> attached index node -> (ring hops) -> owner -> requester.
#include <gtest/gtest.h>

#include "overlay/overlay.hpp"

namespace ahsw::net {
namespace {

TEST(Tracer, ObservesChargedMessagesOnly) {
  Network net;
  std::vector<MessageEvent> events;
  net.set_tracer([&](const MessageEvent& e) { events.push_back(e); });
  net.send(1, 2, 100, 5.0, Category::kQuery);
  net.send(3, 3, 50, 0.0, Category::kData);  // node-local: not traced
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].from, 1u);
  EXPECT_EQ(events[0].to, 2u);
  EXPECT_EQ(events[0].bytes, 100u);
  EXPECT_DOUBLE_EQ(events[0].sent_at, 5.0);
  EXPECT_GT(events[0].arrives_at, 5.0);
  EXPECT_EQ(events[0].category, Category::kQuery);
}

TEST(Tracer, DetachStopsObservation) {
  Network net;
  int count = 0;
  net.set_tracer([&](const MessageEvent&) { ++count; });
  net.send(1, 2, 10, 0, Category::kData);
  net.set_tracer(nullptr);
  net.send(1, 2, 10, 0, Category::kData);
  EXPECT_EQ(count, 1);
}

TEST(TimeoutTracer, ObservesChargedTimeouts) {
  Network net;
  std::vector<TimeoutEvent> events;
  net.set_timeout_tracer([&](const TimeoutEvent& e) { events.push_back(e); });
  SimTime gave_up = net.timeout(5.0, 42, Category::kQuery);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].suspect, 42u);
  EXPECT_EQ(events[0].category, Category::kQuery);
  EXPECT_DOUBLE_EQ(events[0].at, 5.0);
  EXPECT_DOUBLE_EQ(events[0].gave_up_at, gave_up);
  EXPECT_DOUBLE_EQ(gave_up, 5.0 + net.cost_model().timeout_ms);
}

TEST(TimeoutTracer, DefaultsToUnknownSuspectAndRoutingCategory) {
  Network net;
  std::vector<TimeoutEvent> events;
  net.set_timeout_tracer([&](const TimeoutEvent& e) { events.push_back(e); });
  // The values timeout() defaulted to before its parameters lost their
  // defaults; the event still carries them unchanged.
  net.timeout(0.0, kNoAddress, Category::kRouting);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].suspect, kNoAddress);
  EXPECT_EQ(events[0].category, Category::kRouting);
}

TEST(TimeoutTracer, PerCategoryCountersAndDelta) {
  Network net;
  net.timeout(0.0, 1, Category::kRouting);
  TrafficStats base = net.stats();
  net.timeout(0.0, 2, Category::kQuery);
  net.timeout(0.0, 2, Category::kQuery);
  net.timeout(0.0, 3, Category::kData);
  EXPECT_EQ(net.stats().timeouts, 4u);
  EXPECT_EQ(net.stats()
                .timeouts_by[static_cast<std::size_t>(Category::kQuery)],
            2u);
  TrafficStats delta = net.stats().delta_since(base);
  EXPECT_EQ(delta.timeouts, 3u);
  EXPECT_EQ(delta.timeouts_by[static_cast<std::size_t>(Category::kRouting)],
            0u);
  EXPECT_EQ(delta.timeouts_by[static_cast<std::size_t>(Category::kQuery)],
            2u);
  EXPECT_EQ(delta.timeouts_by[static_cast<std::size_t>(Category::kData)], 1u);
}

TEST(TimeoutTracer, DetachStopsObservation) {
  Network net;
  int count = 0;
  net.set_timeout_tracer([&](const TimeoutEvent&) { ++count; });
  net.timeout(0.0, 7, Category::kIndex);
  net.set_timeout_tracer(nullptr);
  net.timeout(0.0, 7, Category::kIndex);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(net.stats().timeouts, 2u);  // counting is tracer-independent
}

TEST(Tracer, Fig2LookupMessageSequence) {
  // Build the Fig. 1 topology and trace one two-level index consultation.
  Network network;
  overlay::HybridOverlay ov(
      network, overlay::OverlayConfig{chord::RingConfig{4, 2}, 1, 99});
  ov.add_index_node_with_id(1);
  ov.add_index_node_with_id(4);
  chord::Key n7 = ov.add_index_node_with_id(7);
  ov.add_index_node_with_id(12);
  ov.add_index_node_with_id(15);
  ov.ring().fix_all_fingers_oracle();
  NodeAddress d1 = ov.add_storage_node_attached(n7);
  NodeAddress d2 = ov.add_storage_node_attached(n7);

  rdf::Term s = rdf::Term::iri("http://s");
  rdf::Term p = rdf::Term::iri("http://p");
  ov.share_triples(d1, {{s, p, rdf::Term::iri("http://o")}}, 0);

  std::vector<MessageEvent> events;
  network.set_tracer([&](const MessageEvent& e) { events.push_back(e); });
  auto loc =
      ov.locate(d2, rdf::TriplePattern{s, p, rdf::Variable{"o"}}, 0);
  network.set_tracer(nullptr);
  ASSERT_TRUE(loc.ok);

  // Sequence: requester -> its index node (kIndex), zero or more routing
  // hops + answer (kRouting), entry -> owner (kIndex), owner -> requester
  // (kIndex, the provider list).
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events.front().from, d2);
  EXPECT_EQ(events.front().to, ov.index_nodes().at(n7).address);
  EXPECT_EQ(events.front().category, Category::kIndex);
  EXPECT_EQ(events.back().to, d2);
  EXPECT_EQ(events.back().category, Category::kIndex);
  // Logical time is monotone along the chain of causally ordered sends.
  EXPECT_GE(events.back().arrives_at, events.front().sent_at);
  // Everything in between is ring routing or the index hand-off.
  for (std::size_t i = 1; i + 1 < events.size(); ++i) {
    EXPECT_TRUE(events[i].category == Category::kRouting ||
                events[i].category == Category::kIndex)
        << i;
  }
}

}  // namespace
}  // namespace ahsw::net
