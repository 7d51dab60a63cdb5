#include "net/network.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.hpp"

namespace ahsw::net {
namespace {

TEST(CostModel, LatencyIsAffineInBytes) {
  CostModel m{2.0, 0.01, 100.0};
  EXPECT_DOUBLE_EQ(m.latency(0), 2.0);
  EXPECT_DOUBLE_EQ(m.latency(1000), 12.0);
}

TEST(Network, AllocatesDistinctAddresses) {
  Network net;
  NodeAddress a = net.allocate_address();
  NodeAddress b = net.allocate_address();
  EXPECT_NE(a, b);
  EXPECT_NE(a, kNoAddress);
}

TEST(Network, SendChargesMessageAndBytes) {
  Network net(CostModel{1.0, 0.001, 100.0});
  SimTime arrival =
      net.send(1, 2, Charge::fixed(500), 10.0, Category::kQuery);
  EXPECT_DOUBLE_EQ(arrival, 11.5);
  EXPECT_EQ(net.stats().messages, 1u);
  EXPECT_EQ(net.stats().bytes, 500u);
}

TEST(Network, LocalSendIsFree) {
  Network net;
  SimTime arrival =
      net.send(3, 3, Charge::fixed(10000), 5.0, Category::kData);
  EXPECT_DOUBLE_EQ(arrival, 5.0);
  EXPECT_EQ(net.stats().messages, 0u);
  EXPECT_EQ(net.stats().bytes, 0u);
}

TEST(Network, ChargeCarriesRawBesideWire) {
  sparql::SolutionSet set;
  for (int i = 0; i < 4; ++i) {
    sparql::Binding b;
    b.set("x", rdf::Term::iri("http://example.org/s" + std::to_string(i)));
    set.add(std::move(b));
  }
  const std::size_t wire = wire::charged_bytes(set);
  const std::size_t raw = set.byte_size();
  ASSERT_NE(wire, raw);  // so a swapped or dropped counter shows

  Network net;
  std::vector<MessageEvent> events;
  net.set_tracer([&](const MessageEvent& e) { events.push_back(e); });

  // A payload: the cost model bills the wire size, raw rides beside it.
  net.send(1, 2, wire::charge(set), 0, Category::kData);
  EXPECT_EQ(net.stats().bytes, wire);
  EXPECT_EQ(net.stats().raw_bytes, raw);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].bytes, wire);
  EXPECT_EQ(events[0].raw_bytes, raw);

  // A fixed-format message: raw is its wire size.
  TrafficStats base = net.stats();
  net.send(1, 2, Charge::fixed(40), 0, Category::kIndex);
  TrafficStats d = net.stats().delta_since(base);
  EXPECT_EQ(d.bytes, 40u);
  EXPECT_EQ(d.raw_bytes, 40u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].bytes, 40u);
  EXPECT_EQ(events[1].raw_bytes, 40u);

  // Node-local: no message, neither counter moves.
  base = net.stats();
  net.send(3, 3, wire::charge(set), 0, Category::kData);
  d = net.stats().delta_since(base);
  EXPECT_EQ(d.messages, 0u);
  EXPECT_EQ(d.bytes, 0u);
  EXPECT_EQ(d.raw_bytes, 0u);
  EXPECT_EQ(events.size(), 2u);
}

TEST(Network, CategoriesAreTrackedSeparately) {
  Network net;
  net.send(1, 2, Charge::fixed(100), 0, Category::kRouting);
  net.send(1, 2, Charge::fixed(200), 0, Category::kRouting);
  net.send(1, 2, Charge::fixed(300), 0, Category::kData);
  auto routing = static_cast<std::size_t>(Category::kRouting);
  auto data = static_cast<std::size_t>(Category::kData);
  EXPECT_EQ(net.stats().messages_by[routing], 2u);
  EXPECT_EQ(net.stats().bytes_by[routing], 300u);
  EXPECT_EQ(net.stats().messages_by[data], 1u);
  EXPECT_EQ(net.stats().bytes_by[data], 300u);
}

TEST(Network, TimeoutAdvancesClockAndCounts) {
  Network net(CostModel{1.0, 0.0, 250.0});
  SimTime t = net.timeout(10.0, kNoAddress, Category::kRouting);
  EXPECT_DOUBLE_EQ(t, 260.0);
  EXPECT_EQ(net.stats().timeouts, 1u);
}

TEST(Network, FailAndRecover) {
  Network net;
  NodeAddress n = net.allocate_address();
  EXPECT_FALSE(net.is_failed(n));
  net.fail(n);
  EXPECT_TRUE(net.is_failed(n));
  net.recover(n);
  EXPECT_FALSE(net.is_failed(n));
}

TEST(Network, ResetStatsClearsEverything) {
  Network net;
  net.send(1, 2, Charge::fixed(100), 0, Category::kIndex);
  net.timeout(0, kNoAddress, Category::kRouting);
  net.reset_stats();
  EXPECT_EQ(net.stats().messages, 0u);
  EXPECT_EQ(net.stats().bytes, 0u);
  EXPECT_EQ(net.stats().timeouts, 0u);
}

TEST(TrafficStats, DeltaSinceComputesDifference) {
  Network net;
  net.send(1, 2, Charge::fixed(100), 0, Category::kQuery);
  TrafficStats snapshot = net.stats();
  net.send(1, 2, Charge::fixed(50), 0, Category::kQuery);
  net.send(2, 1, Charge::fixed(70), 0, Category::kResult);
  TrafficStats d = net.stats().delta_since(snapshot);
  EXPECT_EQ(d.messages, 2u);
  EXPECT_EQ(d.bytes, 120u);
  EXPECT_EQ(d.messages_by[static_cast<std::size_t>(Category::kResult)], 1u);
}

TEST(Category, NamesAreStable) {
  EXPECT_EQ(category_name(Category::kRouting), "routing");
  EXPECT_EQ(category_name(Category::kIndex), "index");
  EXPECT_EQ(category_name(Category::kQuery), "query");
  EXPECT_EQ(category_name(Category::kData), "data");
  EXPECT_EQ(category_name(Category::kResult), "result");
}

}  // namespace
}  // namespace ahsw::net
