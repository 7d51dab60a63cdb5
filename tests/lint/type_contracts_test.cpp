// The contracts that replaced lint rules D2, D3, O1 and A1's category
// clause, checked where they now live: in types and signatures. Each
// requires-expression sits in a variable template, so an ill-formed call
// (a missing member, a private one, too few arguments) makes it false
// instead of failing the build; the positive cases show that each probe
// can succeed at all.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/point_map.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"

namespace ahsw {
namespace {

template <typename M>
constexpr bool kHasBegin = requires(M& m) { m.begin(); };
template <typename M>
constexpr bool kHasEnd = requires(M& m) { m.end(); };

template <typename T>
constexpr bool kCanOpenSpan = requires(T& t) {
  t.open(obs::SpanKind::kQuery, std::string(), net::SimTime{});
};
template <typename T>
constexpr bool kCanCloseSpan =
    requires(T& t) { t.close(obs::SpanId{}, net::SimTime{}); };
template <typename T>
constexpr bool kCanReopenSpan = requires(T& t) { t.reopen(obs::SpanId{}); };
template <typename T>
constexpr bool kCanClearSpans = requires(T& t) { t.clear(); };

template <typename N>
constexpr bool kTimeoutAt = requires(N& n) { n.timeout(net::SimTime{}); };
template <typename N>
constexpr bool kTimeoutAtSuspect =
    requires(N& n) { n.timeout(net::SimTime{}, net::NodeAddress{}); };
template <typename N>
constexpr bool kTimeoutCategorized = requires(N& n) {
  n.timeout(net::SimTime{}, net::NodeAddress{}, net::Category::kQuery);
};
template <typename N>
constexpr bool kSendUncategorized = requires(N& n) {
  n.send(net::NodeAddress{}, net::NodeAddress{}, std::size_t{},
         net::SimTime{});
};

using IntMap = common::PointMap<int, int>;

TEST(TypeContracts, PointMapHasNoIterators) {
  static_assert(!kHasBegin<IntMap> && !kHasEnd<IntMap>);
  static_assert(!kHasBegin<const IntMap> && !kHasEnd<const IntMap>);
  static_assert(kHasBegin<std::map<int, int>> && kHasEnd<std::map<int, int>>);
}

TEST(TypeContracts, SpanCallsArePrivateToSpanScopeAndTheExecutor) {
  static_assert(!kCanOpenSpan<obs::QueryTrace>);
  static_assert(!kCanCloseSpan<obs::QueryTrace>);
  static_assert(!kCanReopenSpan<obs::QueryTrace>);
  static_assert(kCanClearSpans<obs::QueryTrace>);

  // SpanScope is the public way in, and it leaves the tree balanced.
  obs::QueryTrace trace;
  {
    obs::SpanScope outer(&trace, obs::SpanKind::kQuery, "q", 0.0);
    obs::SpanScope inner(&trace, obs::SpanKind::kPlan, "plan", 1.0);
    EXPECT_EQ(trace.active(), inner.id());
  }
  EXPECT_EQ(trace.active(), obs::kNoSpan);
  ASSERT_EQ(trace.roots().size(), 1u);
  EXPECT_EQ(trace.span(trace.roots()[0]).children.size(), 1u);
}

TEST(TypeContracts, TimeoutAndSendNameTheirCategory) {
  static_assert(!kTimeoutAt<net::Network>);
  static_assert(!kTimeoutAtSuspect<net::Network>);
  static_assert(kTimeoutCategorized<net::Network>);
  static_assert(!kSendUncategorized<net::Network>);
}

TEST(PointMap, FindEmplaceErase) {
  IntMap m;
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_FALSE(m.contains(1));
  EXPECT_EQ(m.size(), 0u);

  auto [held, inserted] = m.try_emplace(1, 10);
  EXPECT_TRUE(inserted);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, 10);

  // A second emplace under a held key keeps the first value.
  auto [again, inserted_again] = m.try_emplace(1, 99);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(again, held);
  EXPECT_EQ(*again, 10);
  EXPECT_EQ(m.size(), 1u);

  // find hands out the held value itself, writable through the pointer.
  *m.find(1) = 11;
  const IntMap& view = m;
  ASSERT_NE(view.find(1), nullptr);
  EXPECT_EQ(*view.find(1), 11);
  EXPECT_TRUE(view.contains(1));

  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(m.size(), 0u);

  // An erased key can be held again, with a fresh value.
  EXPECT_TRUE(m.try_emplace(1, 12).second);
  EXPECT_EQ(*m.find(1), 12);
}

TEST(PointMap, ValuePointersSurviveGrowth) {
  common::PointMap<std::string, std::vector<int>> m;
  std::vector<int>* first = m.try_emplace("first", 3, 7).first;
  for (int k = 0; k < 4096; ++k) m.try_emplace(std::to_string(k), 1, k);
  EXPECT_EQ(m.size(), 4097u);
  EXPECT_EQ(m.find("first"), first);
  EXPECT_EQ(*first, (std::vector<int>{7, 7, 7}));
  ASSERT_NE(m.find("4095"), nullptr);
  EXPECT_EQ(*m.find("4095"), std::vector<int>{4095});
}

}  // namespace
}  // namespace ahsw
