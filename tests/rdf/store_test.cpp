#include "rdf/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "../support/param_names.hpp"

namespace ahsw::rdf {
namespace {

Term iri(const std::string& x) { return Term::iri("http://" + x); }

TripleStore small_store() {
  TripleStore s;
  s.insert({iri("a"), iri("knows"), iri("b")});
  s.insert({iri("a"), iri("knows"), iri("c")});
  s.insert({iri("b"), iri("knows"), iri("c")});
  s.insert({iri("a"), iri("name"), Term::literal("Alice")});
  s.insert({iri("b"), iri("name"), Term::literal("Bob")});
  return s;
}

TEST(TripleStore, InsertIsSetSemantics) {
  TripleStore s;
  Triple t{iri("x"), iri("p"), iri("y")};
  EXPECT_TRUE(s.insert(t));
  EXPECT_FALSE(s.insert(t));
  EXPECT_EQ(s.size(), 1u);
}

TEST(TripleStore, EraseRemovesFromAllIndexes) {
  TripleStore s = small_store();
  Triple t{iri("a"), iri("knows"), iri("b")};
  EXPECT_TRUE(s.erase(t));
  EXPECT_FALSE(s.erase(t));
  EXPECT_FALSE(s.contains(t));
  // All three orderings must agree.
  EXPECT_TRUE(s.match(TriplePattern{t.s, t.p, t.o}).empty());
  EXPECT_EQ(s.count_matches(TriplePattern{Variable{"s"}, t.p, t.o}), 0u);
  EXPECT_EQ(s.count_matches(TriplePattern{t.s, Variable{"p"}, t.o}), 0u);
}

TEST(TripleStore, EraseUnknownTermIsFalse) {
  TripleStore s = small_store();
  EXPECT_FALSE(s.erase({iri("zzz"), iri("knows"), iri("b")}));
}

TEST(TripleStore, ContainsExactTriple) {
  TripleStore s = small_store();
  EXPECT_TRUE(s.contains({iri("a"), iri("knows"), iri("b")}));
  EXPECT_FALSE(s.contains({iri("b"), iri("knows"), iri("a")}));
}

struct PatternCase {
  bool bind_s, bind_p, bind_o;
  std::size_t expected;  // matches of (a?, knows?, b?) over small_store
};

class StorePatternShapes : public ::testing::TestWithParam<PatternCase> {};

TEST_P(StorePatternShapes, MatchesEveryBoundCombination) {
  const PatternCase& pc = GetParam();
  TripleStore s = small_store();
  TriplePattern p{
      pc.bind_s ? PatternTerm(iri("a")) : PatternTerm(Variable{"s"}),
      pc.bind_p ? PatternTerm(iri("knows")) : PatternTerm(Variable{"p"}),
      pc.bind_o ? PatternTerm(iri("b")) : PatternTerm(Variable{"o"})};
  EXPECT_EQ(s.match(p).size(), pc.expected);
  EXPECT_EQ(s.count_matches(p), pc.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllEightShapes, StorePatternShapes,
    ::testing::Values(
        PatternCase{true, true, true, 1},    // (s,p,o)
        PatternCase{true, true, false, 2},   // (s,p,?)  a knows b,c
        PatternCase{true, false, true, 1},   // (s,?,o)  a ? b
        PatternCase{false, true, true, 1},   // (?,p,o)  ? knows b
        PatternCase{true, false, false, 3},  // (s,?,?)  a * *
        PatternCase{false, true, false, 3},  // (?,p,?)  knows edges
        PatternCase{false, false, true, 1},  // (?,?,o)  * * b
        PatternCase{false, false, false, 5}  // full scan
        ),
    [](const ::testing::TestParamInfo<PatternCase>& instance) {
      const PatternCase& pc = instance.param;
      return test_names::shape_name(pc.bind_s, pc.bind_p, pc.bind_o);
    });

TEST(TripleStore, MatchReturnsActualTriples) {
  TripleStore s = small_store();
  auto out = s.match(TriplePattern{iri("a"), iri("knows"), Variable{"o"}});
  ASSERT_EQ(out.size(), 2u);
  for (const Triple& t : out) {
    EXPECT_EQ(t.s, iri("a"));
    EXPECT_EQ(t.p, iri("knows"));
  }
}

TEST(TripleStore, MatchUnknownTermYieldsNothing) {
  TripleStore s = small_store();
  EXPECT_TRUE(
      s.match(TriplePattern{iri("nobody"), Variable{"p"}, Variable{"o"}})
          .empty());
}

TEST(TripleStore, MatchOnEmptyStore) {
  TripleStore s;
  EXPECT_TRUE(
      s.match(TriplePattern{Variable{"s"}, Variable{"p"}, Variable{"o"}})
          .empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(TripleStore, ForEachVisitsEverythingOnce) {
  TripleStore s = small_store();
  std::size_t n = 0;
  s.for_each([&](const Triple&) { ++n; });
  EXPECT_EQ(n, s.size());
}

TEST(TripleStore, IterationOrderIsDeterministic) {
  TripleStore a = small_store();
  TripleStore b = small_store();
  std::vector<Triple> ta, tb;
  a.for_each([&](const Triple& t) { ta.push_back(t); });
  b.for_each([&](const Triple& t) { tb.push_back(t); });
  EXPECT_EQ(ta, tb);
}

/// Property test: random store, every pattern shape agrees with a naive
/// filter over the full dataset.
TEST(TripleStoreProperty, MatchAgreesWithNaiveScan) {
  common::Rng rng(99);
  TripleStore store;
  std::vector<Triple> all;
  for (int i = 0; i < 300; ++i) {
    Triple t{iri("s" + std::to_string(rng.below(20))),
             iri("p" + std::to_string(rng.below(5))),
             iri("o" + std::to_string(rng.below(30)))};
    if (store.insert(t)) all.push_back(t);
  }
  for (int trial = 0; trial < 100; ++trial) {
    Term s = iri("s" + std::to_string(rng.below(20)));
    Term p = iri("p" + std::to_string(rng.below(5)));
    Term o = iri("o" + std::to_string(rng.below(30)));
    std::uint64_t shape = rng.below(8);
    TriplePattern pat{
        (shape & 1) ? PatternTerm(s) : PatternTerm(Variable{"s"}),
        (shape & 2) ? PatternTerm(p) : PatternTerm(Variable{"p"}),
        (shape & 4) ? PatternTerm(o) : PatternTerm(Variable{"o"})};
    std::size_t naive = static_cast<std::size_t>(
        std::count_if(all.begin(), all.end(),
                      [&](const Triple& t) { return pat.matches(t); }));
    EXPECT_EQ(store.count_matches(pat), naive) << pat.to_string();
  }
}

}  // namespace
}  // namespace ahsw::rdf
