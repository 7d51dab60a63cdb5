#include "sparql/solution.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sparql/eval.hpp"
#include "support/row_reference.hpp"

namespace ahsw::sparql {
namespace {

rdf::Term iri(const std::string& x) { return rdf::Term::iri("http://" + x); }

Binding bind(std::initializer_list<std::pair<std::string, std::string>> kv) {
  Binding b;
  for (const auto& [k, v] : kv) b.set(k, iri(v));
  return b;
}

TEST(Binding, SetAndGet) {
  Binding b;
  EXPECT_EQ(b.get("x"), nullptr);
  b.set("x", iri("a"));
  ASSERT_NE(b.get("x"), nullptr);
  EXPECT_EQ(*b.get("x"), iri("a"));
  EXPECT_TRUE(b.bound("x"));
  EXPECT_FALSE(b.bound("y"));
}

TEST(Binding, SetOverwrites) {
  Binding b = bind({{"x", "a"}});
  b.set("x", iri("b"));
  EXPECT_EQ(*b.get("x"), iri("b"));
  EXPECT_EQ(b.size(), 1u);
}

TEST(Binding, SlotsStaySorted) {
  Binding b = bind({{"z", "1"}, {"a", "2"}, {"m", "3"}});
  ASSERT_EQ(b.slots().size(), 3u);
  EXPECT_EQ(b.slots()[0].first, "a");
  EXPECT_EQ(b.slots()[1].first, "m");
  EXPECT_EQ(b.slots()[2].first, "z");
}

TEST(Binding, CompatibilityPerPerezEtAl) {
  Binding u1 = bind({{"x", "a"}, {"y", "b"}});
  Binding u2 = bind({{"y", "b"}, {"z", "c"}});
  Binding u3 = bind({{"y", "OTHER"}});
  EXPECT_TRUE(row_reference::compatible(u1, u2));
  EXPECT_TRUE(row_reference::compatible(u2, u1));
  EXPECT_FALSE(row_reference::compatible(u1, u3));
  // Disjoint domains are always compatible.
  EXPECT_TRUE(
      row_reference::compatible(bind({{"x", "a"}}), bind({{"q", "z"}})));
  // The empty mapping is compatible with everything.
  EXPECT_TRUE(row_reference::compatible(Binding{}, u1));
}

TEST(Binding, MergedUnionsDomains) {
  Binding m = row_reference::merged(bind({{"x", "a"}}), bind({{"y", "b"}}));
  EXPECT_EQ(*m.get("x"), iri("a"));
  EXPECT_EQ(*m.get("y"), iri("b"));
  EXPECT_EQ(m.size(), 2u);
}

TEST(Binding, MergedKeepsSharedOnce) {
  Binding m = row_reference::merged(bind({{"x", "a"}, {"y", "b"}}),
                                    bind({{"y", "b"}, {"z", "c"}}));
  EXPECT_EQ(m.size(), 3u);
}

TEST(Binding, ProjectedKeepsOnlyNamed) {
  Binding b = bind({{"x", "a"}, {"y", "b"}, {"z", "c"}});
  Binding p = row_reference::projected(b, {"x", "z", "missing"});
  EXPECT_EQ(p.size(), 2u);
  EXPECT_TRUE(p.bound("x"));
  EXPECT_FALSE(p.bound("y"));
}

TEST(Binding, OrderingIsCanonical) {
  EXPECT_LT(bind({{"x", "a"}}), bind({{"x", "b"}}));
  EXPECT_EQ(bind({{"x", "a"}}), bind({{"x", "a"}}));
}

TEST(SolutionSet, JoinOnSharedVariable) {
  SolutionSet a({bind({{"x", "1"}, {"y", "a"}}), bind({{"x", "2"}, {"y", "b"}})});
  SolutionSet b({bind({{"y", "a"}, {"z", "p"}}), bind({{"y", "zz"}, {"z", "q"}})});
  SolutionSet j = vec_join(a, b);
  ASSERT_EQ(j.size(), 1u);
  EXPECT_EQ(*j.rows()[0].get("x"), iri("1"));
  EXPECT_EQ(*j.rows()[0].get("z"), iri("p"));
}

TEST(SolutionSet, JoinWithoutSharedVarsIsCartesian) {
  SolutionSet a({bind({{"x", "1"}}), bind({{"x", "2"}})});
  SolutionSet b({bind({{"y", "a"}}), bind({{"y", "b"}}), bind({{"y", "c"}})});
  EXPECT_EQ(vec_join(a, b).size(), 6u);
}

TEST(SolutionSet, JoinHandlesPartiallyBoundRows) {
  // A row missing the shared var joins with everything compatible (this
  // arises after OPTIONAL).
  SolutionSet a({bind({{"x", "1"}})});
  SolutionSet b({bind({{"x", "1"}, {"y", "a"}}), bind({{"y", "b"}})});
  SolutionSet j = vec_join(a, b);
  EXPECT_EQ(j.size(), 2u);
}

TEST(SolutionSet, JoinWithEmptyIsEmpty) {
  SolutionSet a({bind({{"x", "1"}})});
  EXPECT_TRUE(vec_join(a, SolutionSet{}).empty());
  EXPECT_TRUE(vec_join(SolutionSet{}, a).empty());
}

TEST(SolutionSet, JoinWithEmptyMappingIsIdentity) {
  SolutionSet a({bind({{"x", "1"}}), bind({{"x", "2"}})});
  SolutionSet unit({Binding{}});
  EXPECT_EQ(vec_join(a, unit).size(), a.size());
  EXPECT_EQ(vec_join(unit, a).size(), a.size());
}

TEST(SolutionSet, UnionConcatenates) {
  SolutionSet a({bind({{"x", "1"}})});
  SolutionSet b({bind({{"x", "1"}}), bind({{"x", "2"}})});
  EXPECT_EQ(set_union(a, b).size(), 3u);  // multiset semantics
}

// Minus has no kernel in src/ (no plan emits it); the row reference's
// minus is the oracle of left_join, so these pin its semantics.
TEST(SolutionSet, MinusDropsCompatibleRows) {
  SolutionSet a({bind({{"x", "1"}}), bind({{"x", "2"}})});
  SolutionSet b({bind({{"x", "1"}, {"y", "q"}})});
  SolutionSet m = row_reference::minus(a, b);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.rows()[0].get("x"), iri("2"));
}

TEST(SolutionSet, MinusAgainstEmptyKeepsAll) {
  SolutionSet a({bind({{"x", "1"}})});
  EXPECT_EQ(row_reference::minus(a, SolutionSet{}).size(), 1u);
}

TEST(SolutionSet, MinusWithEmptyMappingRemovesEverything) {
  // The empty mapping is compatible with every row.
  SolutionSet a({bind({{"x", "1"}})});
  SolutionSet b({Binding{}});
  EXPECT_TRUE(row_reference::minus(a, b).empty());
}

TEST(SolutionSet, LeftJoinKeepsUnmatchedLeftRows) {
  SolutionSet a({bind({{"x", "1"}}), bind({{"x", "2"}})});
  SolutionSet b({bind({{"x", "1"}, {"y", "q"}})});
  SolutionSet lj = vec_left_join_conditioned(a, b, nullptr);
  lj.normalize();
  ASSERT_EQ(lj.size(), 2u);
  EXPECT_TRUE(lj.rows()[0].bound("y"));   // x=1 extended
  EXPECT_FALSE(lj.rows()[1].bound("y"));  // x=2 bare
}

TEST(SolutionSetProperty, LeftJoinDefinitionHolds) {
  // (O1 leftjoin O2) == (O1 join O2) union (O1 minus O2), as sets.
  common::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    SolutionSet a, b;
    for (int i = 0; i < 15; ++i) {
      a.add(bind({{"x", std::to_string(rng.below(5))},
                  {"y", std::to_string(rng.below(5))}}));
      b.add(bind({{"y", std::to_string(rng.below(5))},
                  {"z", std::to_string(rng.below(5))}}));
    }
    SolutionSet lhs =
        vec_deduplicated(vec_left_join_conditioned(a, b, nullptr));
    SolutionSet rhs = vec_deduplicated(
        set_union(vec_join(a, b), row_reference::minus(a, b)));
    EXPECT_EQ(lhs.rows(), rhs.rows());
  }
}

TEST(SolutionSetProperty, JoinIsCommutativeAsSets) {
  common::Rng rng(78);
  for (int trial = 0; trial < 20; ++trial) {
    SolutionSet a, b;
    for (int i = 0; i < 12; ++i) {
      a.add(bind({{"x", std::to_string(rng.below(4))},
                  {"y", std::to_string(rng.below(4))}}));
      b.add(bind({{"y", std::to_string(rng.below(4))},
                  {"z", std::to_string(rng.below(4))}}));
    }
    EXPECT_EQ(vec_deduplicated(vec_join(a, b)).rows(),
              vec_deduplicated(vec_join(b, a)).rows());
  }
}

TEST(SolutionSetProperty, JoinDistributesOverUnion) {
  // R join (A union B) == (R join A) union (R join B) — the identity that
  // justifies the paper's chain execution for conjunctions (Sect. IV-D).
  common::Rng rng(79);
  for (int trial = 0; trial < 20; ++trial) {
    SolutionSet r, a, b;
    for (int i = 0; i < 10; ++i) {
      r.add(bind({{"x", std::to_string(rng.below(4))},
                  {"y", std::to_string(rng.below(4))}}));
      a.add(bind({{"y", std::to_string(rng.below(4))},
                  {"z", std::to_string(rng.below(4))}}));
      b.add(bind({{"y", std::to_string(rng.below(4))},
                  {"z", std::to_string(rng.below(4))}}));
    }
    EXPECT_EQ(
        vec_deduplicated(vec_join(r, set_union(a, b))).rows(),
        vec_deduplicated(set_union(vec_join(r, a), vec_join(r, b))).rows());
  }
}

TEST(SolutionSet, ByteSizeGrowsWithRows) {
  SolutionSet small({bind({{"x", "1"}})});
  SolutionSet big({bind({{"x", "1"}}), bind({{"x", "2"}}), bind({{"x", "3"}})});
  EXPECT_LT(small.byte_size(), big.byte_size());
}

TEST(SolutionSet, VariablesOfCollectsAllNames) {
  SolutionSet s({bind({{"x", "1"}}), bind({{"y", "2"}})});
  EXPECT_EQ(variables_of(s), (std::vector<std::string>{"x", "y"}));
}

// Every mutation path (add, the row-vector constructor, in-place row
// mutation through the non-const accessor, normalize) lands on the byte size
// a freshly built copy reports.
std::size_t recomputed(const SolutionSet& s) {
  return SolutionSet(s.rows()).byte_size();
}

TEST(SolutionSet, ByteSizeCacheSurvivesIncrementalAdds) {
  SolutionSet s;
  std::size_t empty_size = s.byte_size();
  for (int i = 0; i < 10; ++i) {
    s.add(bind({{"x", std::to_string(i)}, {"y", "v"}}));
    EXPECT_EQ(s.byte_size(), recomputed(s)) << "after add " << i;
  }
  EXPECT_GT(s.byte_size(), empty_size);
}

TEST(SolutionSet, ByteSizeCacheInvalidatedByRowMutation) {
  SolutionSet s({bind({{"x", "a"}})});
  std::size_t before = s.byte_size();
  s.rows()[0].set("x", rdf::Term::literal("a much longer literal value"));
  EXPECT_GT(s.byte_size(), before);
  EXPECT_EQ(s.byte_size(), recomputed(s));

  s.rows().clear();
  EXPECT_EQ(s.byte_size(), SolutionSet{}.byte_size());
}

TEST(SolutionSet, ByteSizeCacheSurvivesNormalize) {
  SolutionSet s({bind({{"x", "3"}}), bind({{"x", "1"}}), bind({{"x", "2"}})});
  std::size_t before = s.byte_size();
  s.normalize();
  EXPECT_EQ(s.byte_size(), before);
  EXPECT_EQ(s.byte_size(), recomputed(s));
}

// A reference to the rows taken before byte_size() and written through
// after it: the size follows the rows.
TEST(SolutionSet, ByteSizeSeesRowsMutatedThroughAHeldReference) {
  SolutionSet s({bind({{"x", "a"}})});
  auto& rows = s.rows();
  const std::size_t before = s.byte_size();
  rows.push_back(bind({{"x", "b"}, {"y", "c"}}));
  EXPECT_GT(s.byte_size(), before);
  EXPECT_EQ(s.byte_size(), recomputed(s));
}

}  // namespace
}  // namespace ahsw::sparql
