#include "overlay/keys.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/hash.hpp"

#include "../support/param_names.hpp"
namespace ahsw::overlay {
namespace {

using rdf::Term;
using rdf::TriplePattern;
using rdf::Variable;

rdf::Triple triple() {
  return {Term::iri("http://s"), Term::iri("http://p"), Term::literal("o")};
}

TEST(IndexKeys, SixDistinctKeysPerTriple) {
  auto keys = index_keys(triple());
  std::set<chord::Key> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), 6u);
}

TEST(IndexKeys, KeysAreStable) {
  EXPECT_EQ(index_keys(triple()), index_keys(triple()));
}

TEST(IndexKeys, SingleKeyMatchesKindAccessor) {
  rdf::Triple t = triple();
  auto keys = index_keys(t);
  EXPECT_EQ(keys[0], index_key(IndexKeyKind::kS, t.s));
  EXPECT_EQ(keys[1], index_key(IndexKeyKind::kP, t.p));
  EXPECT_EQ(keys[2], index_key(IndexKeyKind::kO, t.o));
  EXPECT_EQ(keys[3], index_key(IndexKeyKind::kSP, t.s, t.p));
  EXPECT_EQ(keys[4], index_key(IndexKeyKind::kPO, t.p, t.o));
  EXPECT_EQ(keys[5], index_key(IndexKeyKind::kSO, t.s, t.o));
}

TEST(IndexKeys, IriAndLiteralWithSameLexicalDiffer) {
  // <x> as object vs "x" as object must index under different keys.
  EXPECT_NE(index_key(IndexKeyKind::kO, Term::iri("x")),
            index_key(IndexKeyKind::kO, Term::literal("x")));
}

TEST(IndexKeys, PairKeysDependOnOrder) {
  Term a = Term::iri("a"), b = Term::iri("b");
  EXPECT_NE(index_key(IndexKeyKind::kSP, a, b),
            index_key(IndexKeyKind::kSP, b, a));
}

TEST(IndexKeys, KeysHashTheSurfaceForm) {
  // The keys hash each term's to_string() form without building it; every
  // key a node holds must stay the one that form gives.
  const std::vector<Term> terms = {
      Term(),
      Term::iri("http://example.org/person/42"),
      Term::blank("b7"),
      Term::literal("plain"),
      Term::literal(""),
      Term::lang_literal("chat", "fr"),
      Term::typed_literal("7", "http://www.w3.org/2001/XMLSchema#integer"),
      Term::literal("quote \" back \\ nl \n tab \t cr \r bell \a"),
      Term::lang_literal("line\nbreak", "en"),
      Term::typed_literal("a\"b", "http://e.org/dt"),
  };
  for (const Term& a : terms) {
    for (IndexKeyKind k :
         {IndexKeyKind::kS, IndexKeyKind::kP, IndexKeyKind::kO}) {
      EXPECT_EQ(index_key(k, a),
                common::tagged_hash(static_cast<std::uint8_t>(k),
                                    a.to_string()))
          << a.to_string();
    }
    for (const Term& b : terms) {
      for (IndexKeyKind k :
           {IndexKeyKind::kSP, IndexKeyKind::kPO, IndexKeyKind::kSO}) {
        EXPECT_EQ(index_key(k, a, b),
                  common::tagged_hash(static_cast<std::uint8_t>(k),
                                      a.to_string(), b.to_string()))
            << a.to_string() << " " << b.to_string();
      }
    }
  }
}

struct ShapeCase {
  bool s, p, o;
  IndexKeyKind expected;
};

class PatternKeySelection : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(PatternKeySelection, PicksDocumentedKind) {
  const ShapeCase& c = GetParam();
  TriplePattern pat{
      c.s ? rdf::PatternTerm(Term::iri("s")) : rdf::PatternTerm(Variable{"s"}),
      c.p ? rdf::PatternTerm(Term::iri("p")) : rdf::PatternTerm(Variable{"p"}),
      c.o ? rdf::PatternTerm(Term::literal("o"))
          : rdf::PatternTerm(Variable{"o"})};
  auto pk = key_for_pattern(pat);
  ASSERT_TRUE(pk.has_value());
  EXPECT_EQ(pk->kind, c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    SevenBoundShapes, PatternKeySelection,
    ::testing::Values(ShapeCase{true, true, true, IndexKeyKind::kSP},
                      ShapeCase{true, true, false, IndexKeyKind::kSP},
                      ShapeCase{false, true, true, IndexKeyKind::kPO},
                      ShapeCase{true, false, true, IndexKeyKind::kSO},
                      ShapeCase{true, false, false, IndexKeyKind::kS},
                      ShapeCase{false, true, false, IndexKeyKind::kP},
                      ShapeCase{false, false, true, IndexKeyKind::kO}),
    [](const ::testing::TestParamInfo<ShapeCase>& instance) {
      const ShapeCase& c = instance.param;
      return test_names::shape_name(c.s, c.p, c.o);
    });

TEST(PatternKey, FullyUnboundHasNoKey) {
  TriplePattern p{Variable{"s"}, Variable{"p"}, Variable{"o"}};
  EXPECT_FALSE(key_for_pattern(p).has_value());
}

TEST(PatternKey, PatternKeyMatchesTripleKey) {
  // The key a query uses must equal the key the data was published under —
  // the invariant the whole two-level index rests on.
  rdf::Triple t = triple();
  TriplePattern by_sp{t.s, t.p, Variable{"o"}};
  EXPECT_EQ(key_for_pattern(by_sp)->key, index_keys(t)[3]);
  TriplePattern by_o{Variable{"s"}, Variable{"p"}, t.o};
  EXPECT_EQ(key_for_pattern(by_o)->key, index_keys(t)[2]);
  TriplePattern by_so{t.s, Variable{"p"}, t.o};
  EXPECT_EQ(key_for_pattern(by_so)->key, index_keys(t)[5]);
}

}  // namespace
}  // namespace ahsw::overlay
