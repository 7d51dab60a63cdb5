#include "rdf/dictionary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "sparql/columnar.hpp"

namespace ahsw::rdf {
namespace {

TEST(TermDictionary, InternAssignsDenseIds) {
  TermDictionary d;
  EXPECT_EQ(d.intern(Term::iri("a")), 0u);
  EXPECT_EQ(d.intern(Term::iri("b")), 1u);
  EXPECT_EQ(d.intern(Term::iri("c")), 2u);
  EXPECT_EQ(d.size(), 3u);
}

TEST(TermDictionary, InternIsIdempotent) {
  TermDictionary d;
  TermId first = d.intern(Term::literal("x"));
  TermId second = d.intern(Term::literal("x"));
  EXPECT_EQ(first, second);
  EXPECT_EQ(d.size(), 1u);
}

TEST(TermDictionary, FindReturnsNulloptForUnknown) {
  TermDictionary d;
  d.intern(Term::iri("known"));
  EXPECT_FALSE(d.find(Term::iri("unknown")).has_value());
  EXPECT_TRUE(d.find(Term::iri("known")).has_value());
}

TEST(TermDictionary, TermRoundTrips) {
  TermDictionary d;
  Term original = Term::lang_literal("hello", "en");
  TermId id = d.intern(original);
  EXPECT_EQ(d.term(id), original);
}

TEST(TermDictionary, DistinguishesKindsAndAnnotations) {
  TermDictionary d;
  TermId a = d.intern(Term::iri("x"));
  TermId b = d.intern(Term::literal("x"));
  TermId c = d.intern(Term::lang_literal("x", "en"));
  TermId e = d.intern(Term::typed_literal("x", "http://dt"));
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(c, e);
  EXPECT_EQ(d.size(), 4u);
}

TEST(TermDictionary, TraversalIsDeterministicInsertionOrder) {
  // Regression for the D2/D3 iteration hazard: the exposed traversal must
  // be the insertion-order vector, never the unordered id map, so any
  // output built from a dictionary walk is identical across runs and
  // platforms.
  TermDictionary d;
  std::vector<Term> inserted = {Term::iri("b"), Term::iri("a"),
                                Term::literal("b"),
                                Term::lang_literal("z", "en")};
  for (const Term& t : inserted) d.intern(t);
  d.intern(inserted[1]);  // re-intern must not perturb the order

  ASSERT_EQ(d.terms().size(), inserted.size());
  for (std::size_t i = 0; i < inserted.size(); ++i) {
    EXPECT_EQ(d.terms()[i], inserted[i]) << "position " << i;
    // terms()[id] and term(id) agree: ids index the traversal directly.
    EXPECT_EQ(d.terms()[i], d.term(static_cast<TermId>(i)));
  }
}

/// IRI, plain, lang-tagged, typed and blank terms over shared lexical
/// forms, so the order has to break ties on kind, datatype and tag.
std::vector<Term> ordered_pool() {
  const std::string xsd = "http://www.w3.org/2001/XMLSchema#";
  std::vector<Term> pool;
  for (const char* lex : {"", "4", "42", "a", "ab", "b"}) {
    pool.push_back(Term::iri(lex));
    pool.push_back(Term::literal(lex));
    pool.push_back(Term::blank(lex));
    pool.push_back(Term::lang_literal(lex, "de"));
    pool.push_back(Term::lang_literal(lex, "en"));
    pool.push_back(Term::typed_literal(lex, xsd + "integer"));
    pool.push_back(Term::typed_literal(lex, xsd + "string"));
  }
  std::sort(pool.begin(), pool.end());
  return pool;
}

void expect_rank_is_term_order(const TermDictionary& d) {
  for (TermId x = 0; x < d.size(); ++x) {
    for (TermId y = 0; y < d.size(); ++y) {
      EXPECT_EQ(d.rank(x) < d.rank(y), d.term(x) < d.term(y))
          << d.term(x) << " vs " << d.term(y);
    }
  }
}

TEST(TermDictionary, RankFollowsTermOrderAcrossRefreshes) {
  // Ids arrive in descending term order in batches of growing size, so
  // every refresh ranks its fresh ids before all the held ones; a last
  // batch falls between held terms.
  const std::vector<Term> pool = ordered_pool();
  TermDictionary d;
  std::size_t batch = 1;
  for (std::size_t next = pool.size(); next > 0; ++batch) {
    for (std::size_t k = 0; k < batch && next > 0; ++k) d.intern(pool[--next]);
    d.refresh_order();
    expect_rank_is_term_order(d);
  }
  for (const char* lex : {"0", "41", "aa", "c"}) {
    d.intern(Term::literal(lex));
    d.intern(Term::iri(lex));
  }
  d.refresh_order();
  expect_rank_is_term_order(d);
  d.refresh_order();  // nothing new: a no-op
  expect_rank_is_term_order(d);

  const TermDictionary copy = d;  // the order travels with the dictionary
  EXPECT_NO_THROW(copy.require_order());
  for (TermId id = 0; id < d.size(); ++id) EXPECT_EQ(copy.rank(id), d.rank(id));
}

TEST(TermDictionary, KernelsRejectAStaleOrder) {
  TermDictionary d;
  sparql::IdRows rows;
  rows.vars = {"x"};
  rows.dict = &d;
  for (const Term& t : {Term::iri("b"), Term::iri("a")}) {
    rows.cells.push_back(d.intern(t));
    ++rows.rows;
  }
  EXPECT_THROW(d.require_order(), std::logic_error);
  EXPECT_THROW((void)sparql::deduplicated(rows), std::logic_error);
  d.refresh_order();
  const sparql::IdRows sorted = sparql::deduplicated(rows);
  EXPECT_EQ(sorted.cells, (std::vector<TermId>{1, 0}));
  // Interning after the refresh makes the order stale again.
  d.intern(Term::iri("c"));
  EXPECT_THROW((void)sparql::deduplicated(rows), std::logic_error);
}

}  // namespace
}  // namespace ahsw::rdf
