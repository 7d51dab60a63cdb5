#include "rdf/term.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

namespace ahsw::rdf {
namespace {

TEST(Term, IriFactoryAndAccessors) {
  Term t = Term::iri("http://example.org/a");
  EXPECT_TRUE(t.is_iri());
  EXPECT_FALSE(t.is_literal());
  EXPECT_FALSE(t.is_blank());
  EXPECT_EQ(t.lexical(), "http://example.org/a");
  EXPECT_EQ(t.to_string(), "<http://example.org/a>");
}

TEST(Term, PlainLiteral) {
  Term t = Term::literal("hello");
  EXPECT_TRUE(t.is_literal());
  EXPECT_EQ(t.to_string(), "\"hello\"");
  EXPECT_TRUE(t.datatype().empty());
  EXPECT_TRUE(t.lang().empty());
}

TEST(Term, LangLiteral) {
  Term t = Term::lang_literal("bonjour", "fr");
  EXPECT_EQ(t.lang(), "fr");
  EXPECT_EQ(t.to_string(), "\"bonjour\"@fr");
}

TEST(Term, TypedLiteral) {
  Term t = Term::typed_literal("5", std::string(xsd::kInteger));
  EXPECT_EQ(t.datatype(), xsd::kInteger);
  EXPECT_EQ(t.to_string(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>");
}

TEST(Term, BlankNode) {
  Term t = Term::blank("b1");
  EXPECT_TRUE(t.is_blank());
  EXPECT_EQ(t.to_string(), "_:b1");
}

TEST(Term, IntegerConvenience) {
  Term t = Term::integer(-42);
  double v = 0;
  ASSERT_TRUE(t.numeric_value(v));
  EXPECT_EQ(v, -42.0);
}

TEST(Term, RealConvenience) {
  Term t = Term::real(2.5);
  double v = 0;
  ASSERT_TRUE(t.numeric_value(v));
  EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(Term, NumericValueOfPlainNumberLiteral) {
  double v = 0;
  EXPECT_TRUE(Term::literal("17").numeric_value(v));
  EXPECT_EQ(v, 17.0);
}

TEST(Term, NumericValueRejectsNonNumbers) {
  double v = 0;
  EXPECT_FALSE(Term::literal("abc").numeric_value(v));
  EXPECT_FALSE(Term::literal("1x").numeric_value(v));
  EXPECT_FALSE(Term::literal("").numeric_value(v));
  EXPECT_FALSE(Term::iri("http://4").numeric_value(v));
  EXPECT_FALSE(
      Term::typed_literal("5", "http://example.org/custom").numeric_value(v));
}

TEST(Term, LiteralEscapingInSurfaceForm) {
  Term t = Term::literal("say \"hi\"\nplease");
  EXPECT_EQ(t.to_string(), "\"say \\\"hi\\\"\\nplease\"");
}

TEST(Term, EqualityDistinguishesKinds) {
  // Same lexical form, different kinds: all distinct terms.
  Term iri = Term::iri("x");
  Term lit = Term::literal("x");
  Term blank = Term::blank("x");
  EXPECT_NE(iri, lit);
  EXPECT_NE(lit, blank);
  EXPECT_NE(iri, blank);
}

TEST(Term, EqualityDistinguishesDatatypeAndLang) {
  EXPECT_NE(Term::literal("5"), Term::integer(5));
  EXPECT_NE(Term::lang_literal("a", "en"), Term::lang_literal("a", "de"));
  EXPECT_NE(Term::lang_literal("a", "en"), Term::literal("a"));
}

TEST(Term, OrderingIsTotalAndDeterministic) {
  Term a = Term::iri("a");
  Term b = Term::iri("b");
  EXPECT_LT(a, b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a < a);
}

TEST(Term, DefaultConstructedIsEmptyIri) {
  Term t;
  EXPECT_TRUE(t.is_iri());
  EXPECT_TRUE(t.lexical().empty());
}

TEST(Term, StreamOperatorMatchesToString) {
  std::ostringstream os;
  os << Term::lang_literal("hi", "en");
  EXPECT_EQ(os.str(), "\"hi\"@en");
}

TEST(TermHash, EqualTermsHashEqual) {
  TermHash h;
  EXPECT_EQ(h(Term::integer(7)), h(Term::integer(7)));
}

TEST(TermHash, KindsChangeHash) {
  TermHash h;
  EXPECT_NE(h(Term::iri("x")), h(Term::literal("x")));
  EXPECT_NE(h(Term::literal("x")), h(Term::blank("x")));
}

TEST(Term, ByteSizeGrowsWithContent) {
  EXPECT_LT(Term::literal("a").byte_size(), Term::literal("abcdef").byte_size());
  EXPECT_GT(Term::lang_literal("a", "en").byte_size(),
            Term::literal("a").byte_size());
}

TEST(TermShare, EqualValuesInDistinctRepsAreEqual) {
  // The default term holds no rep; an empty IRI built by the factory does.
  // Equality, order and hash see values only.
  const Term built = Term::iri("");
  EXPECT_EQ(Term(), built);
  EXPECT_EQ(Term() <=> built, std::strong_ordering::equal);
  EXPECT_EQ(TermHash{}(Term()), TermHash{}(built));
  const Term a = Term::typed_literal("5", std::string(xsd::kInteger));
  const Term b = Term::integer(5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a <=> b, std::strong_ordering::equal);
  EXPECT_EQ(TermHash{}(a), TermHash{}(b));
  EXPECT_LT(Term(), Term::iri("a"));
}

TEST(TermShare, ConcurrentCopiesOfOneRep) {
  // Copies of one term on several threads share its rep through an atomic
  // count (the parallel driver's worker clones do this with the dictionary).
  const Term shared = Term::lang_literal(
      "a literal long enough to live on the heap", "en");
  constexpr int kThreads = 4;
  constexpr int kCopies = 20000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&shared] {
      for (int c = 0; c < kCopies; ++c) {
        Term copy = shared;
        Term moved = std::move(copy);
        copy = moved;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(shared.lexical(), "a literal long enough to live on the heap");
  EXPECT_EQ(shared.lang(), "en");
  EXPECT_EQ(shared, Term::lang_literal(
                        "a literal long enough to live on the heap", "en"));
}

}  // namespace
}  // namespace ahsw::rdf
