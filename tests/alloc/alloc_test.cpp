// Heap allocations of term copies and of result delivery. This binary
// replaces the global operator new/delete with counting forwards to
// malloc/free, so each test reads how many blocks an operation allocated.
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/dictionary.hpp"
#include "rdf/term.hpp"
#include "sparql/columnar.hpp"
#include "sparql/expr.hpp"
#include "sparql/solution.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Not inlined: a caller in this file that saw malloc and free through them
// would be warned of a new/free mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace ahsw {
namespace {

using rdf::Term;

[[nodiscard]] std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(Alloc, CopyingATermAllocatesNothing) {
  const Term src = Term::iri("http://example.org/people/person-0000042");
  ASSERT_EQ(src.lexical().size(), 40u);
  std::vector<Term> copies;
  copies.reserve(3);
  Term assigned;

  const std::size_t before = allocations();
  copies.push_back(src);
  copies.push_back(copies.back());
  assigned = src;
  copies.push_back(std::move(assigned));
  assigned = copies.front();
  const std::size_t made = allocations() - before;

  EXPECT_EQ(made, 0u);
  for (const Term& t : copies) EXPECT_EQ(t, src);
  EXPECT_EQ(assigned, src);
}

TEST(Alloc, MaterializeAllocatesOneBlockPerRowAndOneForTheSet) {
  // Variable names fit the small-string buffer, so a row's only block is
  // its slot vector: the terms it binds are shared with the dictionary.
  constexpr std::size_t kRows = 64;
  rdf::TermDictionary dict;
  sparql::IdRows rows;
  rows.vars = {"name", "p"};
  rows.dict = &dict;
  rows.rows = kRows;
  for (std::size_t r = 0; r < kRows; ++r) {
    const std::string n = std::to_string(r);
    rows.cells.push_back(
        dict.intern(Term::literal("a name longer than a small string " + n)));
    rows.cells.push_back(
        dict.intern(Term::iri("http://example.org/people/person-" + n)));
  }

  const std::size_t before = allocations();
  const sparql::SolutionSet out = rows.materialize();
  const std::size_t made = allocations() - before;

  EXPECT_LE(made, kRows + 1);
  ASSERT_EQ(out.size(), kRows);
  ASSERT_NE(out.rows()[3].get("p"), nullptr);
  EXPECT_EQ(*out.rows()[3].get("p"),
            Term::iri("http://example.org/people/person-3"));
}

TEST(Alloc, BooleanVerdictsAllocateNothing) {
  const sparql::ExprPtr bound = sparql::Expr::bound("n");
  const sparql::ExprPtr less = sparql::Expr::binary(
      sparql::ExprKind::kLt, sparql::Expr::variable("n"),
      sparql::Expr::constant_term(Term::integer(5)));
  sparql::Binding row;
  row.set("n", Term::integer(3));
  // The first verdict builds the two shared boolean terms.
  ASSERT_TRUE(sparql::satisfies(*bound, row));

  const std::size_t before = allocations();
  const sparql::ExprValue is_bound = sparql::evaluate(*bound, row);
  const sparql::ExprValue is_less = sparql::evaluate(*less, row);
  const std::size_t made = allocations() - before;

  EXPECT_EQ(made, 0u);
  const Term yes =
      Term::typed_literal("true", std::string(rdf::xsd::kBoolean));
  EXPECT_EQ(is_bound, yes);
  EXPECT_EQ(is_less, yes);
}

}  // namespace
}  // namespace ahsw
