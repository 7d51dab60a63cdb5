// The id-space finalize_result against the Binding-space reference in
// tests/support/: random raw results with unbound cells, interned into a
// dictionary whose id order runs against term order, must finalize to the
// reference's answer row for row — for every modifier and result form. A
// finalize that ordered, deduplicated or sliced by id instead of by term
// would disagree on the first trial with two rows to order.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "rdf/store.hpp"
#include "sparql/columnar.hpp"
#include "sparql/eval.hpp"
#include "support/row_reference.hpp"

namespace ahsw::sparql {
namespace {

using rdf::Term;

/// `head`, a WHERE clause binding ?a ?b ?x ?y, then `tail`.
std::string query(const std::string& head, const std::string& tail = "") {
  return head + " WHERE { ?a <http://t/p> ?x . ?b <http://t/q> ?y . }" + tail;
}

/// A small term pool (IRIs, plain, numeric and lang literals) so random
/// rows collide on projected columns and ORDER BY keys tie.
std::vector<Term> term_pool() {
  std::vector<Term> pool;
  for (int i = 0; i < 5; ++i) {
    pool.push_back(Term::iri("http://t/" + std::to_string(i)));
    pool.push_back(Term::literal("v" + std::to_string(i)));
    pool.push_back(Term::integer(i));
    pool.push_back(Term::lang_literal("w" + std::to_string(i % 2), "en"));
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  return pool;
}

/// The whole pool interned in descending term order.
rdf::TermDictionary reversed_dictionary(const std::vector<Term>& pool) {
  rdf::TermDictionary dict;
  for (auto it = pool.rbegin(); it != pool.rend(); ++it) dict.intern(*it);
  dict.refresh_order();
  return dict;
}

/// Random raw result over ?a ?b ?x ?y: cells unbound at random, some rows
/// repeated, now and then a row that binds nothing.
SolutionSet random_raw(common::Rng& rng, const std::vector<Term>& pool) {
  static const char* kVars[] = {"a", "b", "x", "y"};
  SolutionSet s;
  const std::size_t rows = rng.below(14);
  for (std::size_t r = 0; r < rows; ++r) {
    Binding row;
    for (const char* v : kVars) {
      if (rng.chance(0.7)) row.set(v, pool[rng.below(pool.size())]);
    }
    if (rng.chance(0.05)) row = Binding{};
    s.add(row);
    if (rng.chance(0.2)) s.add(std::move(row));
  }
  return s;
}

void expect_same(const QueryResult& got, const QueryResult& want,
                 const std::string& where) {
  EXPECT_EQ(got.form, want.form) << where;
  EXPECT_EQ(got.variables, want.variables) << where;
  EXPECT_EQ(got.solutions.rows(), want.solutions.rows()) << where;
  EXPECT_EQ(got.ask_answer, want.ask_answer) << where;
  EXPECT_EQ(got.graph, want.graph) << where;
}

/// Finalize `trials` random raw results under `text` both ways.
void check_query(const std::string& text, std::uint64_t seed,
                 int trials = 60) {
  const Query q = parse_query(text);
  const std::vector<Term> pool = term_pool();
  rdf::TermDictionary dict = reversed_dictionary(pool);
  common::Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const SolutionSet raw = random_raw(rng, pool);
    expect_same(finalize_result(q, intern_rows(raw, dict), nullptr),
                row_reference::finalize_result(q, raw, nullptr),
                text + " | trial " + std::to_string(trial) + " | " +
                    raw.to_string());
  }
  EXPECT_EQ(dict.size(), pool.size());  // every term came from the pool
}

TEST(FinalizeIds, SelectStarMatchesReference) {
  check_query(query("SELECT *"), 201);
}

TEST(FinalizeIds, ProjectedSelectMatchesReference) {
  check_query(query("SELECT ?x ?a"), 202);
  check_query(query("SELECT ?y"), 203);
  // A projected variable no row binds stays out of every row.
  check_query(query("SELECT ?x ?zz"), 204);
}

TEST(FinalizeIds, DistinctKeepsFirstOccurrence) {
  check_query(query("SELECT DISTINCT ?x"), 205);
  check_query(query("SELECT DISTINCT ?a ?y"), 206);
  check_query(query("SELECT DISTINCT ?x", " OFFSET 2 LIMIT 3"), 220);
  check_query(query("SELECT DISTINCT ?x", " ORDER BY DESC(?y)"), 207);
}

TEST(FinalizeIds, ReducedDropsAdjacentDuplicates) {
  check_query(query("SELECT REDUCED ?x"), 208);
  // Under ORDER BY, projected duplicates need not be adjacent.
  check_query(query("SELECT REDUCED ?x", " ORDER BY ?y"), 209);
}

TEST(FinalizeIds, OrderByWithTiesIsStable) {
  check_query(query("SELECT *", " ORDER BY ?x"), 210);
  check_query(query("SELECT ?a ?x", " ORDER BY DESC(?x) ?a"), 211);
  check_query(query("SELECT ?b", " ORDER BY ASC(?y) DESC(?a)"), 212);
}

TEST(FinalizeIds, OffsetAndLimitPastTheEnd) {
  check_query(query("SELECT ?x", " LIMIT 3"), 213);
  check_query(query("SELECT ?x", " OFFSET 4 LIMIT 2"), 214);
  check_query(query("SELECT ?x", " OFFSET 30"), 215);
  check_query(query("SELECT ?x", " LIMIT 0"), 216);
  check_query(query("SELECT ?x", " ORDER BY ?x OFFSET 2 LIMIT 50"), 217);
}

TEST(FinalizeIds, AskOnEmptyAndNonEmptySets) {
  const Query q = parse_query(query("ASK"));
  rdf::TermDictionary dict;
  SolutionSet empty;
  SolutionSet one;
  Binding row;
  row.set("x", Term::literal("v"));
  one.add(row);
  SolutionSet empty_row;
  empty_row.add(Binding{});
  for (const SolutionSet* raw : {&empty, &one, &empty_row}) {
    const QueryResult got =
        finalize_result(q, intern_rows(*raw, dict), nullptr);
    expect_same(got, row_reference::finalize_result(q, *raw, nullptr),
                raw->to_string());
    EXPECT_EQ(got.ask_answer, !raw->empty());
    EXPECT_TRUE(got.solutions.empty());
  }
}

TEST(FinalizeIds, ConstructSkipsUnboundTemplatePositions) {
  // ?y and ?b are often unbound; ?zz is bound in no row, so its pattern
  // yields nothing.
  const std::string construct =
      "CONSTRUCT { ?a <http://t/p> ?x . ?y <http://t/q> \"c\" . "
      "?b ?a ?y . ?zz <http://t/p> ?x . }";
  check_query(query(construct), 218);
}

TEST(FinalizeIds, DescribeResolvesBoundTargets) {
  rdf::TripleStore store;
  const std::vector<Term> pool = term_pool();
  for (std::size_t i = 0; i + 1 < pool.size(); ++i) {
    if (pool[i].kind() != rdf::TermKind::kIri) continue;
    store.insert({pool[i], Term::iri("http://t/p"), pool[i + 1]});
  }
  const Query q = parse_query(query("DESCRIBE ?a <http://t/3>"));
  rdf::TermDictionary dict = reversed_dictionary(pool);
  common::Rng rng(219);
  for (int trial = 0; trial < 20; ++trial) {
    const SolutionSet raw = random_raw(rng, pool);
    expect_same(finalize_result(q, intern_rows(raw, dict), &store),
                row_reference::finalize_result(q, raw, &store),
                "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace ahsw::sparql
