// Differential test of the id-space merge accumulator against the fold it
// replaces in the executor: acc == deduplicated(set_union(acc, next)) after
// every add, with the raw size, the wire size and the rows take() returns
// (materialized) all equal to the reference's. Contributions are interned
// into the test's dictionary in arrival order, so id order is not term
// order. Contributions mix duplicate rows, rows that
// leave variables unbound (OPTIONAL shape), empty bindings, empty sets, lang
// and typed literals, and enough distinct terms that dictionary ranks cross
// the one- and two-byte varint boundaries (128, 16384) and row deltas go
// negative.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "net/wire.hpp"
#include "sparql/columnar.hpp"
#include "sparql/eval.hpp"

namespace ahsw::sparql {
namespace {

using rdf::Term;

/// A term drawn from a pool of `spread` values per kind: a small spread
/// repeats terms (and rows), a large one brings fresh dictionary entries.
Term draw_term(common::Rng& rng, std::uint64_t spread) {
  const std::string n = std::to_string(rng.below(spread));
  switch (rng.below(5)) {
    case 0: return Term::iri("http://example.org/resource/" + n);
    case 1: return Term::literal("value " + n);
    case 2: return Term::lang_literal("wort " + n, rng.chance(0.5) ? "de" : "en");
    case 3: return Term::typed_literal(n, std::string(rdf::xsd::kInteger));
    default: return Term::blank("b" + n);
  }
}

/// Random contribution: some rows bind every variable, some leave a few
/// unbound, a few bind none; rows repeat within and across contributions.
SolutionSet random_contribution(common::Rng& rng, std::size_t max_rows,
                                std::uint64_t spread,
                                const std::vector<const char*>& vars) {
  SolutionSet s;
  const std::size_t rows = rng.below(max_rows + 1);
  for (std::size_t r = 0; r < rows; ++r) {
    Binding b;
    if (!rng.chance(0.03)) {
      for (const char* v : vars) {
        if (rng.chance(0.8)) b.set(v, draw_term(rng, spread));
      }
    }
    s.add(b);
    if (rng.chance(0.1)) s.add(std::move(b));  // duplicate inside the set
  }
  return s;
}

void expect_sizes_match(const MergeAccumulator& acc, const SolutionSet& ref,
                        const std::string& where) {
  ASSERT_EQ(acc.size(), ref.size()) << where;
  ASSERT_EQ(acc.raw_bytes(), ref.byte_size()) << where;
  ASSERT_EQ(net::wire::charged_bytes(acc), net::wire::encode(ref).size())
      << where;
}

/// Fold `adds` contributions into both the accumulator and the reference,
/// comparing after every add and row for row at the end. Returns the number
/// of distinct terms the merged set held before take().
std::size_t run_fold(common::Rng& rng, int adds, std::size_t max_rows,
                     std::uint64_t spread, const SolutionSet* carry) {
  static const std::vector<const char*> kVars = {"a", "name", "x", "y"};
  rdf::TermDictionary dict;
  MergeAccumulator acc(&dict);
  if (carry != nullptr) acc.set_carry(intern_rows(*carry, dict));
  SolutionSet ref;
  expect_sizes_match(acc, ref, "empty");
  for (int i = 0; i < adds; ++i) {
    SolutionSet local = rng.chance(0.1)
                            ? SolutionSet{}
                            : random_contribution(rng, max_rows, spread, kVars);
    acc.add(intern_rows(local, dict));
    SolutionSet contribution = carry != nullptr ? join(*carry, local) : local;
    ref = deduplicated(set_union(ref, contribution));
    expect_sizes_match(acc, ref, "add " + std::to_string(i));
  }
  const std::size_t distinct = acc.table().by_rank.size();
  const IdRows taken = acc.take();
  EXPECT_EQ(taken.materialize().rows(), ref.rows());
  EXPECT_EQ(taken.byte_size(), ref.byte_size());
  EXPECT_EQ(net::wire::charged_bytes(taken), net::wire::encode(ref).size());
  EXPECT_EQ(acc.size(), 0u);
  return distinct;
}

TEST(MergeAccumulator, MatchesDeduplicatedUnionFold) {
  common::Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    run_fold(rng, 8, 30, 6 + static_cast<std::uint64_t>(trial), nullptr);
  }
}

TEST(MergeAccumulator, RanksCrossVarintBoundaries) {
  // > 128 distinct terms after the first add, > 16384 by the end.
  common::Rng rng(32);
  EXPECT_GT(run_fold(rng, 10, 2000, 20000, nullptr), 16384u);
}

TEST(MergeAccumulator, GrowsSchemaAcrossContributions) {
  common::Rng rng(33);
  rdf::TermDictionary dict;
  MergeAccumulator acc(&dict);
  SolutionSet ref;
  const std::vector<std::vector<const char*>> schemas = {
      {}, {"y"}, {"a", "y"}, {"name"}, {"a", "name", "x", "y", "z"}};
  for (int i = 0; i < 25; ++i) {
    SolutionSet local =
        random_contribution(rng, 10, 4, schemas[rng.below(schemas.size())]);
    acc.add(intern_rows(local, dict));
    ref = deduplicated(set_union(ref, local));
    expect_sizes_match(acc, ref, "add " + std::to_string(i));
  }
  EXPECT_EQ(acc.take().materialize().rows(), ref.rows());
}

TEST(MergeAccumulator, CarryJoinMatchesJoinFold) {
  common::Rng rng(34);
  static const std::vector<const char*> kCarryVars = {"x", "y", "z"};
  for (int trial = 0; trial < 40; ++trial) {
    SolutionSet carry = random_contribution(rng, 12, 5, kCarryVars);
    run_fold(rng, 6, 16, 5, &carry);
  }
}

TEST(MergeAccumulator, PreparedCarryJoinEqualsJoinAsRowSet) {
  common::Rng rng(35);
  static const std::vector<const char*> kCarryVars = {"x", "y", "z"};
  static const std::vector<const char*> kLocalVars = {"a", "x", "y"};
  for (int trial = 0; trial < 60; ++trial) {
    SolutionSet carry = random_contribution(rng, 14, 4, kCarryVars);
    SolutionSet local = random_contribution(rng, 14, 4, kLocalVars);
    rdf::TermDictionary dict;
    MergeAccumulator acc(&dict);
    acc.set_carry(intern_rows(carry, dict));
    acc.add(intern_rows(local, dict));
    EXPECT_EQ(acc.take().materialize().rows(),
              deduplicated(join(carry, local)).rows())
        << "trial " << trial;
  }
}

TEST(MergeAccumulator, CarryWithoutSharedVariablesIsAProduct) {
  SolutionSet carry;
  Binding c1;
  c1.set("p", Term::iri("http://e/1"));
  carry.add(c1);
  Binding c2;
  c2.set("p", Term::iri("http://e/2"));
  carry.add(c2);
  SolutionSet local;
  Binding l;
  l.set("q", Term::literal("v"));
  local.add(l);
  rdf::TermDictionary dict;
  MergeAccumulator acc(&dict);
  acc.set_carry(intern_rows(carry, dict));
  acc.add(intern_rows(local, dict));
  EXPECT_EQ(acc.take().materialize().rows(),
            deduplicated(join(carry, local)).rows());
}

TEST(MergeAccumulator, EmptyBindingIsHeldOnce) {
  SolutionSet local;
  local.add(Binding{});
  local.add(Binding{});
  rdf::TermDictionary dict;
  MergeAccumulator acc(&dict);
  acc.add(intern_rows(local, dict));
  acc.add(intern_rows(local, dict));
  SolutionSet ref = deduplicated(local);
  expect_sizes_match(acc, ref, "empty bindings");
  EXPECT_EQ(acc.take().materialize().rows(), ref.rows());
}

TEST(MergeAccumulator, IdTableSizesLikeTheEncoder) {
  common::Rng rng(36);
  static const std::vector<const char*> kVars = {"a", "name", "x", "y"};
  for (int trial = 0; trial < 40; ++trial) {
    SolutionSet s = random_contribution(rng, 40, 1 + rng.below(300), kVars);
    EXPECT_EQ(net::wire::encoded_size(id_table(s)),
              net::wire::encode(s).size())
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace ahsw::sparql
