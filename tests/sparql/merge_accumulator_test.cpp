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
#include <utility>
#include <vector>

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
    SolutionSet contribution =
        carry != nullptr ? vec_join(*carry, local) : local;
    ref = vec_deduplicated(set_union(ref, contribution));
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
    ref = vec_deduplicated(set_union(ref, local));
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
              vec_deduplicated(vec_join(carry, local)).rows())
        << "trial " << trial;
  }
}

TEST(MergeAccumulator, CarryRegroupsWhenSharedColumnsChange) {
  // Contributions over different schemas share different columns with the
  // carry, so the carry's probe must follow them.
  common::Rng rng(38);
  static const std::vector<const char*> kCarryVars = {"x", "y"};
  const std::vector<std::vector<const char*>> schemas = {
      {"x"}, {"x", "y"}, {"y"}, {"a"}, {"a", "x", "y"}};
  for (int trial = 0; trial < 20; ++trial) {
    SolutionSet carry = random_contribution(rng, 12, 3, kCarryVars);
    rdf::TermDictionary dict;
    MergeAccumulator acc(&dict);
    acc.set_carry(intern_rows(carry, dict));
    SolutionSet ref;
    for (std::size_t i = 0; i < 2 * schemas.size(); ++i) {
      SolutionSet local =
          random_contribution(rng, 10, 3, schemas[i % schemas.size()]);
      acc.add(intern_rows(local, dict));
      ref = vec_deduplicated(set_union(ref, vec_join(carry, local)));
      expect_sizes_match(acc, ref, "add " + std::to_string(i));
    }
    EXPECT_EQ(acc.take().materialize().rows(), ref.rows())
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
            vec_deduplicated(vec_join(carry, local)).rows());
}

TEST(MergeAccumulator, EmptyBindingIsHeldOnce) {
  SolutionSet local;
  local.add(Binding{});
  local.add(Binding{});
  rdf::TermDictionary dict;
  MergeAccumulator acc(&dict);
  acc.add(intern_rows(local, dict));
  acc.add(intern_rows(local, dict));
  SolutionSet ref = vec_deduplicated(local);
  expect_sizes_match(acc, ref, "empty bindings");
  EXPECT_EQ(acc.take().materialize().rows(), ref.rows());
}

// The wire size the accumulator keeps as it grows, against the encoder
// after every add, at the places an incremental term-section update could
// go wrong: fresh terms before every held term, fresh terms between held
// terms that share a long prefix (the held successor is re-costed), equal
// lexical forms told apart only by tag or type, a schema that widens
// mid-chain, and a chain that joins every add with its carry.

using Row = std::vector<std::pair<const char*, Term>>;

SolutionSet rows_of(const std::vector<Row>& rows) {
  SolutionSet s;
  for (const Row& row : rows) {
    Binding b;
    for (const auto& [var, term] : row) b.set(var, term);
    s.add(std::move(b));
  }
  return s;
}

/// One row per term, binding `var`.
SolutionSet column(const char* var, const std::vector<Term>& terms) {
  std::vector<Row> rows;
  for (const Term& t : terms) rows.push_back({{var, t}});
  return rows_of(rows);
}

Term iri(const std::string& local) {
  return Term::iri("http://example.org/a/rather/long/shared/path/" + local);
}

/// A fold whose kept sizes are compared with the encoder after every add;
/// the rows are compared when it ends.
class CheckedFold {
 public:
  /// With a carry, every add merges join(carry, rows).
  explicit CheckedFold(const SolutionSet* carry = nullptr)
      : acc_(&dict_), carry_(carry) {
    if (carry_ != nullptr) acc_.set_carry(intern_rows(*carry_, dict_));
  }
  ~CheckedFold() { EXPECT_EQ(acc_.take().materialize().rows(), ref_.rows()); }

  void add(const SolutionSet& rows) {
    acc_.add(intern_rows(rows, dict_));
    ref_ = vec_deduplicated(
        set_union(ref_, carry_ != nullptr ? vec_join(*carry_, rows) : rows));
    expect_sizes_match(acc_, ref_, "add " + std::to_string(adds_++));
  }

 private:
  rdf::TermDictionary dict_;
  MergeAccumulator acc_;
  const SolutionSet* carry_;
  SolutionSet ref_;
  int adds_ = 0;
};

TEST(MergeAccumulator, SizeKeptWhenNewTermsRankFirst) {
  // Every add brings terms that sort before everything held, so the old
  // first entry is re-costed against a fresh predecessor each time.
  CheckedFold fold;
  fold.add(column("x", {iri("z9"), iri("z5")}));
  fold.add(column("x", {iri("y")}));
  fold.add(column("x", {iri("m1"), iri("m0"), iri("k")}));
  fold.add(column("x", {Term::blank("b0"), iri("a")}));
  fold.add(column("x", {iri("")}));
}

TEST(MergeAccumulator, SizeKeptWhenNewTermsFallBetweenSharedPrefixes) {
  CheckedFold fold;
  fold.add(column("x", {iri("aaaa"), iri("zzzz")}));
  fold.add(column("x", {iri("mmmm")}));
  // Between aaaa and mmmm: mmmm now follows aaab.
  fold.add(column("x", {iri("aaab")}));
  // A run of fresh terms between two held ones.
  fold.add(column("x", {iri("aaaa0"), iri("aaaa1"), iri("aaaa10")}));
  // Around and after the last held term.
  fold.add(column("x", {iri("zzzy"), iri("zzzz0"), iri("zzzzz")}));
  // Duplicates only: nothing new to rank.
  fold.add(column("x", {iri("mmmm"), iri("aaab")}));
}

TEST(MergeAccumulator, SizeKeptForEqualLexicalFormsWithTagsAndTypes) {
  const std::string xsd = "http://www.w3.org/2001/XMLSchema#";
  CheckedFold fold;
  fold.add(column("v", {Term::lang_literal("42", "en")}));
  fold.add(column("v", {Term::literal("42")}));
  fold.add(column("v", {Term::typed_literal("42", xsd + "integer")}));
  fold.add(column("v", {Term::lang_literal("42", "de"), Term::iri("42")}));
  fold.add(column("v", {Term::typed_literal("42", xsd + "decimal")}));
  fold.add(column("v", {Term::lang_literal("42", "fr"), Term::literal("4")}));
}

TEST(MergeAccumulator, SizeKeptWhenTheSchemaWidensMidChain) {
  CheckedFold fold;
  fold.add(column("x", {iri("p"), iri("q")}));
  fold.add(rows_of({{{"x", iri("p")}, {"y", Term::literal("1")}}}));
  fold.add(rows_of({{{"a", iri("r")}}, {}}));
  fold.add(rows_of({{{"a", iri("s")}, {"name", Term::literal("n")}}}));
  fold.add(column("x", {iri("b")}));
}

TEST(MergeAccumulator, SizeKeptWhenTheChainCarriesAJoin) {
  // The adds share ?x with the carry and bring ?z; the carry row without
  // ?x joins every add row.
  const SolutionSet carry =
      rows_of({{{"x", iri("p")}, {"y", Term::literal("1")}},
               {{"x", iri("q")}, {"y", Term::literal("2")}},
               {{"y", Term::literal("3")}}});
  CheckedFold fold(&carry);
  fold.add(rows_of({{{"x", iri("p")}, {"z", iri("k")}}}));
  fold.add(rows_of({{{"x", iri("q")}, {"z", iri("a")}}}));
  fold.add(rows_of({{{"x", iri("zz")}, {"z", iri("b")}}}));
  fold.add(rows_of({{{"z", iri("c")}}}));
  fold.add(rows_of({{{"x", iri("p")}, {"z", iri("k")}}}));
}

TEST(MergeAccumulator, SizeKeptWhenTheCarryHasManyGroups) {
  // About 2700 distinct (x, y) carry tuples, so the carry's id-tuple index
  // grows and probes, plus carry rows missing x or y (checked pairwise);
  // some add rows miss a key column too (checked against every carry row).
  std::vector<Row> carry_rows;
  for (int r = 0; r < 3000; ++r) {
    Row row{{"z", Term::integer(r)}};
    if (r % 11 != 0) row.push_back({"x", iri(std::to_string(r % 61))});
    if (r % 7 != 0) row.push_back({"y", Term::literal(std::to_string(r % 53))});
    carry_rows.push_back(std::move(row));
  }
  const SolutionSet carry = rows_of(carry_rows);
  common::Rng rng(37);
  CheckedFold fold(&carry);
  for (int add = 0; add < 6; ++add) {
    std::vector<Row> rows;
    for (int r = 0; r < 40; ++r) {
      Row row{{"a", Term::integer(static_cast<long long>(rng.below(8)))}};
      if (!rng.chance(0.1)) {
        row.push_back({"x", iri(std::to_string(rng.below(61)))});
      }
      if (!rng.chance(0.1)) {
        row.push_back({"y", Term::literal(std::to_string(rng.below(53)))});
      }
      rows.push_back(std::move(row));
    }
    fold.add(rows_of(rows));
  }
}

TEST(MergeAccumulator, IdTableSizesLikeTheEncoder) {
  common::Rng rng(36);
  static const std::vector<const char*> kVars = {"a", "name", "x", "y"};
  for (int trial = 0; trial < 40; ++trial) {
    SolutionSet s = random_contribution(rng, 40, 1 + rng.below(300), kVars);
    rdf::TermDictionary dict;
    EXPECT_EQ(net::wire::encoded_size(id_table(intern_rows(s, dict))),
              net::wire::encode(s).size())
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace ahsw::sparql
