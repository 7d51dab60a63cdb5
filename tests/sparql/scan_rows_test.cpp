// Id-native provider scans: LocalEngine::match_ids against a row-at-a-time
// reference built from decoded triples, the merge accumulator fed scans in
// store ids against the same rows interned into other dictionaries, a carry
// binding terms no store holds, and the per-worker dictionary copy of an
// overlay clone.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "net/wire.hpp"
#include "overlay/overlay.hpp"
#include "sparql/columnar.hpp"
#include "sparql/eval.hpp"
#include "sparql/expr.hpp"
#include "support/wire_codec.hpp"

namespace ahsw::sparql {
namespace {

using rdf::PatternTerm;
using rdf::Term;
using rdf::Triple;
using rdf::TriplePattern;
using rdf::Variable;

Term iri(const std::string& x) { return Term::iri("http://example.org/" + x); }
PatternTerm var(const std::string& name) { return Variable{name}; }

/// The pattern's solutions one decoded triple at a time: bind every
/// variable, drop a triple binding one variable to two terms, then apply
/// the pushed filter.
SolutionSet reference_match(const rdf::TripleStore& store,
                            const BgpPattern& p) {
  SolutionSet out;
  store.match(p.pattern, [&](const Triple& t) {
    Binding b;
    const PatternTerm* positions[3] = {&p.pattern.s, &p.pattern.p,
                                       &p.pattern.o};
    const Term* values[3] = {&t.s, &t.p, &t.o};
    for (int k = 0; k < 3; ++k) {
      const rdf::Variable* v = rdf::var_of(*positions[k]);
      if (v == nullptr) continue;
      if (const Term* held = b.get(v->name)) {
        if (*held != *values[k]) return;
      } else {
        b.set(v->name, *values[k]);
      }
    }
    if (p.pushed_filter == nullptr || satisfies(*p.pushed_filter, b)) {
      out.add(std::move(b));
    }
  });
  return out;
}

/// A store over `dict` with self-loops (for ?x p ?x), literals and a few
/// predicates, drawn from a small pool so terms repeat.
void fill_store(rdf::TripleStore& store, common::Rng& rng, int triples) {
  for (int i = 0; i < triples; ++i) {
    const Term s = iri("n" + std::to_string(rng.below(12)));
    const Term p = iri("p" + std::to_string(rng.below(3)));
    Term o = s;
    if (!rng.chance(0.2)) {
      o = rng.chance(0.5) ? Term::integer(static_cast<long long>(rng.below(20)))
                          : iri("n" + std::to_string(rng.below(12)));
    }
    store.insert(Triple{s, p, std::move(o)});
  }
}

std::vector<BgpPattern> patterns_under_test() {
  const ExprPtr small = Expr::binary(ExprKind::kLt, Expr::variable("o"),
                                     Expr::constant_term(Term::integer(10)));
  const ExprPtr iri_object =
      Expr::unary(ExprKind::kIsIri, Expr::variable("o"));
  return {
      {TriplePattern{var("s"), var("p"), var("o")}, nullptr},
      {TriplePattern{var("x"), iri("p0"), var("x")}, nullptr},  // ?x p ?x
      {TriplePattern{var("x"), var("x"), var("x")}, nullptr},
      {TriplePattern{var("s"), iri("p1"), var("o")}, nullptr},
      {TriplePattern{iri("n3"), var("p"), var("o")}, nullptr},
      {TriplePattern{iri("n3"), iri("p1"), var("o")}, nullptr},
      {TriplePattern{var("s"), iri("p2"), iri("n5")}, nullptr},
      {TriplePattern{iri("n1"), iri("p0"), iri("n1")}, nullptr},  // bound
      {TriplePattern{iri("n1"), iri("p0"), iri("n2")}, nullptr},
      {TriplePattern{iri("absent"), var("p"), var("o")}, nullptr},
      {TriplePattern{var("s"), iri("absent"), var("o")}, nullptr},
      {TriplePattern{var("s"), var("p"), var("o")}, small},
      {TriplePattern{var("s"), iri("p1"), var("o")}, small},
      {TriplePattern{var("s"), var("p"), var("o")}, iri_object},
      {TriplePattern{var("x"), iri("p2"), var("x")}, iri_object},
  };
}

TEST(ScanRows, MatchIdsEqualsDecodedReferenceRowForRow) {
  common::Rng rng(41);
  rdf::TermDictionary dict;
  rdf::TripleStore a(dict);
  rdf::TripleStore b(dict);
  fill_store(a, rng, 150);
  fill_store(b, rng, 150);
  dict.refresh_order();
  rdf::TripleStore standalone;
  fill_store(standalone, rng, 150);
  standalone.refresh_order();
  for (const rdf::TripleStore* store : {&a, &b, &standalone}) {
    const LocalEngine engine(*store);
    for (const BgpPattern& p : patterns_under_test()) {
      const IdRows rows = engine.match_ids(p);
      EXPECT_EQ(rows.dict, &store->dictionary());
      const SolutionSet want = reference_match(*store, p);
      // Row for row, in scan order.
      EXPECT_EQ(rows.materialize().rows(), want.rows()) << p.to_string();
      EXPECT_EQ(rows.rows, want.size()) << p.to_string();
      EXPECT_EQ(rows.vars, variables_of(want)) << p.to_string();
      EXPECT_EQ(rows.byte_size(), want.byte_size()) << p.to_string();
      EXPECT_EQ(net::wire::charged_bytes(rows),
                net::wire_codec::encode(want).size())
          << p.to_string();
    }
  }
}

TEST(ScanRows, StoresOnOneDictionaryEmitComparableIds) {
  rdf::TermDictionary dict;
  rdf::TripleStore a(dict);
  rdf::TripleStore b(dict);
  a.insert({iri("x"), iri("p"), iri("y")});
  b.insert({iri("z"), iri("p"), iri("x")});
  const BgpPattern all{TriplePattern{var("s"), var("p"), var("o")}, nullptr};
  const IdRows ra = LocalEngine(a).match_ids(all);
  const IdRows rb = LocalEngine(b).match_ids(all);
  ASSERT_EQ(ra.vars, (std::vector<std::string>{"o", "p", "s"}));
  // <x> is the subject at a and the object at b: one id for both.
  EXPECT_EQ(ra.cells[2], rb.cells[0]);
  EXPECT_EQ(ra.cells[1], rb.cells[1]);
  EXPECT_EQ(dict.size(), 4u);
}

void expect_same_merge(MergeAccumulator& by_ids, MergeAccumulator& by_sets,
                       const std::string& where) {
  ASSERT_EQ(by_ids.size(), by_sets.size()) << where;
  EXPECT_EQ(by_ids.raw_bytes(), by_sets.raw_bytes()) << where;
  EXPECT_EQ(net::wire::charged_bytes(by_ids), net::wire::charged_bytes(by_sets))
      << where;
  const std::size_t wire = net::wire::charged_bytes(by_ids);
  const std::size_t raw = by_ids.raw_bytes();
  const IdRows ids_out = by_ids.take();
  const SolutionSet sets_out = by_sets.take().materialize();
  EXPECT_EQ(ids_out.materialize().rows(), sets_out.rows()) << where;
  EXPECT_EQ(ids_out.byte_size(), raw) << where;
  EXPECT_EQ(net::wire::charged_bytes(ids_out), wire) << where;
  EXPECT_EQ(wire, net::wire_codec::encode(sets_out).size()) << where;
}

TEST(ScanRows, AccumulatorFedScanRowsEqualsOneFedSolutionSets) {
  common::Rng rng(7);
  rdf::TermDictionary dict;
  std::vector<rdf::TripleStore> stores;
  for (int i = 0; i < 5; ++i) {
    stores.emplace_back(dict);
    fill_store(stores.back(), rng, 60);
  }
  dict.refresh_order();
  SolutionSet carry;
  for (int i = 0; i < 6; ++i) {
    Binding b;
    b.set("s", iri("n" + std::to_string(i)));
    if (i % 2 == 0) b.set("tag", Term::literal("t" + std::to_string(i)));
    carry.add(std::move(b));
  }
  for (const BgpPattern& p : patterns_under_test()) {
    for (const bool with_carry : {false, true}) {
      // by_sets re-interns the materialized rows into the store dictionary;
      // other_dict interns them into a fresh one, whose id order differs.
      rdf::TermDictionary other;
      MergeAccumulator by_ids(&dict);
      MergeAccumulator by_sets(&dict);
      MergeAccumulator other_dict(&other);
      if (with_carry) {
        by_ids.set_carry(intern_rows(carry, dict));
        by_sets.set_carry(intern_rows(carry, dict));
        other_dict.set_carry(intern_rows(carry, other));
      }
      SolutionSet ref;
      for (const rdf::TripleStore& store : stores) {
        const LocalEngine engine(store);
        by_ids.add(engine.match_ids(p));
        const SolutionSet local = engine.match_ids(p).materialize();
        by_sets.add(intern_rows(local, dict));
        other_dict.add(intern_rows(local, other));
        ref = vec_deduplicated(
            set_union(ref, with_carry ? vec_join(carry, local) : local));
        ASSERT_EQ(by_ids.size(), ref.size()) << p.to_string();
        ASSERT_EQ(by_ids.raw_bytes(), ref.byte_size()) << p.to_string();
        ASSERT_EQ(net::wire::charged_bytes(by_ids),
                  net::wire_codec::encode(ref).size())
            << p.to_string();
      }
      const std::string where =
          p.to_string() + (with_carry ? " with carry" : "");
      EXPECT_EQ(other_dict.size(), ref.size()) << where;
      EXPECT_EQ(other_dict.take().materialize().rows(), ref.rows()) << where;
      expect_same_merge(by_ids, by_sets, where);
    }
  }
}

TEST(ScanRows, CarryTermsNoStoreHoldsJoinById) {
  rdf::TermDictionary dict;
  rdf::TripleStore store(dict);
  store.insert({iri("a"), iri("knows"), iri("b")});
  store.insert({iri("c"), iri("knows"), iri("b")});
  // The carry binds ?s to a stored term and to one nobody stores, and ?note
  // to literals no store holds.
  SolutionSet carry;
  for (const char* s : {"a", "c", "ghost"}) {
    Binding b;
    b.set("s", iri(s));
    b.set("note", Term::literal(std::string("only in the carry ") + s));
    carry.add(std::move(b));
  }
  const IdRows carry_ids = intern_rows(carry, dict);
  const std::size_t dict_size = dict.size();
  MergeAccumulator acc(&dict);
  acc.set_carry(carry_ids);
  const BgpPattern p{TriplePattern{var("s"), iri("knows"), var("o")}, nullptr};
  const IdRows local = LocalEngine(store).match_ids(p);
  acc.add(local);
  acc.add(local);  // a repeat adds nothing

  const SolutionSet want =
      vec_deduplicated(vec_join(carry, local.materialize()));
  ASSERT_EQ(want.size(), 2u);
  EXPECT_EQ(acc.raw_bytes(), want.byte_size());
  EXPECT_EQ(net::wire::charged_bytes(acc),
            net::wire_codec::encode(want).size());
  EXPECT_EQ(acc.take().materialize().rows(), want.rows());
  // The merge renumbered ids; it interned nothing.
  EXPECT_EQ(dict.size(), dict_size);
}

TEST(ScanRows, WorkerCloneDictionaryIgnoresLaterMasterShares) {
  net::Network network;
  overlay::HybridOverlay master(network);
  for (int i = 0; i < 3; ++i) master.add_index_node();
  master.ring().fix_all_fingers_oracle();
  const net::NodeAddress node = master.add_storage_node();
  master.share_triples(node, {{iri("a"), iri("p"), iri("b")}}, 0);
  EXPECT_EQ(&master.store_of(node).dictionary(), &master.dictionary());

  net::Network worker_net = network;
  const std::unique_ptr<overlay::HybridOverlay> clone =
      master.clone_for_worker(worker_net);
  ASSERT_NE(&clone->dictionary(), &master.dictionary());
  EXPECT_EQ(&clone->store_of(node).dictionary(), &clone->dictionary());
  const std::size_t cloned = clone->dictionary().size();
  EXPECT_EQ(cloned, master.dictionary().size());

  master.share_triples(node, {{iri("c"), iri("q"), iri("d")}}, 0);
  EXPECT_EQ(master.dictionary().size(), cloned + 3);
  EXPECT_EQ(clone->dictionary().size(), cloned);
  EXPECT_FALSE(clone->dictionary().find(iri("c")).has_value());

  // The clone still answers from its own copy, with the master's ids.
  const BgpPattern p{TriplePattern{var("s"), var("p"), var("o")}, nullptr};
  const IdRows rows = LocalEngine(clone->store_of(node)).match_ids(p);
  ASSERT_EQ(rows.rows, 1u);
  EXPECT_EQ(rows.dict, &clone->dictionary());
  EXPECT_EQ(clone->dictionary().term(rows.cells[2]), iri("a"));
  EXPECT_EQ(master.dictionary().find(iri("a")), rows.cells[2]);
}

}  // namespace
}  // namespace ahsw::sparql
