#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "rdf/term.hpp"
#include "rdf/triple.hpp"
#include "sparql/columnar.hpp"
#include "sparql/solution.hpp"
#include "support/wire_codec.hpp"

namespace ahsw::net::wire {
namespace {

using rdf::Term;
using sparql::Binding;
using sparql::SolutionSet;
using wire_codec::decode;
using wire_codec::encode;
using wire_codec::kMaxEmptyRows;
using wire_codec::put_varint;

Term random_term(common::Rng& rng) {
  switch (rng.below(5)) {
    case 0: return Term::iri("http://example.org/r/" +
                             std::to_string(rng.below(40)));
    case 1: return Term::literal("value " + std::to_string(rng.below(40)));
    case 2: return Term::lang_literal("wort " + std::to_string(rng.below(9)),
                                      rng.chance(0.5) ? "de" : "en");
    case 3: return Term::integer(static_cast<long long>(rng.below(1000)));
    default: return Term::blank("b" + std::to_string(rng.below(12)));
  }
}

SolutionSet random_set(common::Rng& rng, std::size_t max_rows = 20) {
  static const char* kVars[] = {"a", "name", "x", "y", "z"};
  SolutionSet s;
  std::size_t rows = rng.below(max_rows + 1);
  for (std::size_t r = 0; r < rows; ++r) {
    Binding b;
    for (const char* v : kVars) {
      if (rng.chance(0.6)) b.set(v, random_term(rng));
    }
    s.add(std::move(b));
  }
  return s;
}

std::vector<rdf::Triple> random_triples(common::Rng& rng, std::size_t n) {
  std::vector<rdf::Triple> triples;
  for (std::size_t i = 0; i < n; ++i) {
    triples.push_back({Term::iri("http://s/" + std::to_string(rng.below(10))),
                       Term::iri("http://p/" + std::to_string(rng.below(4))),
                       random_term(rng)});
  }
  return triples;
}

TEST(WireCodec, EmptySetRoundTrips) {
  SolutionSet empty;
  std::string payload = encode(empty);
  EXPECT_FALSE(payload.empty());  // framing only, but never zero bytes
  SolutionSet back;
  ASSERT_TRUE(decode(payload, back));
  EXPECT_TRUE(back.empty());
}

TEST(WireCodec, SolutionSetsRoundTrip) {
  common::Rng rng(1234);
  for (int trial = 0; trial < 30; ++trial) {
    SolutionSet s = random_set(rng);
    std::string payload = encode(s);
    EXPECT_EQ(payload.size(), charged_bytes(s));
    SolutionSet back;
    ASSERT_TRUE(decode(payload, back)) << "trial " << trial;
    // The dictionary is canonical but rows keep their order, so decode is
    // an exact inverse.
    EXPECT_EQ(back.rows(), s.rows()) << "trial " << trial;
  }
}

TEST(WireCodec, TriplesRoundTrip) {
  common::Rng rng(99);
  const std::vector<rdf::Triple> triples = random_triples(rng, 50);
  std::string payload = encode(triples);
  std::vector<rdf::Triple> back;
  ASSERT_TRUE(decode(payload, back));
  EXPECT_EQ(back, triples);
}

TEST(WireCodec, EncodedSizeIsRowOrderIndependent) {
  common::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    SolutionSet s = random_set(rng);
    std::size_t size = charged_bytes(s);
    std::vector<Binding> rows = s.rows();
    rng.shuffle(rows);
    SolutionSet reordered{std::move(rows)};
    EXPECT_EQ(charged_bytes(reordered), size) << "trial " << trial;
  }
}

TEST(WireCodec, CompressesRepetitiveSetsBelowRawSize) {
  // 60 rows sharing a handful of terms: the dictionary pays once, rows are
  // bitmap + small ids. This is the whole point of charging wire bytes.
  SolutionSet s;
  for (int i = 0; i < 60; ++i) {
    Binding b;
    b.set("x", Term::iri("http://example.org/resource/" +
                         std::to_string(i % 5)));
    b.set("y", Term::literal("a moderately long literal value " +
                             std::to_string(i % 3)));
    s.add(std::move(b));
  }
  EXPECT_LT(charged_bytes(s), s.byte_size() / 2);
}

TEST(WireCodec, ChargedBytesFollowsMutation) {
  common::Rng rng(21);
  SolutionSet s = random_set(rng);
  const std::size_t first = charged_bytes(s);
  EXPECT_EQ(first, encode(s).size());
  Binding extra;
  extra.set("x", Term::iri("http://example.org/new-term"));
  s.add(extra);
  EXPECT_EQ(charged_bytes(s), encode(s).size());
  EXPECT_GT(charged_bytes(s), first);
}

TEST(WireCodec, ChargedBytesIsUnchangedByNormalize) {
  common::Rng rng(22);
  SolutionSet s = random_set(rng);
  std::size_t before = charged_bytes(s);
  s.normalize();
  // The canonical encoding is order-free.
  EXPECT_EQ(charged_bytes(s), before);
  EXPECT_EQ(charged_bytes(s), encode(s).size());
}

// After an arbitrary interleaving of append / mutate-in-place / drop, both
// the raw byte_size() and the wire size must equal a from-scratch
// recomputation over the same rows.
TEST(WireCodec, CachedSizesNeverDriftUnderRandomMutation) {
  common::Rng rng(0xD01F);
  for (int trial = 0; trial < 40; ++trial) {
    SolutionSet s;
    int steps = static_cast<int>(rng.between(1, 25));
    for (int step = 0; step < steps; ++step) {
      switch (rng.below(4)) {
        case 0: {  // append
          Binding b;
          b.set("v" + std::to_string(rng.below(4)), random_term(rng));
          if (rng.chance(0.5)) b.set("w", random_term(rng));
          s.add(std::move(b));
          break;
        }
        case 1: {  // mutate a row in place through mutable rows()
          if (s.empty()) break;
          auto& rows = s.rows();
          std::size_t i = rng.below(rows.size());
          rows[i].set("m", random_term(rng));
          break;
        }
        case 2: {  // drop a row
          if (s.empty()) break;
          auto& rows = s.rows();
          rows.erase(rows.begin() +
                     static_cast<std::ptrdiff_t>(rng.below(rows.size())));
          break;
        }
        default: {  // interleave size queries between mutations
          (void)s.byte_size();
          (void)charged_bytes(s);
          break;
        }
      }
      // Recompute both sizes on a fresh copy of the same rows.
      SolutionSet fresh{std::vector<Binding>(s.rows())};
      ASSERT_EQ(s.byte_size(), fresh.byte_size())
          << "raw size drifted at trial " << trial << " step " << step;
      ASSERT_EQ(charged_bytes(s), encode(fresh).size())
          << "wire size drifted at trial " << trial << " step " << step;
    }
  }
}

TEST(WireCodec, IdRowsSizeLikeTheirMaterializedSet) {
  // Rows with unbound cells over a dictionary interned in arrival order,
  // plus the empty set and the one-row, zero-variable set.
  common::Rng rng(23);
  rdf::TermDictionary dict;
  std::vector<SolutionSet> sets = {SolutionSet{}, SolutionSet{{Binding{}}}};
  for (int trial = 0; trial < 40; ++trial) sets.push_back(random_set(rng));
  for (const SolutionSet& s : sets) {
    const sparql::IdRows ids = sparql::intern_rows(s, dict);
    const SolutionSet rows = ids.materialize();
    ASSERT_EQ(rows.rows(), s.rows());
    EXPECT_EQ(charged_bytes(ids), encode(rows).size()) << s.to_string();
    EXPECT_EQ(ids.byte_size(), rows.byte_size()) << s.to_string();
    EXPECT_EQ(charged_bytes(ids), charged_bytes(s)) << s.to_string();
  }
}

TEST(WireCodec, DecodeRejectsTruncatedPayloads) {
  common::Rng rng(5);
  SolutionSet s = random_set(rng);
  while (s.empty()) s = random_set(rng);
  std::string payload = encode(s);
  SolutionSet out;
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(decode(std::string_view(payload).substr(0, cut), out))
        << "cut " << cut;
  }
  ASSERT_TRUE(decode(payload, out));
}

// Hostile payloads: a count far beyond the bytes left must be rejected
// before anything is allocated for it, and an unknown term kind must not
// decode as some other kind.
std::string huge_count() {
  std::string out;
  put_varint(out, (std::uint64_t{1} << 63) - 1);  // 9 bytes
  return out;
}

TEST(WireCodec, DecodeRejectsHugeVariableCount) {
  SolutionSet out;
  EXPECT_FALSE(decode(huge_count(), out));
}

TEST(WireCodec, DecodeRejectsHugeTermCount) {
  std::string payload;
  put_varint(payload, 0);   // nvars
  payload += huge_count();  // nterms
  SolutionSet out;
  EXPECT_FALSE(decode(payload, out));
}

TEST(WireCodec, TripleDecodeRejectsHugeTermCount) {
  std::vector<rdf::Triple> out;
  EXPECT_FALSE(decode(huge_count(), out));
}

TEST(WireCodec, TripleDecodeRejectsHugeTripleCount) {
  std::string payload;
  put_varint(payload, 0);   // nterms
  payload += huge_count();  // ntriples
  std::vector<rdf::Triple> out;
  EXPECT_FALSE(decode(payload, out));
}

TEST(WireCodec, DecodeRejectsUnknownTermKind) {
  std::string payload;
  put_varint(payload, 0);  // nvars
  put_varint(payload, 1);  // nterms
  payload.push_back(7);    // kind: none of iri/literal/blank
  put_varint(payload, 0);  // lcp
  put_varint(payload, 1);  // suffix
  payload.push_back('a');
  put_varint(payload, 0);  // datatype
  put_varint(payload, 0);  // lang
  put_varint(payload, 0);  // nrows
  SolutionSet out;
  EXPECT_FALSE(decode(payload, out));
  // The same payload with a known kind decodes: only the kind was at fault.
  payload[2] = static_cast<char>(rdf::TermKind::kBlank);
  EXPECT_TRUE(decode(payload, out));
}

// Without variables every row encodes to zero bytes, so the bytes left
// cannot bound the row count; decode caps it at kMaxEmptyRows.
TEST(WireCodec, DecodeRejectsHugeRowCountWithoutVariables) {
  std::string payload;
  put_varint(payload, 0);   // nvars
  put_varint(payload, 0);   // nterms
  payload += huge_count();  // nrows
  SolutionSet out;
  EXPECT_FALSE(decode(payload, out));

  std::string over_cap;
  put_varint(over_cap, 0);
  put_varint(over_cap, 0);
  put_varint(over_cap, kMaxEmptyRows + 1);
  EXPECT_FALSE(decode(over_cap, out));
}

TEST(WireCodec, SmallZeroVariableSetRoundTrips) {
  // A fully bound pattern matched at three providers: three empty rows.
  const SolutionSet s({Binding{}, Binding{}, Binding{}});
  const std::string payload = encode(s);
  EXPECT_EQ(charged_bytes(s), payload.size());
  SolutionSet back;
  ASSERT_TRUE(decode(payload, back));
  EXPECT_EQ(back.rows(), s.rows());
}

/// `payload` after one to three seeded edits, each a flipped bit, a
/// truncation or a few inserted random bytes.
std::string mutated(std::string payload, common::Rng& rng) {
  const std::uint64_t edits = rng.between(1, 3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    switch (rng.below(3)) {
      case 0:
        if (payload.empty()) break;
        payload[rng.below(payload.size())] ^=
            static_cast<char>(1 << rng.below(8));
        break;
      case 1:
        payload.resize(rng.below(payload.size() + 1));
        break;
      default: {
        std::string bytes(rng.between(1, 4), '\0');
        for (char& c : bytes) c = static_cast<char>(rng.below(256));
        payload.insert(rng.below(payload.size() + 1), bytes);
        break;
      }
    }
  }
  return payload;
}

// Mutated payloads: decode answers true or false and never throws. A
// payload it accepts holds no more rows than its bytes can carry (or, with
// no variable bound, than kMaxEmptyRows), so each input's work is bounded
// by its size, and it re-encodes to a payload that decodes to the same
// rows.
TEST(WireCodec, DecodeSurvivesSeededMutations) {
  common::Rng rng(0xF022);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::string set_payload = encode(random_set(rng));
    const std::string triple_payload =
        encode(random_triples(rng, rng.below(30)));
    for (int m = 0; m < 4; ++m) {
      const std::string in = mutated(set_payload, rng);
      SolutionSet rows;
      bool ok = false;
      ASSERT_NO_THROW(ok = decode(in, rows)) << "trial " << trial;
      if (ok) {
        ++accepted;
        EXPECT_LE(rows.size(), sparql::variables_of(rows).empty()
                                   ? kMaxEmptyRows
                                   : in.size())
            << "trial " << trial;
        SolutionSet back;
        ASSERT_TRUE(decode(encode(rows), back)) << "trial " << trial;
        EXPECT_EQ(back.rows(), rows.rows()) << "trial " << trial;
      }
      const std::string tin = mutated(triple_payload, rng);
      std::vector<rdf::Triple> triples;
      ASSERT_NO_THROW(ok = decode(tin, triples)) << "trial " << trial;
      if (ok) {
        ++accepted;
        EXPECT_LE(3 * triples.size(), tin.size()) << "trial " << trial;
      }
    }
  }
  // A flip inside a term's suffix keeps a payload well formed, so some
  // mutants decode; none would mean the checks above never ran.
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace ahsw::net::wire
