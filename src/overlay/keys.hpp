// The six-key distributed index scheme (Sect. III-B).
//
// RDFPeers hashes s, p and o of every triple (three keys); the paper extends
// this to six keys per triple — s, p, o, (s,p), (p,o), (s,o) — so that every
// bound-position combination of a triple pattern maps to exactly one DHT
// key. This header computes those keys and selects the most selective key
// kind available for a given pattern.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "chord/ring.hpp"
#include "rdf/triple.hpp"

namespace ahsw::overlay {

enum class IndexKeyKind : std::uint8_t {
  kS = 0,   // subject
  kP = 1,   // predicate
  kO = 2,   // object
  kSP = 3,  // subject + predicate
  kPO = 4,  // predicate + object
  kSO = 5,  // subject + object
};
inline constexpr int kIndexKeyKinds = 6;

/// DHT key for a single-attribute index entry.
[[nodiscard]] chord::Key index_key(IndexKeyKind kind, const rdf::Term& a);

/// DHT key for a two-attribute index entry (kSP / kPO / kSO). The argument
/// order is (s,p), (p,o), (s,o) respectively.
[[nodiscard]] chord::Key index_key(IndexKeyKind kind, const rdf::Term& a,
                                   const rdf::Term& b);

/// The six index keys of one triple, in IndexKeyKind order.
[[nodiscard]] std::array<chord::Key, kIndexKeyKinds> index_keys(
    const rdf::Triple& t);

/// The key a triple pattern should be looked up under, chosen from the
/// bound positions: (s,p,·)->SP, (·,p,o)->PO, (s,·,o)->SO, (s,·,·)->S,
/// (·,p,·)->P, (·,·,o)->O. A fully bound pattern uses SP. Returns nullopt
/// for the fully unbound pattern (?s,?p,?o), which cannot use the index and
/// must be broadcast to all storage nodes.
struct PatternKey {
  IndexKeyKind kind;
  chord::Key key;
};
[[nodiscard]] std::optional<PatternKey> key_for_pattern(
    const rdf::TriplePattern& p);

}  // namespace ahsw::overlay
