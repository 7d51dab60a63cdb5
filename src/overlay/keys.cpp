#include "overlay/keys.hpp"

#include <cassert>

#include "common/hash.hpp"
#include "common/strings.hpp"

namespace ahsw::overlay {

namespace {
/// Continue FNV-1a state `h` over the canonical byte form of `t`, its full
/// surface form t.to_string() (which distinguishes IRIs from equal-spelled
/// literals), without building that string.
[[nodiscard]] std::uint64_t hash_canonical(const rdf::Term& t,
                                           std::uint64_t h) noexcept {
  using common::fnv1a64;
  switch (t.kind()) {
    case rdf::TermKind::kIri:
      return fnv1a64(">", fnv1a64(t.lexical(), fnv1a64("<", h)));
    case rdf::TermKind::kBlank:
      return fnv1a64(t.lexical(), fnv1a64("_:", h));
    case rdf::TermKind::kLiteral:
      break;
  }
  const std::string& lex = t.lexical();
  h = fnv1a64("\"", h);
  h = common::needs_ntriples_escape(lex)
          ? fnv1a64(common::escape_ntriples(lex), h)
          : fnv1a64(lex, h);
  h = fnv1a64("\"", h);
  if (!t.lang().empty()) return fnv1a64(t.lang(), fnv1a64("@", h));
  if (!t.datatype().empty()) {
    return fnv1a64(">", fnv1a64(t.datatype(), fnv1a64("^^<", h)));
  }
  return h;
}

/// FNV-1a state after the domain-separation tag, as common::tagged_hash
/// starts it.
[[nodiscard]] std::uint64_t tag_state(IndexKeyKind kind) noexcept {
  const char tag = static_cast<char>(kind);
  return common::fnv1a64(std::string_view(&tag, 1));
}
}  // namespace

// Both forms equal common::tagged_hash over the terms' to_string() forms
// (keys_test pins it): FNV-1a is a byte stream, so hashing the pieces in
// order gives the hash of their concatenation.
chord::Key index_key(IndexKeyKind kind, const rdf::Term& a) {
  assert(kind == IndexKeyKind::kS || kind == IndexKeyKind::kP ||
         kind == IndexKeyKind::kO);
  return common::mix64(hash_canonical(a, tag_state(kind)));
}

chord::Key index_key(IndexKeyKind kind, const rdf::Term& a,
                     const rdf::Term& b) {
  assert(kind == IndexKeyKind::kSP || kind == IndexKeyKind::kPO ||
         kind == IndexKeyKind::kSO);
  std::uint64_t h = hash_canonical(a, tag_state(kind));
  h = common::fnv1a64(common::kFieldSeparator, h);
  return common::mix64(hash_canonical(b, h));
}

std::array<chord::Key, kIndexKeyKinds> index_keys(const rdf::Triple& t) {
  return {
      index_key(IndexKeyKind::kS, t.s),
      index_key(IndexKeyKind::kP, t.p),
      index_key(IndexKeyKind::kO, t.o),
      index_key(IndexKeyKind::kSP, t.s, t.p),
      index_key(IndexKeyKind::kPO, t.p, t.o),
      index_key(IndexKeyKind::kSO, t.s, t.o),
  };
}

std::optional<PatternKey> key_for_pattern(const rdf::TriplePattern& p) {
  const rdf::Term* s = p.bound_s();
  const rdf::Term* pr = p.bound_p();
  const rdf::Term* o = p.bound_o();
  if (s != nullptr && pr != nullptr) {
    return PatternKey{IndexKeyKind::kSP, index_key(IndexKeyKind::kSP, *s, *pr)};
  }
  if (pr != nullptr && o != nullptr) {
    return PatternKey{IndexKeyKind::kPO, index_key(IndexKeyKind::kPO, *pr, *o)};
  }
  if (s != nullptr && o != nullptr) {
    return PatternKey{IndexKeyKind::kSO, index_key(IndexKeyKind::kSO, *s, *o)};
  }
  if (s != nullptr) {
    return PatternKey{IndexKeyKind::kS, index_key(IndexKeyKind::kS, *s)};
  }
  if (pr != nullptr) {
    return PatternKey{IndexKeyKind::kP, index_key(IndexKeyKind::kP, *pr)};
  }
  if (o != nullptr) {
    return PatternKey{IndexKeyKind::kO, index_key(IndexKeyKind::kO, *o)};
  }
  return std::nullopt;
}

}  // namespace ahsw::overlay
