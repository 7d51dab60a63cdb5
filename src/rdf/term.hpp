// RDF terms: IRIs, literals (with optional language tag or datatype), and
// blank nodes. Terms are immutable values ordered lexicographically so they
// can key ordered containers and produce deterministic result sets.
//
// A Term is a handle on one immutable shared representation (kind, strings
// and TermHash value, built once by a factory), so copying a term, a
// Binding or a Triple bumps a count instead of copying strings. The count is
// atomic: the parallel driver's worker clones copy the dictionary and share
// its terms across threads. Nothing orders, hashes or compares a term by
// its address; equal values in different reps are equal terms.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

namespace ahsw::rdf {

enum class TermKind : std::uint8_t { kIri = 0, kLiteral = 1, kBlank = 2 };

/// One RDF term. Construct through the named factories (iri / literal /
/// lang_literal / typed_literal / blank); default construction yields an
/// empty IRI without allocating, useful only as a placeholder.
class Term {
 public:
  Term() noexcept = default;

  [[nodiscard]] static Term iri(std::string value);
  [[nodiscard]] static Term literal(std::string value);
  [[nodiscard]] static Term lang_literal(std::string value, std::string lang);
  [[nodiscard]] static Term typed_literal(std::string value,
                                          std::string datatype_iri);
  [[nodiscard]] static Term blank(std::string label);

  /// Convenience: integer literal typed xsd:integer.
  [[nodiscard]] static Term integer(long long v);
  /// Convenience: double literal typed xsd:double.
  [[nodiscard]] static Term real(double v);

  [[nodiscard]] TermKind kind() const noexcept {
    return rep_ ? rep_->kind : TermKind::kIri;
  }
  [[nodiscard]] bool is_iri() const noexcept {
    return kind() == TermKind::kIri;
  }
  [[nodiscard]] bool is_literal() const noexcept {
    return kind() == TermKind::kLiteral;
  }
  [[nodiscard]] bool is_blank() const noexcept {
    return kind() == TermKind::kBlank;
  }

  /// IRI string, literal value, or blank-node label. The reference lives as
  /// long as some Term holding this representation does.
  [[nodiscard]] const std::string& lexical() const noexcept {
    return rep_ ? rep_->lexical : empty_string();
  }
  /// Datatype IRI for typed literals; empty otherwise.
  [[nodiscard]] const std::string& datatype() const noexcept {
    return rep_ ? rep_->datatype : empty_string();
  }
  /// Language tag for lang literals; empty otherwise.
  [[nodiscard]] const std::string& lang() const noexcept {
    return rep_ ? rep_->lang : empty_string();
  }

  /// Numeric view of the literal if it has a numeric datatype (or is a plain
  /// literal that parses as a number). Returns false if non-numeric.
  [[nodiscard]] bool numeric_value(double& out) const noexcept;

  /// N-Triples / SPARQL surface form, e.g. `<http://a>`, `"v"@en`,
  /// `"3"^^<http://www.w3.org/2001/XMLSchema#integer>`, `_:b1`.
  [[nodiscard]] std::string to_string() const;

  /// Approximate serialized size in bytes; the network cost model charges
  /// this when a term crosses a link.
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return lexical().size() + datatype().size() + lang().size() + 4;
  }

  /// Member order: kind, lexical, datatype, lang.
  friend std::strong_ordering operator<=>(const Term& a,
                                          const Term& b) noexcept;
  friend bool operator==(const Term& a, const Term& b) noexcept {
    if (a.rep_ == b.rep_) return true;
    return a.hash() == b.hash() && a.kind() == b.kind() &&
           a.lexical() == b.lexical() && a.datatype() == b.datatype() &&
           a.lang() == b.lang();
  }

 private:
  friend struct TermHash;

  struct Rep {
    std::size_t hash;
    TermKind kind;
    std::string lexical;
    std::string datatype;
    std::string lang;
  };

  Term(TermKind kind, std::string lexical, std::string datatype,
       std::string lang);

  [[nodiscard]] static const std::string& empty_string() noexcept;
  /// TermHash of the default (empty IRI) term.
  [[nodiscard]] static std::size_t empty_hash() noexcept;

  [[nodiscard]] std::size_t hash() const noexcept {
    return rep_ ? rep_->hash : empty_hash();
  }

  std::shared_ptr<const Rep> rep_;
};

std::ostream& operator<<(std::ostream& os, const Term& t);

/// Stable hash for common::PointMap keys: a function of the term's value,
/// computed once when its representation is built.
struct TermHash {
  [[nodiscard]] std::size_t operator()(const Term& t) const noexcept {
    return t.hash();
  }
};

namespace xsd {
inline constexpr std::string_view kInteger =
    "http://www.w3.org/2001/XMLSchema#integer";
inline constexpr std::string_view kDouble =
    "http://www.w3.org/2001/XMLSchema#double";
inline constexpr std::string_view kBoolean =
    "http://www.w3.org/2001/XMLSchema#boolean";
inline constexpr std::string_view kString =
    "http://www.w3.org/2001/XMLSchema#string";
}  // namespace xsd

}  // namespace ahsw::rdf
