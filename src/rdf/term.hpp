// RDF terms: IRIs, literals (with optional language tag or datatype), and
// blank nodes. Terms are immutable value types ordered lexicographically so
// they can key ordered containers and produce deterministic result sets.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace ahsw::rdf {

enum class TermKind : std::uint8_t { kIri = 0, kLiteral = 1, kBlank = 2 };

/// One RDF term. Construct through the named factories (iri / literal /
/// lang_literal / typed_literal / blank); default construction yields an
/// empty IRI, useful only as a placeholder.
class Term {
 public:
  Term() = default;

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

  [[nodiscard]] TermKind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_iri() const noexcept { return kind_ == TermKind::kIri; }
  [[nodiscard]] bool is_literal() const noexcept {
    return kind_ == TermKind::kLiteral;
  }
  [[nodiscard]] bool is_blank() const noexcept {
    return kind_ == TermKind::kBlank;
  }

  /// IRI string, literal value, or blank-node label.
  [[nodiscard]] const std::string& lexical() const noexcept { return lexical_; }
  /// Datatype IRI for typed literals; empty otherwise.
  [[nodiscard]] const std::string& datatype() const noexcept {
    return datatype_;
  }
  /// Language tag for lang literals; empty otherwise.
  [[nodiscard]] const std::string& lang() const noexcept { return lang_; }

  /// Numeric view of the literal if it has a numeric datatype (or is a plain
  /// literal that parses as a number). Returns false if non-numeric.
  [[nodiscard]] bool numeric_value(double& out) const noexcept;

  /// N-Triples / SPARQL surface form, e.g. `<http://a>`, `"v"@en`,
  /// `"3"^^<http://www.w3.org/2001/XMLSchema#integer>`, `_:b1`.
  [[nodiscard]] std::string to_string() const;

  /// Approximate serialized size in bytes; the network cost model charges
  /// this when a term crosses a link.
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return lexical_.size() + datatype_.size() + lang_.size() + 4;
  }

  friend std::strong_ordering operator<=>(const Term&, const Term&) = default;
  friend bool operator==(const Term&, const Term&) = default;

 private:
  TermKind kind_ = TermKind::kIri;
  std::string lexical_;
  std::string datatype_;
  std::string lang_;
};

std::ostream& operator<<(std::ostream& os, const Term& t);

/// Stable hash for common::PointMap keys and the distributed index.
struct TermHash {
  [[nodiscard]] std::size_t operator()(const Term& t) const noexcept;
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
