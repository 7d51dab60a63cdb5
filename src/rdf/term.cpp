#include "rdf/term.hpp"

#include <cerrno>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "common/hash.hpp"
#include "common/strings.hpp"

namespace ahsw::rdf {

namespace {

std::size_t value_hash(TermKind kind, std::string_view lexical,
                       std::string_view datatype,
                       std::string_view lang) noexcept {
  std::uint64_t h =
      common::tagged_hash(static_cast<std::uint8_t>(kind), lexical);
  if (!datatype.empty()) h ^= common::tagged_hash(0x10, datatype);
  if (!lang.empty()) h ^= common::tagged_hash(0x11, lang);
  return static_cast<std::size_t>(h);
}

}  // namespace

Term::Term(TermKind kind, std::string lexical, std::string datatype,
           std::string lang)
    : rep_(std::make_shared<const Rep>(
          Rep{value_hash(kind, lexical, datatype, lang), kind,
              std::move(lexical), std::move(datatype), std::move(lang)})) {}

const std::string& Term::empty_string() noexcept {
  static const std::string kEmpty;
  return kEmpty;
}

std::size_t Term::empty_hash() noexcept {
  static const std::size_t kHash = value_hash(TermKind::kIri, {}, {}, {});
  return kHash;
}

Term Term::iri(std::string value) {
  return Term(TermKind::kIri, std::move(value), {}, {});
}

Term Term::literal(std::string value) {
  return Term(TermKind::kLiteral, std::move(value), {}, {});
}

Term Term::lang_literal(std::string value, std::string lang) {
  return Term(TermKind::kLiteral, std::move(value), {}, std::move(lang));
}

Term Term::typed_literal(std::string value, std::string datatype_iri) {
  return Term(TermKind::kLiteral, std::move(value), std::move(datatype_iri),
              {});
}

Term Term::blank(std::string label) {
  return Term(TermKind::kBlank, std::move(label), {}, {});
}

Term Term::integer(long long v) {
  return typed_literal(std::to_string(v), std::string(xsd::kInteger));
}

Term Term::real(double v) {
  std::ostringstream os;
  os << v;
  return typed_literal(os.str(), std::string(xsd::kDouble));
}

bool Term::numeric_value(double& out) const noexcept {
  if (kind() != TermKind::kLiteral) return false;
  const std::string& dt = datatype();
  if (!dt.empty() && dt != xsd::kInteger && dt != xsd::kDouble) return false;
  const std::string& lex = lexical();
  if (lex.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(lex.c_str(), &end);
  if (errno != 0 || end != lex.c_str() + lex.size()) return false;
  out = v;
  return true;
}

std::string Term::to_string() const {
  switch (kind()) {
    case TermKind::kIri:
      return "<" + lexical() + ">";
    case TermKind::kBlank:
      return "_:" + lexical();
    case TermKind::kLiteral: {
      std::string out = "\"" + common::escape_ntriples(lexical()) + "\"";
      if (!lang().empty()) {
        out += "@" + lang();
      } else if (!datatype().empty()) {
        out += "^^<" + datatype() + ">";
      }
      return out;
    }
  }
  return {};
}

std::strong_ordering operator<=>(const Term& a, const Term& b) noexcept {
  if (a.rep_ == b.rep_) return std::strong_ordering::equal;
  if (auto c = a.kind() <=> b.kind(); c != 0) return c;
  if (auto c = a.lexical() <=> b.lexical(); c != 0) return c;
  if (auto c = a.datatype() <=> b.datatype(); c != 0) return c;
  return a.lang() <=> b.lang();
}

std::ostream& operator<<(std::ostream& os, const Term& t) {
  return os << t.to_string();
}

}  // namespace ahsw::rdf
