// Small string utilities used by parsers and serializers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ahsw::common {

/// Strip leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Split on a single character; keeps empty fields.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char sep);

/// Join with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s,
                               std::string_view prefix) noexcept;

/// Escape `raw` for the inside of a JSON string: quote, backslash, newline
/// and tab use their named escapes; any other control character becomes
/// \u00xx. Other bytes (including UTF-8) pass through.
[[nodiscard]] std::string json_escape(std::string_view raw);

/// Escape a literal value for N-Triples output: backslash, quote, newline,
/// carriage return and tab use their named escapes; any other control
/// character becomes \u00XX. Other bytes (including UTF-8) pass through.
[[nodiscard]] std::string escape_ntriples(std::string_view raw);

/// True iff escape_ntriples(raw) differs from raw (a byte it escapes occurs).
[[nodiscard]] bool needs_ntriples_escape(std::string_view raw) noexcept;

/// Inverse of escape_ntriples: named escapes plus \uXXXX / \UXXXXXXXX
/// decoded to UTF-8 (malformed numeric escapes are kept verbatim).
/// unescape_ntriples(escape_ntriples(s)) == s for every byte string s.
[[nodiscard]] std::string unescape_ntriples(std::string_view escaped);

}  // namespace ahsw::common
