#include "common/strings.hpp"

#include <algorithm>
#include <cstdint>

namespace ahsw::common {

namespace {
[[nodiscard]] bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}
}  // namespace

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {

constexpr char kHexDigits[] = "0123456789ABCDEF";

[[nodiscard]] int hex_value(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Parse `digits` hex chars of `s` starting at `pos` into `out`. False (and
/// `out` unspecified) when the input is short or not hex.
bool parse_hex(std::string_view s, std::size_t pos, std::size_t digits,
               std::uint32_t& out) {
  if (pos + digits > s.size()) return false;
  out = 0;
  for (std::size_t i = 0; i < digits; ++i) {
    int v = hex_value(s[pos + i]);
    if (v < 0) return false;
    out = out << 4 | static_cast<std::uint32_t>(v);
  }
  return true;
}

/// Append the UTF-8 encoding of a code point.
void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | cp >> 6);
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | cp >> 12);
    out += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | cp >> 18);
    out += static_cast<char>(0x80 | (cp >> 12 & 0x3F));
    out += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

std::string json_escape(std::string_view raw) {
  constexpr char kLowerHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(raw.size() + 2);
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: {
        auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          out += "\\u00";
          out += kLowerHex[byte >> 4];
          out += kLowerHex[byte & 0xF];
        } else {
          out += c;
        }
      }
    }
  }
  return out;
}

std::string escape_ntriples(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          // Remaining control characters must use the numeric escape, or
          // the serialized line would contain a raw control byte that
          // unescape_ntriples has no inverse image for.
          out += "\\u00";
          out += kHexDigits[byte >> 4];
          out += kHexDigits[byte & 0xF];
        } else {
          out += c;  // non-ASCII UTF-8 bytes pass through unescaped
        }
      }
    }
  }
  return out;
}

bool needs_ntriples_escape(std::string_view raw) noexcept {
  return std::any_of(raw.begin(), raw.end(), [](char c) {
    return c == '\\' || c == '"' || static_cast<unsigned char>(c) < 0x20;
  });
}

std::string unescape_ntriples(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    char c = escaped[i];
    if (c != '\\' || i + 1 == escaped.size()) {
      out += c;
      continue;
    }
    char next = escaped[++i];
    std::uint32_t cp = 0;
    switch (next) {
      case '\\': out += '\\'; break;
      case '"': out += '"'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u':
        // \uXXXX decodes to the UTF-8 bytes of the code point; it used to
        // be passed through verbatim, so a document's "A" survived as
        // six characters while escape_ntriples would then double the
        // backslash — parse/serialize round trips diverged on any numeric
        // escape. Malformed hex still falls through verbatim.
        if (parse_hex(escaped, i + 1, 4, cp)) {
          append_utf8(out, cp);
          i += 4;
        } else {
          out += '\\';
          out += next;
        }
        break;
      case 'U':
        if (parse_hex(escaped, i + 1, 8, cp) && cp <= 0x10FFFF) {
          append_utf8(out, cp);
          i += 8;
        } else {
          out += '\\';
          out += next;
        }
        break;
      default:
        out += '\\';
        out += next;
    }
  }
  return out;
}

}  // namespace ahsw::common
