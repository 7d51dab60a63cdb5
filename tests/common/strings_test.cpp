#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"

namespace ahsw::common {
namespace {

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Trim, KeepsInnerWhitespace) { EXPECT_EQ(trim(" a b "), "a b"); }

TEST(Split, SplitsAndKeepsEmptyFields) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Split, TrailingSeparatorYieldsTrailingEmpty) {
  auto parts = split("a\n", '\n');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
}

TEST(Join, JoinsWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({"solo"}, ","), "solo");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_TRUE(starts_with("foo", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(EscapeNTriples, EscapesControlAndQuote) {
  EXPECT_EQ(escape_ntriples("a\"b\\c\nd\te\rf"),
            "a\\\"b\\\\c\\nd\\te\\rf");
}

TEST(EscapeNTriples, RoundTripsThroughUnescape) {
  std::string raw = "line1\nline2\t\"quoted\" back\\slash";
  EXPECT_EQ(unescape_ntriples(escape_ntriples(raw)), raw);
}

TEST(EscapeNTriples, NeedsEscapeIffEscapingChangesTheBytes) {
  for (int b = 0; b < 256; ++b) {
    const std::string s = "a" + std::string(1, static_cast<char>(b)) + "z";
    EXPECT_EQ(needs_ntriples_escape(s), escape_ntriples(s) != s) << b;
  }
  EXPECT_FALSE(needs_ntriples_escape(""));
}

TEST(UnescapeNTriples, DecodesNumericEscapes) {
  // \uXXXX used to pass through verbatim, which broke the inverse law:
  // escape would then double the backslash and the literal value grew a
  // spurious "\\u0041" on every parse/serialize cycle.
  EXPECT_EQ(unescape_ntriples("a\\u0041"), "aA");
  EXPECT_EQ(unescape_ntriples("\\u0000"), std::string(1, '\0'));
  EXPECT_EQ(unescape_ntriples("\\u00E9"), "\xC3\xA9");      // é as UTF-8
  EXPECT_EQ(unescape_ntriples("\\u20AC"), "\xE2\x82\xAC");  // €
  EXPECT_EQ(unescape_ntriples("\\U0001F600"), "\xF0\x9F\x98\x80");
}

TEST(UnescapeNTriples, KeepsMalformedNumericEscapesVerbatim) {
  EXPECT_EQ(unescape_ntriples("\\u00G1"), "\\u00G1");
  EXPECT_EQ(unescape_ntriples("\\u12"), "\\u12");        // short
  EXPECT_EQ(unescape_ntriples("\\UFFFFFFFF"), "\\UFFFFFFFF");  // > U+10FFFF
}

TEST(UnescapeNTriples, LeavesUnknownEscapesIntact) {
  EXPECT_EQ(unescape_ntriples("a\\qb"), "a\\qb");
}

TEST(UnescapeNTriples, HandlesTrailingBackslash) {
  EXPECT_EQ(unescape_ntriples("a\\"), "a\\");
}

TEST(JsonEscape, EscapesQuoteBackslashAndControlCharacters) {
  EXPECT_EQ(json_escape("say \"hi\"\\\n\t" + std::string(1, '\x01') + "end"),
            "say \\\"hi\\\"\\\\\\n\\t\\u0001end");
  EXPECT_EQ(json_escape(std::string(1, '\x1F')), "\\u001f");
  // Other bytes, UTF-8 included, pass through.
  EXPECT_EQ(json_escape("caf\xC3\xA9 /"), "caf\xC3\xA9 /");
}

TEST(JsonEscape, EmptyInputStaysEmpty) { EXPECT_EQ(json_escape(""), ""); }

TEST(JsonEscape, PrintableAsciiOtherThanQuoteAndBackslashPassesThrough) {
  std::string printable;
  for (char c = 0x20; c < 0x7F; ++c) {
    if (c != '"' && c != '\\') printable += c;
  }
  EXPECT_EQ(json_escape(printable), printable);
  // DEL is not a JSON control character.
  EXPECT_EQ(json_escape("\x7F"), "\x7F");
}

TEST(JsonEscape, EmbeddedNulByteIsEscaped) {
  const std::string raw("a\0b", 3);
  EXPECT_EQ(json_escape(raw), "a\\u0000b");
}

TEST(JsonEscape, OnlyNewlineAndTabUseShortEscapes) {
  // Carriage return, backspace and form feed take the \u00xx form, so
  // every JSON file the project writes keeps one spelling per byte.
  EXPECT_EQ(json_escape("\r"), "\\u000d");
  EXPECT_EQ(json_escape("\b"), "\\u0008");
  EXPECT_EQ(json_escape("\f"), "\\u000c");
  EXPECT_EQ(json_escape("\x1B[0m"), "\\u001b[0m");
}

/// Decode the inside of a JSON string as json_escape writes it.
std::string json_unescape(std::string_view escaped) {
  std::string out;
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\') {
      out += escaped[i];
      continue;
    }
    const char tag = escaped[++i];
    switch (tag) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'u':
        out += static_cast<char>(
            std::stoi(std::string(escaped.substr(i + 1, 4)), nullptr, 16));
        i += 4;
        break;
      default: out += tag; break;  // '"' and '\\'
    }
  }
  return out;
}

TEST(JsonEscape, OutputIsAValidJsonStringThatDecodesBack) {
  Rng rng(0x15011);
  for (int trial = 0; trial < 200; ++trial) {
    std::string raw;
    const std::size_t len = rng.below(64);
    for (std::size_t i = 0; i < len; ++i) {
      raw += static_cast<char>(rng.below(256));
    }
    const std::string escaped = json_escape(raw);
    // No raw control character and no unescaped quote may remain.
    for (std::size_t i = 0; i < escaped.size(); ++i) {
      const auto byte = static_cast<unsigned char>(escaped[i]);
      ASSERT_GE(byte, 0x20u) << "trial " << trial << " offset " << i;
      if (escaped[i] == '\\') {
        ++i;
      } else {
        ASSERT_NE(escaped[i], '"') << "trial " << trial << " offset " << i;
      }
    }
    EXPECT_EQ(json_unescape(escaped), raw) << "trial " << trial;
  }
}

TEST(EscapeNTriples, ControlCharactersUseNumericEscapes) {
  EXPECT_EQ(escape_ntriples(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(escape_ntriples(std::string(1, '\x1F')), "\\u001F");
  EXPECT_EQ(escape_ntriples(std::string(1, '\0')), "\\u0000");
  // Named escapes keep their short forms.
  EXPECT_EQ(escape_ntriples("\n\r\t"), "\\n\\r\\t");
}

TEST(EscapeNTriples, RoundTripsArbitraryBytes) {
  // Property: unescape(escape(s)) == s for any byte string — quotes,
  // backslashes, control characters, and non-ASCII (UTF-8 and otherwise).
  Rng rng(0x5eed5);
  for (int trial = 0; trial < 200; ++trial) {
    std::string raw;
    std::size_t len = rng.below(64);
    for (std::size_t i = 0; i < len; ++i) {
      switch (rng.below(4)) {
        case 0: raw += static_cast<char>(rng.below(0x20)); break;  // control
        case 1: raw += static_cast<char>("\"\\\n\r\t"[rng.below(5)]); break;
        case 2: raw += static_cast<char>(0x80 + rng.below(0x80)); break;
        default: raw += static_cast<char>(0x20 + rng.below(0x5F)); break;
      }
    }
    EXPECT_EQ(unescape_ntriples(escape_ntriples(raw)), raw)
        << "trial " << trial;
  }
}

TEST(EscapeNTriples, EscapedFormIsFixpointOfReescaping) {
  // escape . unescape is the identity on canonically escaped strings: what
  // the serializer writes, the parser reads back, and re-serializing emits
  // the same bytes.
  for (std::string escaped :
       {std::string("a\\u0001b"), std::string("\\n\\r\\t\\\"\\\\"),
        std::string("plain text"), std::string("caf\xC3\xA9")}) {
    EXPECT_EQ(escape_ntriples(unescape_ntriples(escaped)), escaped);
  }
}

}  // namespace
}  // namespace ahsw::common
