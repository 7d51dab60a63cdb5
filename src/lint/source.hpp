// Comment/string-stripping C++ tokenizer for ahsw-lint.
//
// The domain rules (see rules.hpp) do not need a real C++ parser: every
// contract they enforce — banned identifiers and headers, counter
// mutations, mutable statics, switch exhaustiveness — is visible in the
// token stream once comments, string literals, and preprocessor noise are
// out of the way. This tokenizer produces exactly that: a flat token list
// with line numbers, plus the comment text (kept separately, because
// suppressions live in comments) and the `#include` directives (the input
// of D1's banned-header check).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ahsw::lint {

struct Token {
  enum class Kind : unsigned char {
    kIdentifier,  // identifiers and keywords
    kNumber,      // numeric literals, including separators and suffixes
    kString,      // string literal (text stripped; raw strings included)
    kChar,        // character literal (text stripped)
    kPunct,       // operator / punctuation, multi-char ops as one token
  };
  Kind kind = Kind::kPunct;
  std::string text;  // empty for kString/kChar: contents must not match rules
  int line = 0;      // 1-based

  [[nodiscard]] bool is(std::string_view t) const noexcept {
    return text == t;
  }
  [[nodiscard]] bool ident(std::string_view t) const noexcept {
    return kind == Kind::kIdentifier && text == t;
  }
};

/// One comment, `//` or `/* */`. Block comments keep their full text and
/// the line range they span; line comments have begin == end.
struct Comment {
  int begin = 0;  // first line, 1-based
  int end = 0;    // last line
  std::string text;
};

struct IncludeDirective {
  int line = 0;
  std::string path;  // between the quotes / angle brackets
};

/// A tokenized source file. `path` is the repo-relative path with '/'
/// separators; rules key their whitelists off it.
struct SourceFile {
  std::string path;
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<IncludeDirective> includes;
  /// Sorted, deduplicated lines that carry at least one token or include.
  std::vector<int> code_lines;
  int last_line = 0;

  /// True if `line` holds at least one token or include directive.
  [[nodiscard]] bool line_has_code(int line) const;
};

/// Tokenize `content`. Never fails: unterminated constructs consume the
/// rest of the file, which is the useful behaviour for a lint pass.
[[nodiscard]] SourceFile tokenize(std::string path, std::string_view content);

}  // namespace ahsw::lint
