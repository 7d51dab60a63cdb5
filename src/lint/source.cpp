#include "lint/source.hpp"

#include <algorithm>
#include <cctype>

namespace ahsw::lint {

namespace {

[[nodiscard]] bool ident_start(char c) noexcept {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
[[nodiscard]] bool ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}
[[nodiscard]] bool digit(char c) noexcept {
  return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

/// Multi-character operators, longest first so greedy matching works.
constexpr std::string_view kOperators[] = {
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "+=", "-=",
    "*=",  "/=",  "%=",  "&=",  "|=", "^=", "==", "!=", "<=", ">=",
    "&&",  "||",  "<<",  ">>",  "##",
};

class Scanner {
 public:
  Scanner(std::string path, std::string_view src)
      : src_(src) {
    out_.path = std::move(path);
  }

  SourceFile run() {
    while (pos_ < src_.size()) {
      step();
    }
    out_.last_line = line_;
    std::sort(code_lines_.begin(), code_lines_.end());
    code_lines_.erase(std::unique(code_lines_.begin(), code_lines_.end()),
                      code_lines_.end());
    out_.code_lines = std::move(code_lines_);
    return std::move(out_);
  }

 private:
  void step() {
    char c = src_[pos_];
    if (c == '\n') {
      ++line_;
      ++pos_;
      in_pp_ = in_pp_ && continued_;
      continued_ = false;
      return;
    }
    if (c == '\\' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '\n') {
      continued_ = true;  // line continuation (preprocessor)
      ++pos_;
      return;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++pos_;
      return;
    }
    if (c == '/' && peek(1) == '/') {
      line_comment();
      return;
    }
    if (c == '/' && peek(1) == '*') {
      block_comment();
      return;
    }
    if (c == '#' && line_start()) {
      preprocessor();
      return;
    }
    if (c == '"') {
      string_literal();
      return;
    }
    if (c == '\'') {
      char_literal();
      return;
    }
    if (ident_start(c)) {
      identifier();
      return;
    }
    if (digit(c) || (c == '.' && digit(peek(1)))) {
      number();
      return;
    }
    punct();
  }

  [[nodiscard]] char peek(std::size_t ahead) const noexcept {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  /// Only horizontal whitespace between the last newline and pos_?
  [[nodiscard]] bool line_start() const noexcept {
    std::size_t i = pos_;
    while (i > 0) {
      char c = src_[i - 1];
      if (c == '\n') return true;
      if (c != ' ' && c != '\t') return false;
      --i;
    }
    return true;
  }

  void emit(Token::Kind kind, std::string text) {
    if (in_pp_) return;  // directive bodies are not rule input
    code_lines_.push_back(line_);
    out_.tokens.push_back(Token{kind, std::move(text), line_});
  }

  /// A `//` comment. A backslash immediately before the newline splices the
  /// next physical line into the comment ([lex.phases] p2 runs before
  /// comment removal), so `// ... \` swallows the following line too — rule
  /// input must never see code that the compiler would not.
  void line_comment() {
    int begin = line_;
    std::size_t start = pos_;
    while (pos_ < src_.size() && src_[pos_] != '\n') {
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size() &&
          (src_[pos_ + 1] == '\n' ||
           (src_[pos_ + 1] == '\r' && pos_ + 2 < src_.size() &&
            src_[pos_ + 2] == '\n'))) {
        pos_ += src_[pos_ + 1] == '\r' ? 3u : 2u;
        ++line_;
        continue;
      }
      ++pos_;
    }
    out_.comments.push_back(
        Comment{begin, line_, std::string(src_.substr(start, pos_ - start))});
  }

  void block_comment() {
    int begin = line_;
    std::size_t start = pos_;
    pos_ += 2;
    while (pos_ < src_.size() &&
           !(src_[pos_] == '*' && peek(1) == '/')) {
      if (src_[pos_] == '\n') ++line_;
      ++pos_;
    }
    pos_ = std::min(pos_ + 2, src_.size());
    out_.comments.push_back(
        Comment{begin, line_, std::string(src_.substr(start, pos_ - start))});
  }

  /// Parse a preprocessor directive. `#include` targets are recorded; the
  /// rest of the directive is consumed without emitting tokens, but
  /// comments and literals inside it are still handled (a suppression may
  /// sit after an include).
  void preprocessor() {
    ++pos_;  // '#'
    while (pos_ < src_.size() && (src_[pos_] == ' ' || src_[pos_] == '\t')) {
      ++pos_;
    }
    std::size_t start = pos_;
    while (pos_ < src_.size() && ident_char(src_[pos_])) ++pos_;
    std::string_view directive = src_.substr(start, pos_ - start);
    if (directive == "include") {
      while (pos_ < src_.size() && (src_[pos_] == ' ' || src_[pos_] == '\t')) {
        ++pos_;
      }
      char open = pos_ < src_.size() ? src_[pos_] : '\0';
      char close = open == '<' ? '>' : '"';
      if (open == '<' || open == '"') {
        std::size_t tstart = ++pos_;
        while (pos_ < src_.size() && src_[pos_] != close &&
               src_[pos_] != '\n') {
          ++pos_;
        }
        out_.includes.push_back(IncludeDirective{
            line_, std::string(src_.substr(tstart, pos_ - tstart))});
        code_lines_.push_back(line_);
        if (pos_ < src_.size() && src_[pos_] == close) ++pos_;
      }
    }
    in_pp_ = true;  // swallow the remainder of the logical line
  }

  void string_literal() {
    // pos_ is at the opening quote; raw strings are entered from
    // identifier() which re-dispatches here with raw_ set.
    if (raw_) {
      raw_string();
      return;
    }
    ++pos_;
    while (pos_ < src_.size() && src_[pos_] != '"') {
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) ++pos_;
      if (src_[pos_] == '\n') ++line_;
      ++pos_;
    }
    if (pos_ < src_.size()) ++pos_;
    emit(Token::Kind::kString, "");
  }

  void raw_string() {
    raw_ = false;
    ++pos_;  // '"'
    std::size_t dstart = pos_;
    while (pos_ < src_.size() && src_[pos_] != '(') ++pos_;
    std::string close = ")";
    close.append(src_.substr(dstart, pos_ - dstart));
    close.push_back('"');
    std::size_t end = src_.find(close, pos_);
    for (std::size_t i = pos_;
         i < std::min(end == std::string_view::npos ? src_.size()
                                                    : end + close.size(),
                      src_.size());
         ++i) {
      if (src_[i] == '\n') ++line_;
    }
    pos_ = end == std::string_view::npos ? src_.size() : end + close.size();
    emit(Token::Kind::kString, "");
  }

  void char_literal() {
    ++pos_;
    while (pos_ < src_.size() && src_[pos_] != '\'') {
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) ++pos_;
      ++pos_;
    }
    if (pos_ < src_.size()) ++pos_;
    emit(Token::Kind::kChar, "");
  }

  void identifier() {
    std::size_t start = pos_;
    while (pos_ < src_.size() && ident_char(src_[pos_])) ++pos_;
    std::string text(src_.substr(start, pos_ - start));
    // Raw-string prefix? (R"...", u8R"...", LR"...", ...)
    if (pos_ < src_.size() && src_[pos_] == '"' && !text.empty() &&
        text.back() == 'R' &&
        (text == "R" || text == "u8R" || text == "uR" || text == "UR" ||
         text == "LR")) {
      raw_ = true;
      string_literal();
      return;
    }
    // Encoded-string prefix (u8"...", L"...", ...): drop the prefix token.
    if (pos_ < src_.size() && (src_[pos_] == '"' || src_[pos_] == '\'') &&
        (text == "u8" || text == "u" || text == "U" || text == "L")) {
      if (src_[pos_] == '"') {
        string_literal();
      } else {
        char_literal();
      }
      return;
    }
    emit(Token::Kind::kIdentifier, std::move(text));
  }

  void number() {
    std::size_t start = pos_;
    while (pos_ < src_.size()) {
      char c = src_[pos_];
      if (ident_char(c) || c == '.') {
        ++pos_;
      } else if (c == '\'' && ident_char(peek(1))) {
        pos_ += 2;  // digit separator
      } else if ((c == '+' || c == '-') && pos_ > start &&
                 (src_[pos_ - 1] == 'e' || src_[pos_ - 1] == 'E' ||
                  src_[pos_ - 1] == 'p' || src_[pos_ - 1] == 'P')) {
        ++pos_;  // exponent sign
      } else {
        break;
      }
    }
    emit(Token::Kind::kNumber, std::string(src_.substr(start, pos_ - start)));
  }

  void punct() {
    for (std::string_view op : kOperators) {
      if (src_.compare(pos_, op.size(), op) == 0) {
        emit(Token::Kind::kPunct, std::string(op));
        pos_ += op.size();
        return;
      }
    }
    emit(Token::Kind::kPunct, std::string(1, src_[pos_]));
    ++pos_;
  }

  std::string_view src_;
  SourceFile out_;
  std::vector<int> code_lines_;
  std::size_t pos_ = 0;
  int line_ = 1;
  bool in_pp_ = false;
  bool continued_ = false;
  bool raw_ = false;
};

}  // namespace

bool SourceFile::line_has_code(int line) const {
  return std::binary_search(code_lines.begin(), code_lines.end(), line);
}

SourceFile tokenize(std::string path, std::string_view content) {
  return Scanner(std::move(path), content).run();
}

}  // namespace ahsw::lint
