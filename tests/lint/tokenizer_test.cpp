#include <gtest/gtest.h>

#include "lint/source.hpp"

namespace {

using namespace ahsw;
using lint::SourceFile;
using lint::Token;

TEST(Tokenizer, IdentifiersPunctAndLines) {
  SourceFile f = lint::tokenize("x.cpp", "int a = 1;\nreturn a->b;\n");
  ASSERT_GE(f.tokens.size(), 9u);
  EXPECT_TRUE(f.tokens[0].ident("int"));
  EXPECT_EQ(f.tokens[0].line, 1);
  EXPECT_TRUE(f.tokens[1].ident("a"));
  EXPECT_TRUE(f.tokens[2].is("="));
  EXPECT_EQ(f.tokens[3].kind, Token::Kind::kNumber);
  // Multi-char operator tokenized as one token.
  bool saw_arrow = false;
  for (const Token& t : f.tokens) {
    if (t.is("->")) {
      saw_arrow = true;
      EXPECT_EQ(t.line, 2);
    }
  }
  EXPECT_TRUE(saw_arrow);
}

TEST(Tokenizer, CommentsAreCapturedNotTokenized) {
  SourceFile f = lint::tokenize(
      "x.cpp", "// rand() here is prose\nint x; /* std::rand */\n");
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text, "rand") << "comment text leaked into tokens";
  }
  ASSERT_EQ(f.comments.size(), 2u);
  EXPECT_EQ(f.comments[0].begin, 1);
  EXPECT_NE(f.comments[0].text.find("rand"), std::string::npos);
  EXPECT_EQ(f.comments[1].begin, 2);
}

TEST(Tokenizer, BlockCommentLineRange) {
  SourceFile f =
      lint::tokenize("x.cpp", "/* one\n two\n three */\nint after;\n");
  ASSERT_EQ(f.comments.size(), 1u);
  EXPECT_EQ(f.comments[0].begin, 1);
  EXPECT_EQ(f.comments[0].end, 3);
  ASSERT_FALSE(f.tokens.empty());
  EXPECT_EQ(f.tokens[0].line, 4);
}

TEST(Tokenizer, StringContentsAreStripped) {
  SourceFile f = lint::tokenize(
      "x.cpp", "const char* s = \"std::rand() and steady_clock\";\n");
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "steady_clock");
  }
  bool saw_string = false;
  for (const Token& t : f.tokens) {
    if (t.kind == Token::Kind::kString) saw_string = true;
  }
  EXPECT_TRUE(saw_string);
}

TEST(Tokenizer, RawStringsSwallowFakeDelimiters) {
  SourceFile f = lint::tokenize(
      "x.cpp", "auto s = R\"(quote \" and */ inside)\";\nint after;\n");
  EXPECT_TRUE(f.comments.empty());
  bool saw_after = false;
  for (const Token& t : f.tokens) {
    if (t.ident("after")) {
      saw_after = true;
      EXPECT_EQ(t.line, 2);
    }
  }
  EXPECT_TRUE(saw_after);
}

TEST(Tokenizer, IncludesAreExtracted) {
  SourceFile f = lint::tokenize(
      "x.cpp", "#include <chrono>\n#include \"net/network.hpp\"\n");
  ASSERT_EQ(f.includes.size(), 2u);
  EXPECT_EQ(f.includes[0].path, "chrono");
  EXPECT_EQ(f.includes[0].line, 1);
  EXPECT_EQ(f.includes[1].path, "net/network.hpp");
  EXPECT_EQ(f.includes[1].line, 2);
}

TEST(Tokenizer, PreprocessorBodiesAreNotRuleInput) {
  SourceFile f = lint::tokenize(
      "x.cpp", "#define NOW() rand()\n#if defined(rand)\n#endif\nint x;\n");
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text, "rand") << "directive body leaked into tokens";
  }
  ASSERT_FALSE(f.tokens.empty());
  EXPECT_TRUE(f.tokens[0].ident("int"));
}

TEST(Tokenizer, LineHasCode) {
  SourceFile f =
      lint::tokenize("x.cpp", "int a;\n\n// only a comment\nint b;\n");
  EXPECT_TRUE(f.line_has_code(1));
  EXPECT_FALSE(f.line_has_code(2));
  EXPECT_FALSE(f.line_has_code(3));
  EXPECT_TRUE(f.line_has_code(4));
  EXPECT_EQ(f.last_line, 5);  // final newline starts line 5
}

TEST(Tokenizer, RawStringCustomDelimiterAndLineCount) {
  // The closer is the exact `)xyz"`; a bare `)"` inside is literal text.
  SourceFile f = lint::tokenize(
      "x.cpp", "auto s = R\"xyz(rand()\nfake close: )\"\n)xyz\";\nint x;\n");
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text, "rand") << "raw-string body leaked into tokens";
  }
  bool saw_x = false;
  for (const Token& t : f.tokens) {
    if (t.ident("x")) {
      saw_x = true;
      EXPECT_EQ(t.line, 4);  // newlines inside the raw string were counted
    }
  }
  EXPECT_TRUE(saw_x);
}

TEST(Tokenizer, LineCommentBackslashSpliceSwallowsNextLine) {
  // [lex.phases]: line splicing runs before comment removal, so a `//`
  // comment ending in a backslash continues onto the next physical line.
  SourceFile f = lint::tokenize(
      "x.cpp", "// spliced \\\nrand();\nint x;\n// cr-lf splice \\\r\ny();\n");
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text, "rand") << "spliced comment line leaked into tokens";
    EXPECT_NE(t.text, "y") << "cr-lf spliced line leaked into tokens";
  }
  ASSERT_EQ(f.comments.size(), 2u);
  EXPECT_EQ(f.comments[0].begin, 1);
  EXPECT_EQ(f.comments[0].end, 2);
  EXPECT_NE(f.comments[0].text.find("rand"), std::string::npos);
  ASSERT_FALSE(f.tokens.empty());
  EXPECT_TRUE(f.tokens[0].ident("int"));
  EXPECT_EQ(f.tokens[0].line, 3);
}

TEST(Tokenizer, AdjacentStringLiteralsStayStrings) {
  // Concatenated literals (with or without encoding prefixes) are three
  // string tokens; no prefix or content identifier survives.
  SourceFile f = lint::tokenize(
      "x.cpp", "auto m = \"rand()\" u8\"srand()\" L\"time()\";\nint x;\n");
  int strings = 0;
  for (const Token& t : f.tokens) {
    if (t.kind == Token::Kind::kString) ++strings;
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "u8") << "encoding prefix emitted as identifier";
    EXPECT_NE(t.text, "L") << "encoding prefix emitted as identifier";
  }
  EXPECT_EQ(strings, 3);
}

}  // namespace
