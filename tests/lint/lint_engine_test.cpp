// Engine-level tests: suppression attachment, nesting-aware switch
// scanning, and report rendering.
#include <string>

#include <gtest/gtest.h>

#include "lint/engine.hpp"

namespace {

using namespace ahsw;

TEST(Rules, O2IsNestingAware) {
  // Outer switch over a guarded enum with no default; the inner switch is
  // over an unguarded enum and may keep its default. Mirrors
  // describe_op() in dqp/physical_plan.cpp.
  const char* src =
      "const char* f(PhysOpKind k, AlgebraKind a) {\n"
      "  switch (k) {\n"
      "    case PhysOpKind::kJoin: {\n"
      "      switch (a) {\n"
      "        case AlgebraKind::kProject: return \"p\";\n"
      "        default: return \"m\";\n"
      "      }\n"
      "    }\n"
      "    case PhysOpKind::kShip: return \"s\";\n"
      "  }\n"
      "  return \"\";\n"
      "}\n";
  lint::LintReport r = lint::lint_source("src/dqp/f.cpp", src);
  EXPECT_TRUE(r.clean()) << r.to_string();

  // Flip it: the inner switch is over the guarded enum and has a default.
  const char* bad =
      "const char* f(TaskKind k, SpanKind s) {\n"
      "  switch (k) {\n"
      "    case TaskKind::kShip: {\n"
      "      switch (s) {\n"
      "        case SpanKind::kQuery: return \"q\";\n"
      "        default: return \"?\";\n"
      "      }\n"
      "    }\n"
      "    default: return \"d\";\n"
      "  }\n"
      "}\n";
  lint::LintReport r2 = lint::lint_source("src/dqp/f.cpp", bad);
  ASSERT_EQ(r2.diagnostics.size(), 1u) << r2.to_string();
  EXPECT_EQ(r2.diagnostics[0].rule, "O2");
  EXPECT_EQ(r2.diagnostics[0].line, 6);  // the inner default, not line 9
}

TEST(Rules, DefaultedSpecialMemberIsNotADefaultLabel) {
  const char* src =
      "struct S {\n"
      "  S() = default;\n"
      "};\n"
      "int f(Category c) {\n"
      "  switch (c) {\n"
      "    case Category::kRouting: return 1;\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  lint::LintReport r = lint::lint_source("src/dqp/f.cpp", src);
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(Suppression, BlockCommentAttachesToNextCodeLine) {
  const char* src =
      "int f() {\n"
      "  // ahsw-lint: allow(D1) deliberate: exercising the suppressor\n"
      "  // across a multi-line comment block.\n"
      "  return std::rand();\n"
      "}\n";
  lint::LintReport r = lint::lint_source("src/dqp/f.cpp", src);
  EXPECT_TRUE(r.clean()) << r.to_string();
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(Suppression, BlankLineBreaksAttachment) {
  const char* src =
      "int f() {\n"
      "  // ahsw-lint: allow(D1) justified but detached\n"
      "\n"
      "  return std::rand();\n"
      "}\n";
  lint::LintReport r = lint::lint_source("src/dqp/f.cpp", src);
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "D1");
}

TEST(Suppression, WrongRuleDoesNotSuppress) {
  const char* src =
      "int f() {\n"
      "  // ahsw-lint: allow(A2) wrong family entirely\n"
      "  return std::rand();\n"
      "}\n";
  lint::LintReport r = lint::lint_source("src/dqp/f.cpp", src);
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "D1");
  EXPECT_EQ(r.suppressed, 0u);
}

TEST(Report, SummaryAndJsonShape) {
  lint::LintReport r =
      lint::lint_source("src/dqp/f.cpp", "int f() { return std::rand(); }\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.by_rule.at("D1"), 1u);
  EXPECT_NE(r.to_string().find("ahsw-lint: 1 diagnostic(s)"),
            std::string::npos);

  std::string json = r.to_json();
  EXPECT_NE(json.find("\"tool\": \"ahsw-lint\""), std::string::npos);
  // Pinned: bump kJsonSchemaVersion (and this test) only with a consumer
  // migration path — CI artifacts are parsed by schema_version.
  EXPECT_EQ(lint::kJsonSchemaVersion, 1);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostic_count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"by_rule\": {\"D1\": 1}"), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/dqp/f.cpp\""), std::string::npos);

  lint::LintReport clean =
      lint::lint_source("src/dqp/g.cpp", "int g() { return 0; }\n");
  EXPECT_NE(clean.to_string().find("ahsw-lint: clean"), std::string::npos);
}

TEST(Report, JsonEscapesFileNames) {
  lint::LintReport r = lint::lint_source(
      "src/dqp/we\"ird\t.cpp", "int f() { return std::rand(); }\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"file\": \"src/dqp/we\\\"ird\\t.cpp\""),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find('\t'), std::string::npos) << json;
}

}  // namespace
