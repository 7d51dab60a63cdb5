// Fixture-corpus tests: each known-bad snippet under tests/lint/fixtures/
// demonstrates one rule and pins the exact diagnostic output (golden
// .expected file). A fixture's first line names the path label it is
// linted under, so whitelists and layering behave as they would in-tree.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "lint/engine.hpp"

namespace {

using namespace ahsw;

/// Mirrors the shape of tools/ahsw_layers.spec, scoped down to the modules
/// the fixtures use.
constexpr std::string_view kFixtureSpec =
    "common:\n"
    "net: common\n"
    "obs: common net\n"
    "overlay: common net obs\n"
    "dqp: common net obs overlay\n"
    "tools: *\n";

lint::LintConfig fixture_config() {
  lint::LintConfig cfg;
  cfg.layers = lint::LayerSpec::parse(kFixtureSpec);
  return cfg;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

lint::LintReport run_fixture(const std::string& name) {
  const std::string dir = AHSW_LINT_FIXTURE_DIR;
  std::string text = read_file(dir + "/" + name + ".cppsnip");
  constexpr std::string_view kTag = "// ahsw-lint-fixture: ";
  EXPECT_EQ(text.rfind(kTag, 0), 0u) << name << " missing fixture tag";
  std::string label =
      text.substr(kTag.size(), text.find('\n') - kTag.size());
  return lint::lint_source(label, text, fixture_config());
}

std::string diagnostics_of(const lint::LintReport& report) {
  std::string out;
  for (const lint::Diagnostic& d : report.diagnostics) {
    out += d.to_string() + "\n";
  }
  return out;
}

void expect_golden(const std::string& name) {
  lint::LintReport report = run_fixture(name);
  std::string expected = read_file(std::string(AHSW_LINT_FIXTURE_DIR) + "/" +
                                   name + ".expected");
  EXPECT_EQ(diagnostics_of(report), expected) << "fixture: " << name;
}

TEST(LintFixtures, D1WallClockAndRand) { expect_golden("d1_wall_clock"); }

TEST(LintFixtures, D4MutableStatic) { expect_golden("d4_mutable_static"); }

TEST(LintFixtures, A1RawBytesCharged) { expect_golden("a1_raw_bytes_charged"); }

TEST(LintFixtures, A2CounterMutation) { expect_golden("a2_counter_mutation"); }

TEST(LintFixtures, A2WireCounterMutation) {
  expect_golden("a2_wire_counter_mutation");
}

TEST(LintFixtures, A2CacheCounterMutation) {
  expect_golden("a2_cache_counter_mutation");
}

TEST(LintFixtures, O2DefaultInGuardedSwitch) {
  expect_golden("o2_default_switch");
}

TEST(LintFixtures, L1LayeringViolation) { expect_golden("l1_layering"); }

TEST(LintFixtures, L2UnknownModule) { expect_golden("l2_unknown_module"); }

TEST(LintFixtures, SuppressionWithoutJustificationRejected) {
  expect_golden("s1_unjustified");
  lint::LintReport report = run_fixture("s1_unjustified");
  // The original diagnostic must survive: an unjustified allow() is void.
  EXPECT_EQ(report.by_rule.count("D1"), 1u);
  EXPECT_EQ(report.suppressed, 0u);
}

TEST(LintFixtures, JustifiedSuppressionHonored) {
  lint::LintReport report = run_fixture("suppressed_ok");
  EXPECT_TRUE(report.clean()) << diagnostics_of(report);
  EXPECT_EQ(report.suppressed, 1u);
}

TEST(LintFixtures, CleanCorpusStaysClean) {
  lint::LintReport report = run_fixture("clean");
  EXPECT_TRUE(report.clean()) << diagnostics_of(report);
  EXPECT_EQ(report.suppressed, 0u);
}

// Tokenizer edge cases exercised through the full rule pipeline: each
// fixture spells banned identifiers inside text the tokenizer must strip
// (raw strings with custom delimiters, a comment spliced across lines,
// adjacent string literals), so any leak shows up as a D1 diagnostic
// against the empty golden file.

TEST(LintFixtures, RawStringCustomDelimiterStripped) {
  expect_golden("tok_raw_string_delim");
}

TEST(LintFixtures, LineCommentBackslashSpliceStripped) {
  expect_golden("tok_comment_splice");
}

TEST(LintFixtures, AdjacentStringLiteralsStripped) {
  expect_golden("tok_adjacent_strings");
}

}  // namespace
