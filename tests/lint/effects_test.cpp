// Effect-analysis tests (src/lint/effects.*): shared-state spec parsing,
// the P1/P2/P3 rules over small synthetic trees, and the stability
// contract of the parallel-safety ledger JSON.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/effects.hpp"
#include "lint/source.hpp"

namespace {

using namespace ahsw;

constexpr std::string_view kLayers =
    "common:\n"
    "net: common\n"
    "overlay: common net\n"
    "dqp: common net overlay\n";

constexpr std::string_view kSpec =
    "# fixture spec\n"
    "root DagExecutor::run\n"
    "state LocationCache home=src/overlay/location_cache hints=cache:"
    " insert invalidate\n"
    "state Rng home=src/common/rng hints=rng scope=dispatch: next below\n"
    "surface DagExecutor::fire_lookup state=LocationCache dispatch:"
    " keyed insert, last-writer-wins\n"
    "surface HybridOverlay::warm state=LocationCache: setup-time prefill\n"
    "singleton sink: bench sink, single-threaded mains\n";

lint::SharedStateSpec parse_spec(std::string_view text = kSpec) {
  std::vector<std::string> errors;
  lint::SharedStateSpec spec = lint::SharedStateSpec::parse(text, &errors);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
  return spec;
}

lint::EffectsReport analyze(const std::vector<lint::SourceFile>& files,
                            const lint::SharedStateSpec& spec) {
  return lint::analyze_effects(files, spec,
                               lint::LayerSpec::parse(kLayers));
}

std::vector<std::string> rules_of(const lint::EffectsReport& report) {
  std::vector<std::string> out;
  for (const lint::Diagnostic& d : report.diagnostics) out.push_back(d.rule);
  return out;
}

TEST(SharedStateSpec, ParsesDeclarationsAndQualifiedSurfaceNames) {
  lint::SharedStateSpec spec = parse_spec();
  ASSERT_EQ(spec.roots.size(), 1u);
  EXPECT_EQ(spec.roots[0], "DagExecutor::run");

  ASSERT_EQ(spec.states.size(), 2u);
  EXPECT_EQ(spec.states[0].name, "LocationCache");
  EXPECT_EQ(spec.states[0].home, "src/overlay/location_cache");
  EXPECT_TRUE(spec.states[0].global);
  EXPECT_EQ(spec.states[0].mutators.count("insert"), 1u);
  EXPECT_FALSE(spec.states[1].global);  // scope=dispatch

  // The `::` in a surface's function name must not be taken as the
  // head/tail separator.
  const lint::SurfaceDecl* fire =
      spec.surface_for("DagExecutor::fire_lookup", "LocationCache");
  ASSERT_NE(fire, nullptr);
  EXPECT_TRUE(fire->dispatch);
  EXPECT_EQ(fire->why, "keyed insert, last-writer-wins");
  const lint::SurfaceDecl* warm =
      spec.surface_for("HybridOverlay::warm", "LocationCache");
  ASSERT_NE(warm, nullptr);
  EXPECT_FALSE(warm->dispatch);
  EXPECT_EQ(spec.surface_for("DagExecutor::fire_lookup", "Rng"), nullptr);

  EXPECT_EQ(spec.singletons.count("sink"), 1u);
}

TEST(SharedStateSpec, ReportsMalformedDeclarations) {
  std::vector<std::string> errors;
  lint::SharedStateSpec spec = lint::SharedStateSpec::parse(
      "root\n"
      "state Foo hints=x: mutate\n"       // missing home=
      "surface F state=Foo:\n"            // missing justification
      "wibble Foo: bar\n",                // unknown keyword
      &errors);
  EXPECT_TRUE(spec.states.empty());
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_NE(errors[0].find("line 1"), std::string::npos);
  EXPECT_NE(errors[3].find("wibble"), std::string::npos);
}

TEST(SharedStateSpec, ParsesDisciplines) {
  std::vector<std::string> errors;
  lint::SharedStateSpec spec = lint::SharedStateSpec::parse(
      "root DagExecutor::run\n"
      "state Log home=src/dqp/parallel hints=log: append\n"
      "surface DagExecutor::fire state=Log dispatch merge=state-log:"
      " replayed on the master\n"
      "surface Shard::run state=Log dispatch shard=per-worker: one log per"
      " worker\n",
      &errors);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);

  const lint::SurfaceDecl* fire = spec.surface_for("DagExecutor::fire", "Log");
  ASSERT_NE(fire, nullptr);
  EXPECT_EQ(fire->merge, "state-log");
  EXPECT_TRUE(fire->shard.empty());
  const lint::SurfaceDecl* run = spec.surface_for("Shard::run", "Log");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->shard, "per-worker");
  EXPECT_TRUE(run->merge.empty());
}

TEST(SharedStateSpec, RejectsShardAndMergeOnOneSurface) {
  std::vector<std::string> errors;
  const lint::SharedStateSpec spec = lint::SharedStateSpec::parse(
      "state Log home=src/dqp/parallel hints=log: append\n"
      "surface F state=Log shard=per-worker merge=state-log: both\n",
      &errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("shard="), std::string::npos);
  // The rejected surface is not registered.
  EXPECT_EQ(spec.surface_for("F", "Log"), nullptr);
}

TEST(SharedStateSpec, RetiredRoleKeywordsAreUnknown) {
  // Thread roles left the grammar with schema 3: `master_root` and
  // `record` lines are errors, not silently accepted declarations.
  std::vector<std::string> errors;
  const lint::SharedStateSpec spec = lint::SharedStateSpec::parse(
      "root DagExecutor::run\n"
      "master_root run_parallel_batch\n"
      "record RecordingOverlay::append: the state log\n",
      &errors);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NE(errors[0].find("line 2"), std::string::npos);
  EXPECT_NE(errors[0].find("master_root"), std::string::npos);
  EXPECT_NE(errors[1].find("line 3"), std::string::npos);
  EXPECT_NE(errors[1].find("record"), std::string::npos);
  EXPECT_EQ(spec.roots, (std::vector<std::string>{"DagExecutor::run"}));
}

TEST(Effects, P1FlagsUndeclaredMutationOutsideHome) {
  lint::EffectsReport report = analyze(
      {lint::tokenize("src/dqp/executor.cpp",
                      "void DagExecutor::helper() {\n"
                      "  cache_.invalidate(key);\n"
                      "}\n")},
      parse_spec());
  ASSERT_EQ(rules_of(report), std::vector<std::string>{"P1"});
  EXPECT_EQ(report.diagnostics[0].file, "src/dqp/executor.cpp");
  EXPECT_EQ(report.diagnostics[0].line, 2);
  ASSERT_EQ(report.touches.size(), 1u);
  EXPECT_FALSE(report.touches[0].declared);
  EXPECT_FALSE(report.touches[0].reachable);
}

TEST(Effects, HomeImplementationAndUnmatchedReceiversAreExempt) {
  lint::EffectsReport report = analyze(
      {lint::tokenize("src/overlay/location_cache.cpp",
                      "bool LocationCache::insert(Key k) {\n"
                      "  entries_.insert(k);\n"
                      "  return true;\n"
                      "}\n"),
       lint::tokenize("src/dqp/executor.cpp",
                      "void DagExecutor::helper() {\n"
                      "  results_.insert(row);\n"  // no cache hint
                      "}\n")},
      parse_spec());
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_TRUE(report.touches.empty());
}

TEST(Effects, P2FlagsDispatchPathThroughNonDispatchSurface) {
  // `warm` has a surface (so no P1) but it is not dispatch-marked, and it
  // is reachable from the root — P2 must fire and carry the call path.
  lint::EffectsReport report = analyze(
      {lint::tokenize("src/dqp/executor.cpp",
                      "SimTime DagExecutor::run() {\n"
                      "  overlay_->warm();\n"
                      "  return now_;\n"
                      "}\n"),
       lint::tokenize("src/overlay/overlay.cpp",
                      "void HybridOverlay::warm() {\n"
                      "  cache_.insert(key, providers);\n"
                      "}\n")},
      parse_spec());
  ASSERT_EQ(rules_of(report), std::vector<std::string>{"P2"});
  EXPECT_NE(report.diagnostics[0].message.find(
                "DagExecutor::run -> HybridOverlay::warm"),
            std::string::npos);
  ASSERT_EQ(report.touches.size(), 1u);
  EXPECT_TRUE(report.touches[0].declared);
  EXPECT_FALSE(report.touches[0].dispatch);
  EXPECT_TRUE(report.touches[0].reachable);
}

TEST(Effects, DispatchSurfaceSilencesBothRules) {
  lint::EffectsReport report = analyze(
      {lint::tokenize("src/dqp/executor.cpp",
                      "SimTime DagExecutor::run() { fire_lookup(); }\n"
                      "void DagExecutor::fire_lookup() {\n"
                      "  cache_.insert(key, providers);\n"
                      "}\n")},
      parse_spec());
  EXPECT_TRUE(report.diagnostics.empty());
  ASSERT_EQ(report.touches.size(), 1u);  // still on the ledger
  EXPECT_TRUE(report.touches[0].dispatch);
}

TEST(Effects, DispatchScopedStateSkipsP1ButNotP2) {
  // Rng is scope=dispatch: drawing at setup (unreachable from the root)
  // is fine; drawing on the dispatch path still needs a surface.
  lint::SharedStateSpec spec = parse_spec();
  lint::EffectsReport setup = analyze(
      {lint::tokenize("src/overlay/overlay.cpp",
                      "void HybridOverlay::seed() { id_rng_.next(); }\n")},
      spec);
  EXPECT_TRUE(setup.diagnostics.empty());

  lint::EffectsReport dispatch = analyze(
      {lint::tokenize("src/dqp/executor.cpp",
                      "SimTime DagExecutor::run() { rng_.below(n); }\n")},
      spec);
  ASSERT_EQ(rules_of(dispatch), std::vector<std::string>{"P2"});
}

TEST(Effects, P3FlagsStaticsOutsideSingletonList) {
  lint::EffectsReport report = analyze(
      {lint::tokenize("src/overlay/overlay.cpp",
                      "static int publishes = 0;\n"
                      "void bump() {\n"
                      "  static Sink sink;\n"
                      "  static int hits = 0;\n"
                      "}\n")},
      parse_spec());
  // `sink` is a declared singleton; the other two statics are P3.
  EXPECT_EQ(rules_of(report),
            (std::vector<std::string>{"P3", "P3"}));
}

TEST(Effects, LedgerIsStableDedupedAndVersioned) {
  lint::SharedStateSpec spec = parse_spec();
  lint::EffectsReport report = analyze(
      {lint::tokenize("src/dqp/executor.cpp",
                      "SimTime DagExecutor::run() { fire_lookup(); }\n"
                      "void DagExecutor::fire_lookup() {\n"
                      "  cache_.insert(a, b);\n"
                      "  cache_.insert(c, d);\n"  // same touch key: deduped
                      "}\n")},
      spec);
  std::string ledger = report.ledger_json(spec);
  EXPECT_NE(ledger.find("\"tool\": \"ahsw-effects\""), std::string::npos);
  EXPECT_NE(ledger.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_NE(ledger.find("\"roots\": [\"DagExecutor::run\"]"),
            std::string::npos);
  // v3: no thread roles, no master roots.
  EXPECT_EQ(ledger.find("master_roots"), std::string::npos);
  EXPECT_EQ(ledger.find("\"role\""), std::string::npos);
  // Two insert sites, one ledger entry, no line numbers anywhere.
  std::size_t first = ledger.find("\"mutator\": \"insert\"");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(ledger.find("\"mutator\": \"insert\"", first + 1),
            std::string::npos);
  EXPECT_EQ(ledger.find("\"line\""), std::string::npos);
  EXPECT_NE(
      ledger.find("\"path\": [\"DagExecutor::run\", "
                  "\"DagExecutor::fire_lookup\"]"),
      std::string::npos);
}

TEST(Effects, LedgerEscapesControlCharactersInFileNames) {
  lint::SharedStateSpec spec = parse_spec();
  lint::EffectsReport report = analyze(
      {lint::tokenize("src/dqp/exec\tutor\x01.cpp",
                      "SimTime DagExecutor::run() { fire_lookup(); }\n"
                      "void DagExecutor::fire_lookup() {\n"
                      "  cache_.insert(a, b);\n"
                      "}\n")},
      spec);
  const std::string ledger = report.ledger_json(spec);
  EXPECT_NE(ledger.find("\"file\": \"src/dqp/exec\\tutor\\u0001.cpp\""),
            std::string::npos)
      << ledger;
  for (char c : ledger) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << ledger;
    }
  }
}

}  // namespace
