// Symbol-table / call-graph extraction tests (src/lint/graph.*): function
// definitions in and out of class scope, call-site capture with receiver
// chains, layer-DAG-pruned resolution, and reachability with parent paths.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/graph.hpp"
#include "lint/source.hpp"

namespace {

using namespace ahsw;

lint::SourceFile snip(const std::string& path, std::string_view text) {
  return lint::tokenize(path, text);
}

const lint::FunctionDef* find_one(const lint::SymbolTable& table,
                                  std::string_view qualified) {
  std::vector<std::size_t> hits = table.find(qualified);
  if (hits.size() != 1) return nullptr;
  return &table.functions[hits[0]];
}

TEST(SymbolTable, FindsFreeQualifiedAndInlineMemberDefinitions) {
  lint::SymbolTable table = lint::SymbolTable::build({snip("src/net/network.cpp",
      "namespace ahsw::net {\n"
      "int free_helper(int x) { return x + 1; }\n"
      "SimTime Network::send(NodeAddress from, NodeAddress to) {\n"
      "  return charge(from, to);\n"
      "}\n"
      "struct Meter {\n"
      "  void tick() { ++count_; }\n"
      "  int count_ = 0;\n"
      "};\n"
      "}\n")});

  const lint::FunctionDef* free_fn = find_one(table, "free_helper");
  ASSERT_NE(free_fn, nullptr);
  EXPECT_EQ(free_fn->qualifier, "");
  EXPECT_EQ(free_fn->line, 2);

  const lint::FunctionDef* send = find_one(table, "Network::send");
  ASSERT_NE(send, nullptr);
  EXPECT_EQ(send->qualified(), "Network::send");

  const lint::FunctionDef* tick = find_one(table, "Meter::tick");
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(tick->qualifier, "Meter");
}

TEST(SymbolTable, ConstructorInitializerListIsNotABody) {
  // The ctor-init list contains call-shaped tokens (`queue_(cap)`); the
  // parser must skip to the real body and only record calls from there.
  lint::SymbolTable table = lint::SymbolTable::build({snip(
      "src/net/event_queue.cpp",
      "EventQueue::EventQueue(int cap)\n"
      "    : queue_(cap), stats_{} {\n"
      "  reserve(cap);\n"
      "}\n")});
  const lint::FunctionDef* ctor = find_one(table, "EventQueue::EventQueue");
  ASSERT_NE(ctor, nullptr);
  ASSERT_EQ(ctor->calls.size(), 1u);
  EXPECT_EQ(ctor->calls[0].name, "reserve");
}

TEST(SymbolTable, CallSitesCaptureMemberQualifierAndReceiverChain) {
  lint::SymbolTable table = lint::SymbolTable::build({snip("src/dqp/executor.cpp",
      "void DagExecutor::fire() {\n"
      "  queue_.push(ev);\n"
      "  overlay_->network().send(a, b);\n"
      "  chord::hash_key(term);\n"
      "  finish();\n"
      "}\n")});
  const lint::FunctionDef* fire = find_one(table, "DagExecutor::fire");
  ASSERT_NE(fire, nullptr);
  ASSERT_EQ(fire->calls.size(), 5u);  // push, network, send, hash_key, finish

  const lint::CallSite& push = fire->calls[0];
  EXPECT_TRUE(push.member);
  ASSERT_EQ(push.receiver.size(), 1u);
  EXPECT_EQ(push.receiver[0], "queue_");

  const lint::CallSite& send = fire->calls[2];
  EXPECT_EQ(send.name, "send");
  EXPECT_TRUE(send.member);
  // Chain walks through the ()-group: {network, overlay_}.
  ASSERT_EQ(send.receiver.size(), 2u);
  EXPECT_EQ(send.receiver[0], "network");
  EXPECT_EQ(send.receiver[1], "overlay_");

  const lint::CallSite& hash = fire->calls[3];
  EXPECT_FALSE(hash.member);
  EXPECT_EQ(hash.qualifier, "chord");

  EXPECT_FALSE(fire->calls[4].member);
  EXPECT_EQ(fire->calls[4].qualifier, "");
}

TEST(SymbolTable, RecordsNonConstStaticsButSkipsConstAndFunctions) {
  lint::SymbolTable table = lint::SymbolTable::build({snip("src/obs/json.cpp",
      "static int counter = 0;\n"
      "static const int kLimit = 8;\n"
      "static int helper(int x) { return x; }\n"
      "void flush() {\n"
      "  static Sink sink;\n"
      "  sink.write(counter);\n"
      "}\n")});
  const auto it = table.statics.find("src/obs/json.cpp");
  ASSERT_NE(it, table.statics.end());
  ASSERT_EQ(it->second.size(), 2u);
  EXPECT_EQ(it->second[0].name, "counter");
  EXPECT_FALSE(it->second[0].local);
  EXPECT_EQ(it->second[1].name, "sink");
  EXPECT_TRUE(it->second[1].local);
}

constexpr std::string_view kLayers =
    "common:\n"
    "net: common\n"
    "overlay: common net\n"
    "dqp: common net overlay\n"
    "lint: common\n"
    "tools: *\n";

TEST(CallGraph, LayerClosureFollowsTheDagAndStarIsUnrestricted) {
  lint::LayerSpec layers = lint::LayerSpec::parse(kLayers);
  std::set<std::string> dqp = lint::layer_closure(layers, "dqp");
  EXPECT_TRUE(dqp.count("dqp"));
  EXPECT_TRUE(dqp.count("overlay"));
  EXPECT_TRUE(dqp.count("net"));
  EXPECT_TRUE(dqp.count("common"));
  EXPECT_FALSE(dqp.count("lint"));
  EXPECT_TRUE(lint::layer_closure(layers, "tools").empty());  // `*`
}

TEST(CallGraph, ResolutionIsPrunedByLayerClosure) {
  // Both `net` and `lint` define run(); a caller in dqp may only resolve
  // into its include closure, so the lint definition must not appear.
  lint::SymbolTable table = lint::SymbolTable::build({
      snip("src/net/network.cpp", "void run() { }\n"),
      snip("src/lint/engine.cpp", "void run() { }\n"),
      snip("src/dqp/executor.cpp", "void drive() { run(); }\n"),
  });
  lint::CallGraph graph =
      lint::CallGraph::resolve(table, lint::LayerSpec::parse(kLayers));
  std::vector<std::size_t> drive = table.find("drive");
  ASSERT_EQ(drive.size(), 1u);
  ASSERT_EQ(graph.out[drive[0]].size(), 1u);
  EXPECT_EQ(table.functions[graph.out[drive[0]][0]].file,
            "src/net/network.cpp");
}

TEST(CallGraph, MemberCallsNeverResolveToFreeFunctions) {
  lint::SymbolTable table = lint::SymbolTable::build({
      snip("src/net/network.cpp",
           "void flush() { }\n"
           "void Network::flush() { }\n"),
      snip("src/dqp/executor.cpp", "void drive() { net_->flush(); }\n"),
  });
  lint::CallGraph graph =
      lint::CallGraph::resolve(table, lint::LayerSpec::parse(kLayers));
  std::vector<std::size_t> drive = table.find("drive");
  ASSERT_EQ(drive.size(), 1u);
  ASSERT_EQ(graph.out[drive[0]].size(), 1u);
  EXPECT_EQ(table.functions[graph.out[drive[0]][0]].qualified(),
            "Network::flush");
}

TEST(SymbolTable, LambdaBodyCallsAttributeToTheSpawningFunction) {
  // The parallel driver hands each shard a lambda captured into a
  // std::thread. The scanner is flat: calls inside the lambda body belong
  // to the enclosing function's token range, so the worker code stays
  // reachable from the spawn site.
  lint::SymbolTable table = lint::SymbolTable::build({snip(
      "src/dqp/parallel.cpp",
      "void shard_work() { }\n"
      "void launch() {\n"
      "  std::thread t([&] { shard_work(); });\n"
      "  t.join();\n"
      "}\n")});
  const lint::FunctionDef* launch = find_one(table, "launch");
  ASSERT_NE(launch, nullptr);
  bool saw_shard_work = false;
  for (const lint::CallSite& call : launch->calls) {
    if (call.name == "shard_work") saw_shard_work = true;
  }
  EXPECT_TRUE(saw_shard_work);

  lint::CallGraph graph =
      lint::CallGraph::resolve(table, lint::LayerSpec::parse(kLayers));
  std::size_t launch_i = table.find("launch")[0];
  std::size_t work_i = table.find("shard_work")[0];
  std::vector<std::size_t> parent = graph.reach({launch_i});
  EXPECT_EQ(parent[work_i], launch_i);
}

TEST(CallGraph, OverloadSetsResolveToEveryDefinition) {
  // Overloads collapse to names (graph.hpp): one call site fans out to
  // every same-named definition in the layer closure. Over-approximate by
  // design — a spurious edge can demand a justification, never hide one.
  lint::SymbolTable table = lint::SymbolTable::build({snip(
      "src/dqp/executor.cpp",
      "void absorb(int x) { }\n"
      "void absorb(double x) { }\n"
      "void drive() { absorb(1); }\n")});
  lint::CallGraph graph =
      lint::CallGraph::resolve(table, lint::LayerSpec::parse(kLayers));
  std::vector<std::size_t> drive = table.find("drive");
  ASSERT_EQ(drive.size(), 1u);
  EXPECT_EQ(graph.out[drive[0]].size(), 2u);

  std::vector<std::size_t> parent = graph.reach({drive[0]});
  for (std::size_t idx : table.find("absorb")) {
    EXPECT_EQ(parent[idx], drive[0]);
  }
}

TEST(CallGraph, MemberFunctionPointersAreAKnownBlindSpot) {
  // Neither taking `&Class::method` nor invoking through the pointer has
  // the identifier-then-'(' shape the scanner keys on, so no edge forms.
  // This is the one under-approximation in the extractor; the shared-state
  // spec must name such targets as roots/surfaces directly if they ever
  // carry dispatch (none do today — this test documents the contract).
  lint::SymbolTable table = lint::SymbolTable::build({snip(
      "src/dqp/executor.cpp",
      "void DagExecutor::fire() { }\n"
      "void DagExecutor::drive() {\n"
      "  auto handler = &DagExecutor::fire;\n"
      "  (this->*handler)();\n"
      "}\n")});
  lint::CallGraph graph =
      lint::CallGraph::resolve(table, lint::LayerSpec::parse(kLayers));
  std::vector<std::size_t> drive = table.find("DagExecutor::drive");
  ASSERT_EQ(drive.size(), 1u);
  EXPECT_TRUE(graph.out[drive[0]].empty());

  std::vector<std::size_t> parent = graph.reach({drive[0]});
  EXPECT_EQ(parent[table.find("DagExecutor::fire")[0]], lint::kNoFunction);
}

TEST(CallGraph, ReachReturnsShortestPathParents) {
  lint::SymbolTable table = lint::SymbolTable::build({snip(
      "src/dqp/executor.cpp",
      "void leaf() { }\n"
      "void mid() { leaf(); }\n"
      "void root() { mid(); }\n"
      "void stray() { leaf(); }\n")});
  lint::CallGraph graph =
      lint::CallGraph::resolve(table, lint::LayerSpec::parse(kLayers));
  std::size_t root = table.find("root")[0];
  std::size_t mid = table.find("mid")[0];
  std::size_t leaf = table.find("leaf")[0];
  std::size_t stray = table.find("stray")[0];

  std::vector<std::size_t> parent = graph.reach({root});
  EXPECT_EQ(parent[root], root);
  EXPECT_EQ(parent[mid], root);
  EXPECT_EQ(parent[leaf], mid);
  EXPECT_EQ(parent[stray], lint::kNoFunction);
}

TEST(CallGraph, ReachVisitsEachFunctionOfACycleOnce) {
  lint::SymbolTable table = lint::SymbolTable::build({snip(
      "src/dqp/executor.cpp",
      "void pong();\n"
      "void ping() { pong(); }\n"
      "void pong() { ping(); }\n"
      "void root() { ping(); }\n")});
  lint::CallGraph graph =
      lint::CallGraph::resolve(table, lint::LayerSpec::parse(kLayers));
  std::size_t root = table.find("root")[0];
  std::size_t ping = table.find("ping")[0];
  std::size_t pong = table.find("pong")[0];

  std::vector<std::size_t> parent = graph.reach({root});
  EXPECT_EQ(parent[root], root);
  EXPECT_EQ(parent[ping], root);
  // pong's edge back to ping does not re-parent ping.
  EXPECT_EQ(parent[pong], ping);
}

TEST(CallGraph, ReachFromSeveralRootsKeepsEachRootItsOwnParent) {
  lint::SymbolTable table = lint::SymbolTable::build({snip(
      "src/dqp/executor.cpp",
      "void shared() { }\n"
      "void first() { shared(); }\n"
      "void second() { first(); shared(); }\n")});
  lint::CallGraph graph =
      lint::CallGraph::resolve(table, lint::LayerSpec::parse(kLayers));
  std::size_t shared = table.find("shared")[0];
  std::size_t first = table.find("first")[0];
  std::size_t second = table.find("second")[0];

  // A root reached from another root is still a root of its own path.
  std::vector<std::size_t> parent = graph.reach({second, first});
  EXPECT_EQ(parent[second], second);
  EXPECT_EQ(parent[first], first);
  EXPECT_NE(parent[shared], lint::kNoFunction);
  EXPECT_TRUE(parent[shared] == first || parent[shared] == second);
}

}  // namespace
