// Shared-state effect analysis over the call graph (rule family P).
//
// The future parallel driver partitions queries across workers and merges
// in (time, query, task) order; that is only sound if everything a worker
// executes touches per-query state, or goes through a sync surface the
// merge can serialize. This pass makes that contract static and reviewable:
//
//   P1 — declared shared mutable state (LocationTable, LocationCache,
//        TrafficStats, net::EventQueue, TermDictionary, RNG engines) may be
//        mutated outside its owning implementation only by functions
//        declared as sync surfaces in tools/ahsw_shared_state.spec.
//   P2 — every function transitively reachable from the DagExecutor
//        dispatch roots must not mutate shared state except through a
//        surface declared `dispatch`-safe; the diagnostic carries the call
//        path from the root so the reviewer sees *how* dispatch gets there.
//   P3 — no non-const globals or function-local statics outside the
//        declared singletons (hash-order-free, but parallel-hostile).
//   P4 — the parallel-safety ledger: every out-of-home touch point of
//        shared state, with its shortest dispatch call path, rendered as
//        stable JSON (no line numbers, so the committed baseline only
//        changes when the shared surface itself changes). CI diffs the
//        regenerated ledger against tools/ahsw_effects.json.
//
// The analysis is deliberately over-approximate (see graph.hpp): a
// spurious resolution can demand a justified declaration, never hide a
// mutation behind a call.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/graph.hpp"
#include "lint/rules.hpp"
#include "lint/source.hpp"

namespace ahsw::lint {

/// One declared shared-state class and the method names that mutate it.
struct SharedStateDecl {
  std::string name;  // class name, e.g. "LocationTable"
  std::string home;  // path prefix owning the implementation
  /// Receiver-chain hints: a member call `x.y().m(...)` only counts as a
  /// touch of this state when some chain identifier contains a hint
  /// (case-insensitive), mirroring the A2 idiom.
  std::vector<std::string> hints;
  std::set<std::string> mutators;
  /// "global": P1 applies everywhere in src/. "dispatch": only mutations on
  /// a dispatch path are violations (setup-time use is unconstrained);
  /// every touch still lands in the ledger.
  bool global = true;
};

/// One declared sync surface: a function allowed to mutate a state.
struct SurfaceDecl {
  std::string function;  // qualified name ("Class::method" or free name)
  std::string state;     // SharedStateDecl::name
  bool dispatch = false;  // also allowed on DagExecutor dispatch paths
  /// Parallel-safety discipline of a dispatch surface: `shard=` names a
  /// partition ("per-query", "per-worker", "per-node"), `merge=` names a
  /// replay scheme ("state-log"). At most one is non-empty.
  std::string shard;
  std::string merge;
  std::string why;  // mandatory justification
};

/// Parsed tools/ahsw_shared_state.spec.
struct SharedStateSpec {
  std::vector<std::string> roots;  // dispatch roots, qualified names
  std::vector<SharedStateDecl> states;
  std::vector<SurfaceDecl> surfaces;
  std::set<std::string> singletons;  // P3-exempt static/global names

  /// Parse the spec text; malformed lines are reported into `errors`.
  /// Grammar (one declaration per line, `#` comments):
  ///   root <Function>
  ///   state <Name> home=<prefix> hints=<h1,h2> [scope=dispatch]: <m> <m> ...
  ///   surface <Function> state=<Name> [dispatch] [shard=<p>|merge=<s>]:
  ///       <justification>
  ///   singleton <name>: <justification>
  [[nodiscard]] static SharedStateSpec parse(
      std::string_view text, std::vector<std::string>* errors = nullptr);

  [[nodiscard]] const SurfaceDecl* surface_for(std::string_view function,
                                               std::string_view state) const;
};

/// One out-of-home mutation site of declared shared state (ledger entry;
/// line-bearing for diagnostics, line-less in the stable JSON).
struct TouchPoint {
  std::string state;
  std::string mutator;
  std::string function;  // qualified enclosing function
  std::string file;
  int line = 0;
  bool declared = false;   // a surface covers (function, state)
  bool dispatch = false;   // ...and that surface is dispatch-safe
  bool reachable = false;  // on a path from a dispatch root
  std::vector<std::string> path;  // root -> ... -> function, when reachable
};

struct EffectsReport {
  std::vector<Diagnostic> diagnostics;  // P1/P2/P3, pre-suppression
  std::vector<TouchPoint> touches;      // sorted, deduplicated per line
  std::vector<std::string> roots;       // resolved root names, spec order

  /// The stable parallel-safety ledger (P4): schema_version, roots, states,
  /// and every touch point without line numbers, deduplicated.
  [[nodiscard]] std::string ledger_json(const SharedStateSpec& spec) const;
};

/// Schema version of the P4 ledger (`tools/ahsw_effects.json`). Version 3
/// drops version 2's thread role per touch point and its master-root
/// header.
inline constexpr int kEffectsSchemaVersion = 3;

/// Run the effect analysis over a tokenized file set. Diagnostics and
/// ledger entries are emitted for `src/` files only — tools and benches
/// drive the simulator single-threaded by construction — but their
/// definitions still feed the call graph.
[[nodiscard]] EffectsReport analyze_effects(
    const std::vector<SourceFile>& files, const SharedStateSpec& spec,
    const LayerSpec& layers);

}  // namespace ahsw::lint
