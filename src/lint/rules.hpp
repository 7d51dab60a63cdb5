// The ahsw-lint rule catalogue.
//
// Four rule families statically enforce the contracts that the
// deterministic executor and the traffic-accounting layer rely on but that
// generic tooling cannot express (full catalogue with rationale and
// examples: docs/static_analysis.md):
//
//   D — determinism.  D1: wall-clock, OS randomness, threading primitives
//       and raw std::unordered_* containers are banned in sim code
//       (common::Rng, SimTime and common::PointMap are the sanctioned
//       replacements); D4: no non-const static or global variables in
//       src/, which every worker thread of the parallel batch driver would
//       share.
//   A — accounting.   A2: traffic counters mutate only inside the
//       accounting layer (TrafficStats / the span ledger), and cache
//       hit/miss/invalidate counters only inside LocationCache (CacheStats
//       is read-only to consumers).
//   O — observability. O2: a switch over a guarded enum (Category,
//       SpanKind, PhysOpKind) must be exhaustive — no silent `default:`
//       that would swallow a new enumerator.
//   L — layering.     L1: `#include` edges must follow the declared module
//       DAG (tools/ahsw_layers.spec); L2: every module must be declared in
//       the spec.
//
// Contracts a type or a signature can carry are not rules here: a
// common::PointMap has no iterators, QueryTrace's span calls are private to
// SpanScope and the DAG executor, Network::send / Network::timeout have no
// defaulted category, and Network::send takes a net::Charge that only
// net::wire makes for a payload (docs/static_analysis.md, "What replaced
// D2, D3, O1 and A1").
//
// Suppressions: `// ahsw-lint: allow(RULE[,RULE...]) <justification>` on
// the offending line, or as the comment block directly above it. The
// justification is mandatory; an empty one rejects the suppression and
// raises S1 on top of the original diagnostic.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/source.hpp"

namespace ahsw::lint {

struct Diagnostic {
  std::string rule;  // "D1", "A2", "L1", "S1", ...
  std::string file;
  int line = 0;
  std::string message;

  /// `file:line: [rule] message` — the format golden tests pin.
  [[nodiscard]] std::string to_string() const;
};

/// The declared module-layering DAG, parsed from tools/ahsw_layers.spec.
/// One line per module: `module: dep dep ...`, `*` for unrestricted
/// (tools / bench / tests), `#` comments. A module may always include
/// itself.
struct LayerSpec {
  std::map<std::string, std::set<std::string>> allowed;

  [[nodiscard]] bool known(const std::string& module) const {
    return allowed.count(module) > 0;
  }
  [[nodiscard]] bool allows(const std::string& module,
                            const std::string& dep) const;

  /// Parse the spec text; malformed lines are reported into `errors`.
  static LayerSpec parse(std::string_view text,
                         std::vector<std::string>* errors = nullptr);
};

struct LintConfig {
  LayerSpec layers;
  /// Enums whose switches must stay exhaustive (O2).
  std::set<std::string> guarded_enums = {"Category", "SpanKind", "PhysOpKind"};
};

/// Run every rule family over one tokenized file. Returns raw diagnostics;
/// suppressions are not yet applied.
[[nodiscard]] std::vector<Diagnostic> run_rules(const SourceFile& file,
                                                const LintConfig& cfg);

/// Apply `// ahsw-lint: allow(...)` suppressions: drops suppressed
/// diagnostics, raises S1 for suppressions missing a justification, and
/// reports how many diagnostics were suppressed via `suppressed_count`.
[[nodiscard]] std::vector<Diagnostic> apply_suppressions(
    const SourceFile& file, std::vector<Diagnostic> raw,
    std::size_t* suppressed_count);

/// One catalogue row: the single source of truth the generated table in
/// docs/static_analysis.md is checked against (`ahsw-lint --rules`).
struct RuleInfo {
  std::string_view id;      // "D1", ..., "S1"
  std::string_view family;  // "determinism", ...
  std::string_view summary;
};

/// Every rule the linter can emit (the token families and suppressions),
/// in catalogue order.
[[nodiscard]] const std::vector<RuleInfo>& rule_catalogue();

/// The module a repo-relative path belongs to for the layering rules:
/// "src/net/network.cpp" -> "net", "tools/x.cpp" -> "tools",
/// "bench/y.hpp" -> "bench". Empty when the path matches no module root.
[[nodiscard]] std::string module_of(std::string_view path);

}  // namespace ahsw::lint
