// The ahsw-lint rule catalogue.
//
// Three rule families statically enforce the contracts that the
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
//       accounting layer (Network / TrafficStats), and cache
//       hit/miss/invalidate counters only inside LocationCache (CacheStats
//       is read-only to consumers).
//   O — observability. O2: a switch over a guarded enum (Category,
//       SpanKind, PhysOpKind) must be exhaustive — no silent `default:`
//       that would swallow a new enumerator.
//
// Contracts a type, a signature or the build can carry are not rules here:
// a common::PointMap has no iterators, QueryTrace's span calls are private
// to SpanScope and the DAG executor, Network::send / Network::timeout have
// no defaulted category, Network::send takes a net::Charge that only
// net::wire makes for a payload (docs/static_analysis.md, "What replaced
// D2, D3, O1 and A1"), and a module's include roots hold only the modules
// it links, so an #include against the layering does not compile
// (src/CMakeLists.txt).
//
// Suppressions: `// ahsw-lint: allow(RULE[,RULE...]) <justification>` on
// the offending line, or as the comment block directly above it. The
// justification is mandatory; an empty one rejects the suppression and
// raises S1 on top of the original diagnostic.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint/source.hpp"

namespace ahsw::lint {

struct Diagnostic {
  std::string rule;  // "D1", "A2", "S1", ...
  std::string file;
  int line = 0;
  std::string message;

  /// `file:line: [rule] message` — the format golden tests pin.
  [[nodiscard]] std::string to_string() const;
};

/// Run every rule family over one tokenized file. Returns raw diagnostics;
/// suppressions are not yet applied.
[[nodiscard]] std::vector<Diagnostic> run_rules(const SourceFile& file);

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

}  // namespace ahsw::lint
