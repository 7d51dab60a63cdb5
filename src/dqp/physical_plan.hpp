// Physical operator plan (the reified Fig. 3 pipeline).
//
// The planner compiles the optimized SPARQL algebra into an explicit DAG of
// physical operators. Each node carries its site/strategy decisions
// (PrimitiveStrategy, JoinSitePolicy, overlap-aware chain ends), so a plan
// can be rendered, diffed and executed by the event-driven scheduler in
// dqp/executor.
//
// Two granularities exist on purpose:
//   - *static* operators, compiled here, mirror the algebra one-to-one
//     (IndexLookup, ProviderScan, Join, LeftJoin, Union, Filter, Ship,
//     PostProcess);
//   - *dynamic* tasks (ChainHop, per-provider scatter legs, DESCRIBE
//     expansion) are spawned by the executor at fire time, because chain
//     membership and join order depend on runtime index lookups. The kinds
//     still live in this enum so traces and renderings share one vocabulary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "optimizer/planner.hpp"
#include "overlay/location_cache.hpp"
#include "sparql/algebra.hpp"
#include "sparql/ast.hpp"

namespace ahsw::dqp {

/// Recovery knobs for sub-query dispatch under churn. With the defaults
/// every knob is off: each dead provider is given up on after its first
/// timeout.
///
/// A dead provider costs one failure-detection timeout per contact. With
/// retries enabled, the dispatcher re-contacts the *same* provider (the
/// same scatter leg or chain position) after a deterministic backoff, up to
/// `max_retries` more times, before giving up on it; when every provider of
/// the scan's row was given up on and `relookup` is set, it falls back to
/// the paper's lazy repair: one fresh index lookup, then one more pass over
/// whatever the repaired row returns. Every retry is charged through the
/// normal traffic categories and wrapped in a kRetry span.
struct RetryPolicy {
  int max_retries = 0;            // extra contacts per provider after the 1st
  double backoff_base_ms = 8.0;   // wait before the first retry
  double backoff_growth = 2.0;    // multiplier per further attempt
  bool relookup = false;          // lazy repair + one re-lookup on exhaustion

  [[nodiscard]] bool enabled() const noexcept { return max_retries > 0; }
  /// Deterministic backoff before retry number `attempt` (1-based).
  [[nodiscard]] double backoff_ms(int attempt) const noexcept {
    double wait = backoff_base_ms;
    for (int i = 1; i < attempt; ++i) wait *= backoff_growth;
    return wait;
  }
};

/// Plan-selection knobs (the paper's optimization alternatives).
struct ExecutionPolicy {
  optimizer::PrimitiveStrategy primitive =
      optimizer::PrimitiveStrategy::kFrequencyChain;
  optimizer::JoinSitePolicy join_site = optimizer::JoinSitePolicy::kMoveSmall;
  bool push_filters = true;          // Sect. IV-G rewrite
  bool frequency_join_order = true;  // IV-D: order AND patterns by frequency
  bool overlap_aware_sites = true;   // IV-D/IV-F: end chains at shared nodes

  /// Adaptive per-pattern strategy selection (the paper's Sect. V future
  /// work: plans under a mixture of traffic and response-time objectives).
  /// When set, `primitive` is ignored for index-served patterns and the
  /// strategy with the lowest weighted estimated cost is chosen from the
  /// location-table frequencies.
  bool adaptive = false;
  optimizer::ObjectiveWeights objectives;

  /// Sub-query retry/failover under churn (defaults off).
  RetryPolicy retry;

  /// Initiator-side location-row caching (disabled by default). A cache
  /// hit serves the provider row locally — zero `index` traffic, zero ring
  /// hops; a dead-provider give-up invalidates the row, composing with
  /// `retry`. See docs/caching.md.
  overlay::CacheConfig cache;
};

using OpId = std::uint32_t;
inline constexpr OpId kNoOp = 0xffffffffu;

enum class PhysOpKind : std::uint8_t {
  kConst,        // empty BGP: yields the single empty solution at t0
  kIndexLookup,  // resolve one triple pattern through the two-level index
  kProviderScan, // evaluate one pattern at its providers (strategy-driven)
  kChainHop,     // dynamic: one provider visit of a chain
  kShip,         // move a solution set between sites
  kJoin,
  kLeftJoin,
  kUnion,
  kFilter,
  kPostProcess,  // final modifiers / DESCRIBE expansion at the initiator
};

/// One node of the physical plan DAG.
///
/// `inputs` are data dependencies in operand order (left before right).
/// `preferred_end_from` is a *control* dependency: the scan may not fire
/// until that operator finished, because its output site is this chain's
/// preferred end (overlap-aware site selection). Control deps affect fire
/// order, never simulated start times: the value contract is that every
/// subtree of a query starts at the same logical t=0, so a scan's costs do
/// not depend on when its end hint became known.
struct PhysicalOp {
  OpId id = kNoOp;
  PhysOpKind kind = PhysOpKind::kConst;
  std::vector<OpId> inputs;
  OpId preferred_end_from = kNoOp;

  /// Sequencing-only dependencies. The repair-order contract: binary
  /// operands run strictly left-then-right, so lazy index repairs triggered
  /// by the left subtree are visible to the right subtree's lookups. The
  /// compiler enforces it by making every *source* op (lookup/const) of a
  /// right subtree wait for the left subtree's root. Like
  /// `preferred_end_from`, control deps gate firing, not simulated time.
  std::vector<OpId> control;

  // kIndexLookup and single-pattern kProviderScan:
  sparql::BgpPattern pattern;
  OpId lookup = kNoOp;  // the standalone scan's own lookup op

  // Multi-pattern BGP: the conjunction becomes one scan per join *slot*.
  // The pattern each slot runs is picked at fire time from the runtime join
  // order (frequency-driven); slot 0 owns the lookups and the group state.
  int slot = -1;                    // -1 = standalone single-pattern scan
  OpId group = kNoOp;               // slot-0 scan of this BGP
  int group_size = 0;               // number of patterns in the BGP
  std::vector<OpId> group_lookups;  // slot 0 only: all lookups of the BGP

  // kFilter condition / kLeftJoin condition (null means `true`):
  sparql::ExprPtr expr;
};

/// A compiled query plan: `ops` in topological order (inputs precede
/// users), ending in result ship + post-processing at the initiator.
struct PhysicalPlan {
  ExecutionPolicy policy;
  sparql::QueryForm form = sparql::QueryForm::kSelect;
  std::vector<PhysicalOp> ops;
  OpId root = kNoOp;  // operator producing the final pattern solutions
  OpId ship = kNoOp;  // result ship to the initiator
  OpId post = kNoOp;  // post-processing (the plan's sink)

  /// EXPLAIN rendering: one line per operator, children indented beneath
  /// their consumer, shared nodes printed once and referenced as `^#id`.
  [[nodiscard]] std::vector<std::string> to_lines() const;
};

/// Compile the optimized algebra into a physical plan. `a` must be the
/// *pattern* part (translate_pattern + filter pushing), not the full
/// modifier stack — post-processing is always the plan's sink op.
[[nodiscard]] PhysicalPlan compile_physical_plan(const sparql::Algebra& a,
                                                 const ExecutionPolicy& policy,
                                                 sparql::QueryForm form);

/// Wire size of a shipped sub-query: the pattern, any pushed filter, and
/// plan metadata (chain list, return address).
[[nodiscard]] std::size_t subquery_wire_bytes(const sparql::BgpPattern& p);

}  // namespace ahsw::dqp
