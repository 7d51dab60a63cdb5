// Distributed SPARQL query processing (Sect. IV) — the paper's core
// contribution.
//
// Implements the Fig. 3 workflow end to end on top of the hybrid overlay:
//
//   query text --Parse--> AST --Transform--> SPARQL algebra
//     --Global optimization--> (filter pushing, join ordering, chain
//                               ordering, join-site selection)
//     --Sub-query shipping--> storage nodes evaluate locally
//     --In-network merging--> intermediate results travel provider chains
//     --Post-processing-----> modifiers applied at the query initiator.
//
// Strategy knobs correspond one-to-one to the processing variants the paper
// describes: Basic / Chain / FrequencyChain for primitive queries
// (Sect. IV-C), overlap-aware conjunction evaluation (IV-D), move-small /
// query-site / third-site OPTIONAL joins (IV-E), shared-provider union
// sites (IV-F) and filter pushing (IV-G). Benchmarks A/B these knobs; that
// is exactly the experimental study the paper defers to future work.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "dqp/physical_plan.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "optimizer/planner.hpp"
#include "optimizer/rewriter.hpp"
#include "overlay/overlay.hpp"
#include "sparql/algebra.hpp"
#include "sparql/eval.hpp"

namespace ahsw::dqp {

// ExecutionPolicy lives in dqp/physical_plan.hpp (the plan compiler
// consumes it); this header re-exports it for callers.

/// Per-node queueing model for concurrent batches: when a node is serving
/// one query's work and another query's work arrives, the newcomer waits
/// until the node frees up, then occupies it for `service_ms`. Zero (the
/// default) disables contention entirely: a query never waits on another
/// query's work, so a batch of one costs exactly what `execute` reports.
struct ServiceModel {
  double service_ms = 0.0;
};

/// One entry of a concurrent batch: a parsed query and the node issuing it.
struct BatchQuery {
  sparql::Query query;
  net::NodeAddress initiator = net::kNoAddress;
};

/// One externally injected event (fault, recovery, repair) merged into the
/// batch scheduler's event queue. The executor pops it in (time, query,
/// task) order under the reserved net::kInjectionQueryId, so injected
/// events interleave deterministically with query tasks: at equal sim time
/// they apply after the tasks stamped at that time. The callback receives
/// the event's sim time and may mutate the overlay/network (the fault
/// harness in src/fault builds these from a FaultSchedule). The query layer
/// itself stays fault-agnostic.
struct InjectedEvent {
  net::SimTime at = 0;
  std::string label;  // for diagnostics; not interpreted
  std::function<void(net::SimTime)> apply;
};

struct BatchOptions {
  ServiceModel service;
  /// Prefix every root span label with "q<id> " so interleaved traces stay
  /// attributable (shell `trace` output keys on it).
  bool label_query_ids = true;
  /// Events to merge into the batch's event queue, in any order (the queue
  /// sorts). Applied even when stamped after the last query task finishes.
  std::vector<InjectedEvent> injections;
  /// Worker threads for the parallel batch driver (docs/execution_engine.md
  /// "Parallel driver"). 1 (the default) runs the serial scheduler. With
  /// workers > 1 the batch is partitioned by initiator (one shard per
  /// distinct initiator, round robin, at most `workers` shards), each shard
  /// runs on a cloned overlay, and shared-state mutations are replayed on
  /// the master in (time, query, task) order. Parallelism changes
  /// wall-clock time only, never simulated time; traced batches record
  /// per-worker span forests the master grafts back in query order. The
  /// batch runs serially instead when the service model is on (cross-query
  /// contention couples shards), when `injections` is non-empty without an
  /// `injection_factory`, when it has one initiator, or when a
  /// dead-provider report in one shard meets a row key another shard
  /// touches; the reason is surfaced in every report's plan notes.
  int workers = 1;
  /// Rebuilds the injected events against a worker's cloned overlay, so
  /// every shard observes the same fault schedule on its own world. The
  /// `injections` above stay bound to the master (the merge step replays
  /// them there). Required for parallel execution of faulted batches; the
  /// fault harness sets both sides from one FaultSchedule.
  std::function<std::vector<InjectedEvent>(overlay::HybridOverlay&)>
      injection_factory;
};

/// What one query execution cost. Captures the paper's two optimization
/// criteria (total inter-site transmission; response time) plus plan
/// diagnostics.
struct ExecutionReport {
  net::TrafficStats traffic;        // messages/bytes charged by this query
  net::SimTime response_time = 0;   // initiator-observed completion time
  int index_lookups = 0;            // two-level index consultations
  int ring_hops = 0;                // Chord routing hops across lookups
  int providers_contacted = 0;      // storage nodes that ran sub-queries
  int dead_providers_skipped = 0;   // providers given up on after retries
  int retries = 0;                  // re-contacts after a dead-provider timeout
  int relookups = 0;                // lazy-repair re-lookups after exhaustion
  overlay::CacheStats cache;        // location-row cache activity
  bool complete = true;             // false if index rows were unreachable
  std::vector<std::string> plan_notes;  // human-readable plan decisions
};

/// Outcome of `execute_batch`: one result + report per query (batch order)
/// and the batch-level completion time. When a trace is attached,
/// `root_spans[i]` is query i's kQuery root span in that trace.
struct BatchResult {
  std::vector<sparql::QueryResult> results;
  std::vector<ExecutionReport> reports;
  std::vector<obs::SpanId> root_spans;
  net::SimTime makespan = 0;
  /// Parallel driver only (empty for serial runs): worker w's shard-local
  /// makespan (max response_time over its queries), for per-worker
  /// attribution in the E14 sweep. The batch makespan is their max.
  std::vector<net::SimTime> worker_makespans;
};

/// The distributed query processor. One instance per system; `execute` may
/// be called from any storage or index node address (the query initiator).
class DistributedQueryProcessor {
 public:
  explicit DistributedQueryProcessor(overlay::HybridOverlay& ov,
                                     ExecutionPolicy policy = {})
      : overlay_(&ov), policy_(policy) {}

  /// Parse, optimize and execute `query_text` as issued by `initiator`.
  /// The returned result is what the initiator hands its application; the
  /// report (if given) is filled with this query's cost.
  [[nodiscard]] sparql::QueryResult execute(std::string_view query_text,
                                            net::NodeAddress initiator,
                                            ExecutionReport* report = nullptr);

  /// Same, for an already parsed query.
  [[nodiscard]] sparql::QueryResult execute(const sparql::Query& q,
                                            net::NodeAddress initiator,
                                            ExecutionReport* report = nullptr);

  /// Execute N queries concurrently through one deterministic event
  /// scheduler. Operators of different queries interleave in (time, query,
  /// task) order; with `opts.service.service_ms > 0` a per-node service
  /// model charges queueing delay where their work overlaps. Deterministic:
  /// the same batch on the same system yields byte-identical reports +
  /// traces.
  [[nodiscard]] BatchResult execute_batch(const std::vector<BatchQuery>& batch,
                                          const BatchOptions& opts = {});

  /// Convenience overload: parses `query_texts[i]` and runs it from
  /// `initiators[i]` (sizes must match).
  [[nodiscard]] BatchResult execute_batch(
      const std::vector<std::string>& query_texts,
      const std::vector<net::NodeAddress>& initiators,
      const BatchOptions& opts = {});

  [[nodiscard]] ExecutionPolicy& policy() noexcept { return policy_; }
  [[nodiscard]] const ExecutionPolicy& policy() const noexcept {
    return policy_;
  }

  /// The optimized algebra `execute` would run for `query_text` (the
  /// Transform + Global-optimization stages only; used by tests/examples to
  /// inspect plans).
  [[nodiscard]] sparql::AlgebraPtr plan(std::string_view query_text) const;

  /// Attach a per-query trace: binds it to the overlay's network (messages
  /// and timeouts land in the active span) and forwards it to the overlay
  /// and ring so their steps open nested spans. Each `execute` then records
  /// one kQuery span tree and appends its EXPLAIN rendering to the report's
  /// plan_notes. Passing nullptr detaches (unbinding the previous trace).
  /// The processor never owns the trace.
  void set_trace(obs::QueryTrace* trace) {
    if (trace_ == trace) return;
    if (trace_ != nullptr) trace_->unbind();
    trace_ = trace;
    overlay_->set_trace(trace);
    if (trace_ != nullptr) trace_->bind(overlay_->network());
  }
  [[nodiscard]] obs::QueryTrace* trace() const noexcept { return trace_; }

 private:
  overlay::HybridOverlay* overlay_;
  ExecutionPolicy policy_;
  obs::QueryTrace* trace_ = nullptr;
};

}  // namespace ahsw::dqp
