// Deterministic parallel batch driver (docs/execution_engine.md, "Parallel
// driver").
//
// Splits a batch into per-worker shards by query id (qid % workers), runs
// each shard through its own DagExecutor against a *cloned* overlay + network
// on a worker thread, then merges on the master: per-query results/reports
// slot back by id, and every shared-overlay mutation the shards performed
// (cache lookups/inserts/invalidations, lease subscriptions, lazy
// dead-provider repairs) is replayed onto the master overlay in the serial
// driver's global (time, query, task) order — interleaved with the master's
// injected fault events under net::kInjectionQueryId. Parallelism changes
// wall-clock time only, never simulated time: every SimTime in the merged
// result is computed by the same formulas the serial driver uses.
//
// Traced batches: each worker records its shard's spans into a private
// obs::QueryTrace bound to the shard's cloned network; the master grafts
// the per-query subtrees onto the caller's trace in query-id order
// (QueryTrace::adopt_subtree), so the merged forest, every EXPLAIN tree and
// every per-span traffic counter are byte-identical to the serial driver's.
// Master-bound injections replay with the caller's tracers attached, so
// their charges land unattributed exactly as in a serial run.
//
// Byte-identity contract: with workers = 1 the processor runs today's serial
// scheduler (this file is never entered). With workers > 1 the merged output
// is byte-identical to serial whenever the partitioned queries are
// independent — no cross-shard coupling through a shared initiator cache or
// through lazy repairs racing lookups of the same row key. The A/B tests in
// tests/dqp/parallel_batch_test.cpp pin this for workers in {2, 4, 8},
// traced and untraced; docs/execution_engine.md states the conditions.
#pragma once

#include <string>

#include "dqp/processor.hpp"

namespace ahsw::dqp {

/// Whether `execute_batch` may take the parallel path: workers > 1, at
/// least two queries to partition, no service model (per-node contention
/// couples shards), and injections only when an `injection_factory` can
/// rebuild them against each worker's clone. Traced batches are eligible:
/// workers record into private traces the master merges. When ineligible
/// and `reason` is non-null, it receives the first rejected condition
/// (the processor surfaces it in the batch's plan notes).
[[nodiscard]] bool parallel_batch_eligible(const BatchOptions& opts,
                                           std::size_t batch_size,
                                           std::string* reason =
                                               nullptr) noexcept;

/// Run `batch` with `opts.workers` worker threads. Precondition:
/// `parallel_batch_eligible(...)`. The master overlay/network end the call
/// in the same state and with the same traffic totals the serial driver
/// would have produced; with a non-null `trace`, the merged span forest is
/// the serial one too (see the byte-identity contract above).
[[nodiscard]] BatchResult run_parallel_batch(
    overlay::HybridOverlay& overlay, const ExecutionPolicy& policy,
    const std::vector<BatchQuery>& batch, const BatchOptions& opts,
    obs::QueryTrace* trace = nullptr);

}  // namespace ahsw::dqp
