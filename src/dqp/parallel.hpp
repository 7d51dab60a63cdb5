// Deterministic parallel batch driver (docs/execution_engine.md, "Parallel
// driver").
//
// Splits a batch into per-worker shards by initiator (each distinct
// initiator takes a shard, round robin in order of first appearance), runs
// each shard through its own DagExecutor against a *cloned* overlay +
// network on a worker thread, then merges on the master: per-query
// results/reports slot back by id, and every shared-overlay mutation the
// shards performed (cache lookups/inserts/invalidations, lease
// subscriptions, lazy dead-provider repairs) is replayed onto the master
// overlay in the serial driver's global (time, query, task) order —
// interleaved with the master's injected fault events under
// net::kInjectionQueryId. Parallelism changes wall-clock time only, never
// simulated time: every SimTime in the merged result is computed by the
// same formulas the serial driver uses.
//
// Traced batches: each worker records its shard's spans into a private
// obs::QueryTrace bound to the shard's cloned network; the master grafts
// the per-query subtrees onto the caller's trace in query-id order
// (QueryTrace::adopt_subtree), so the merged forest, every EXPLAIN tree and
// every per-span traffic counter are byte-identical to the serial driver's.
// Master-bound injections replay with the caller's tracers attached, so
// their charges land unattributed exactly as in a serial run.
//
// Serial equivalence, for every batch: with workers = 1 the processor runs
// the serial scheduler (this file is never entered). With workers > 1,
// sharding by initiator keeps each location cache in one shard; the one
// remaining coupling is a lazy dead-provider repair in one shard of a row
// key another shard touches. The driver checks for it after the join and,
// before touching the master, hands such a batch back to the serial
// scheduler. tests/dqp/parallel_differential_test.cpp checks the result
// against the serial driver on seeded unconstrained batches at workers in
// {2, 4, 8}.
#pragma once

#include <optional>
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
/// `parallel_batch_eligible(...)`. On success the master overlay/network end
/// the call in the same state and with the same traffic totals the serial
/// driver would have produced; with a non-null `trace`, the merged span
/// forest is the serial one too. Returns std::nullopt, with the master
/// untouched and the cause in `reason` (if non-null), when the batch has
/// one initiator or its shards are coupled; the caller then runs it
/// serially.
[[nodiscard]] std::optional<BatchResult> run_parallel_batch(
    overlay::HybridOverlay& overlay, const ExecutionPolicy& policy,
    const std::vector<BatchQuery>& batch, const BatchOptions& opts,
    obs::QueryTrace* trace = nullptr, std::string* reason = nullptr);

}  // namespace ahsw::dqp
