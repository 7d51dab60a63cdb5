// Shared helpers for the experiment harness.
//
// The benchmarks report *simulated* metrics — total inter-site traffic and
// logical response time, the paper's two optimization criteria — through
// benchmark counters; wall-clock time of the simulation itself is
// irrelevant except in bench_local_engine. Every benchmark is deterministic
// (fixed seeds), so the emitted series are exactly reproducible.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "check/audit.hpp"
#include "common/audit_switch.hpp"
#include "dqp/processor.hpp"
#include "obs/json.hpp"
#include "workload/queries.hpp"
#include "workload/testbed.hpp"

namespace ahsw::benchutil {

/// Process-wide audit switch: on when bench_main saw `--audit` or the
/// AHSW_AUDIT environment variable asks for audits.
inline bool& audit_flag() {
  static bool flag = common::audit_enabled();
  return flag;
}
inline void set_audit(bool on) { audit_flag() = on; }

/// Process-wide batch-worker count: `--workers N` in bench_main (or the
/// AHSW_WORKERS environment variable). Batch benchmarks pass it through to
/// BatchOptions::workers; the parallel driver's byte-identity guarantee
/// means every simulated series stays identical, only wall-clock moves.
inline int& workers_flag() {
  static int workers = []() {
    const char* env = std::getenv("AHSW_WORKERS");
    const int n = env != nullptr ? std::atoi(env) : 1;
    return n > 1 ? n : 1;
  }();
  return workers;
}
inline void set_workers(int n) { workers_flag() = n > 1 ? n : 1; }
inline int batch_workers() { return workers_flag(); }

/// Run the invariant auditor over a benchmark system when auditing is on.
/// Corruption aborts the process: a benchmark series must never publish
/// numbers measured against a corrupted system.
inline void maybe_audit(const overlay::HybridOverlay& overlay,
                        const std::string& where,
                        const check::AuditOptions& opt) {
  if (!audit_flag()) return;
  check::AuditReport rep = check::audit(overlay, opt);
  if (!rep.clean()) {
    std::cerr << "[audit] corruption at " << where << ":\n"
              << rep.to_string() << "\n";
    std::exit(1);
  }
}
inline void maybe_audit(const overlay::HybridOverlay& overlay,
                        const std::string& where, bool churned = false) {
  check::AuditOptions opt;
  opt.churned = churned;
  maybe_audit(overlay, where, opt);
}
inline void maybe_audit(workload::Testbed& bed, const std::string& where,
                        bool churned = false) {
  maybe_audit(bed.overlay(), where, churned);
}

/// Publish one execution report's metrics as benchmark counters.
inline void report_counters(benchmark::State& state,
                            const dqp::ExecutionReport& rep) {
  state.counters["messages"] = static_cast<double>(rep.traffic.messages);
  state.counters["bytes"] = static_cast<double>(rep.traffic.bytes);
  state.counters["data_bytes"] = static_cast<double>(
      rep.traffic.bytes_by[static_cast<std::size_t>(net::Category::kData)] +
      rep.traffic
          .bytes_by[static_cast<std::size_t>(net::Category::kResult)]);
  state.counters["resp_ms"] = rep.response_time;
  state.counters["ring_hops"] = static_cast<double>(rep.ring_hops);
  state.counters["providers"] = static_cast<double>(rep.providers_contacted);
}

/// Aggregate counters over a batch of reports (means).
inline void report_mean_counters(benchmark::State& state,
                                 const std::vector<dqp::ExecutionReport>& reps) {
  double msgs = 0, bytes = 0, resp = 0, hops = 0;
  for (const dqp::ExecutionReport& r : reps) {
    msgs += static_cast<double>(r.traffic.messages);
    bytes += static_cast<double>(r.traffic.bytes);
    resp += r.response_time;
    hops += static_cast<double>(r.ring_hops);
  }
  auto n = static_cast<double>(reps.empty() ? 1 : reps.size());
  state.counters["msgs_per_q"] = msgs / n;
  state.counters["bytes_per_q"] = bytes / n;
  state.counters["resp_ms"] = resp / n;
  state.counters["hops_per_q"] = hops / n;
}

/// Same as report_counters, plus one BenchRecord into the process-wide
/// BenchSink (written as BENCH_<experiment>.json on exit). `record_name`
/// identifies the sweep point — benchmark State carries no name accessor in
/// the bundled library version, so call sites pass it explicitly. With a
/// trace, the record carries the per-phase cost rollup.
inline void record_json(benchmark::State& state, std::string record_name,
                        const dqp::ExecutionReport& rep,
                        const obs::QueryTrace* trace = nullptr) {
  report_counters(state, rep);
  obs::BenchRecord r;
  r.bench = std::move(record_name);
  r.traffic = rep.traffic;
  r.response_ms = rep.response_time;
  if (trace != nullptr) r.phases = obs::phase_rollup(*trace);
  obs::BenchSink::instance().record(std::move(r));
}

/// Same as report_mean_counters, plus one aggregate BenchRecord (traffic
/// summed over the batch, response time averaged) into the BenchSink.
inline void record_mean_json(benchmark::State& state, std::string record_name,
                             const std::vector<dqp::ExecutionReport>& reps,
                             const obs::QueryTrace* trace = nullptr) {
  report_mean_counters(state, reps);
  obs::BenchRecord r;
  r.bench = std::move(record_name);
  r.queries = reps.empty() ? 1 : reps.size();
  double resp = 0;
  for (const dqp::ExecutionReport& rep : reps) {
    r.traffic.accumulate(rep.traffic);
    resp += rep.response_time;
  }
  r.response_ms = resp / static_cast<double>(r.queries);
  if (trace != nullptr) r.phases = obs::phase_rollup(*trace);
  obs::BenchSink::instance().record(std::move(r));
}

/// record_mean_json plus arbitrary extra metrics carried into the record's
/// "extra" JSON object (e.g. fault::AvailabilityReport::to_extra()).
inline void record_mean_extra_json(
    benchmark::State& state, std::string record_name,
    const std::vector<dqp::ExecutionReport>& reps,
    std::map<std::string, double> extra,
    const obs::QueryTrace* trace = nullptr) {
  report_mean_counters(state, reps);
  obs::BenchRecord r;
  r.bench = std::move(record_name);
  r.queries = reps.empty() ? 1 : reps.size();
  double resp = 0;
  for (const dqp::ExecutionReport& rep : reps) {
    r.traffic.accumulate(rep.traffic);
    resp += rep.response_time;
  }
  r.response_ms = resp / static_cast<double>(r.queries);
  if (trace != nullptr) r.phases = obs::phase_rollup(*trace);
  r.extra = std::move(extra);
  obs::BenchSink::instance().record(std::move(r));
}

/// BenchRecord from a raw traffic delta, for benchmarks that measure
/// overlay maintenance (publish, join, repair) rather than query execution
/// and so have no ExecutionReport.
inline void record_raw_json(std::string record_name,
                            const net::TrafficStats& traffic,
                            double response_ms = 0.0,
                            std::uint64_t queries = 1) {
  obs::BenchRecord r;
  r.bench = std::move(record_name);
  r.traffic = traffic;
  r.response_ms = response_ms;
  r.queries = queries;
  obs::BenchSink::instance().record(std::move(r));
}

}  // namespace ahsw::benchutil
