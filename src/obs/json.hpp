// Machine-readable exporter: per-experiment benchmark results as JSON
// (hand-rolled writer — the project uses no JSON library, and the schema is
// small and flat).
//
// Benchmarks record one BenchRecord per measured query (or per averaged
// batch) into the process-wide BenchSink; the sink writes
// `BENCH_<experiment>.json` on process exit. The schema is documented in
// docs/observability.md; per-phase byte totals in a record sum to the
// record's aggregate byte count, because every charged message lands in
// exactly one span.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/trace.hpp"

namespace ahsw::obs {

/// Aggregate cost per phase (span kind), self counters summed over all
/// spans of that kind. Only kinds with at least one span appear.
struct PhaseCost {
  std::string phase;
  std::uint64_t spans = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t timeouts = 0;
};
[[nodiscard]] std::vector<PhaseCost> phase_rollup(const QueryTrace& trace);

/// One experiment data point: sweep-point name, aggregate traffic, response
/// time, and (when the execution was traced) the per-phase breakdown.
struct BenchRecord {
  std::string bench;  // e.g. "primitive/basic/providers=3/skew=0.5"
  net::TrafficStats traffic;
  double response_ms = 0;
  std::uint64_t queries = 1;  // >1 when traffic/response are batch means
  std::vector<PhaseCost> phases;
  /// Experiment-specific named metrics (e.g. the fault harness's
  /// availability numbers: success_rate, retries_per_query,
  /// convergence_ms). Emitted as an "extra" object when non-empty.
  std::map<std::string, double> extra;
};

/// Process-wide collector for BENCH_*.json. Records are keyed by their
/// sweep-point name (last write wins — the simulation is deterministic, so
/// repeated benchmark iterations produce identical records). The file is
/// written when the sink is destroyed at process exit, or on flush().
class BenchSink {
 public:
  static BenchSink& instance();
  ~BenchSink();
  BenchSink(const BenchSink&) = delete;
  BenchSink& operator=(const BenchSink&) = delete;

  void record(BenchRecord r);
  /// The output path is BENCH_<experiment>.json in the working directory,
  /// the experiment derived from the binary name with its "bench_" prefix
  /// stripped; env AHSW_BENCH_JSON overrides it.
  void write(std::ostream& os) const;
  void flush();

 private:
  BenchSink() = default;

  std::vector<std::string> order_;
  std::map<std::string, BenchRecord> records_;
};

}  // namespace ahsw::obs
