// Shared declarations of the repository benchmark (see ../README.md).
//
// The benchmark drives the system only through its public API: it builds a
// workload::Testbed, publishes generated data with share_triples, runs
// queries through DistributedQueryProcessor and the fault harness, and
// checks every answer. Host time is measured here, around those calls;
// nothing under src/ is instrumented for it.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dqp/processor.hpp"
#include "net/network.hpp"
#include "overlay/overlay.hpp"
#include "sparql/eval.hpp"

namespace perfbench {

namespace dqp = ahsw::dqp;
namespace net = ahsw::net;
namespace overlay = ahsw::overlay;
namespace sparql = ahsw::sparql;

/// Host time is CPU time, not wall time. On a shared machine, the time a
/// process spends descheduled is not the program's cost, and a wall clock
/// folds it in. One read is a system call (a few hundred ns on a VM).
[[nodiscard]] inline double cpu_now(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The calling thread's CPU clock: every timed call runs on the calling
/// thread, except the parallel batch driver's workers (see workloads.cpp).
struct Clock {
  using time_point = double;
  static double now() { return cpu_now(CLOCK_THREAD_CPUTIME_ID); }
};

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return Clock::now() - t0;
}

[[nodiscard]] inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Workload { kMixedBulk, kMixedParallel, kPointZipf, kChurnRw };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kMixedBulk, Workload::kMixedParallel, Workload::kPointZipf,
    Workload::kChurnRw};

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(Workload w);

/// One reported number. `note` carries what a bare value cannot: sample
/// counts behind percentiles, the base of a ratio, or why a layer is idle.
struct Metric {
  double value = 0;
  std::string unit;
  std::string note;
};
using Metrics = std::map<std::string, Metric>;

void set_metric(Metrics& m, const std::string& name, double value,
                std::string unit, std::string note = {});

struct RunConfig {
  Workload workload = Workload::kMixedBulk;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test sizes: a few dozen nodes and queries instead of the measured
  /// sizes, so every workload runs in well under a second.
  bool tiny = false;
};

struct RunResult {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few diagnostics
  /// Measurement caveats that are not failures (e.g. a replay whose stage
  /// times exceed the traced wall they are meant to divide up).
  std::vector<std::string> flags;
  Metrics metrics;
  /// FNV-1a digest of the generated inputs (data, queries, fault schedules,
  /// writes), so the self-test can tell that another seed changed them.
  std::uint64_t input_digest = 0;

  void fail(std::string why);
};

/// Run one workload end to end: set-up, the measured phase, the answer
/// checks and, with `cfg.trace`, the traced re-run and the layer replay.
[[nodiscard]] RunResult run_workload(const RunConfig& cfg);

// -- answer checking (shared with the self-test) -----------------------------

/// The answer a check compares: ASK answer, or the distinct rows in
/// canonical order (distributed execution merges with set semantics).
[[nodiscard]] bool same_answer(const sparql::QueryResult& got,
                               const sparql::QueryResult& want);

/// The first field in which a parallel run's query differs from the serial
/// run of the same input (rows, ASK answer, traffic, response time, lookup
/// counters), or an empty string when they agree.
[[nodiscard]] std::string serial_divergence(
    const sparql::QueryResult& par, const dqp::ExecutionReport& par_rep,
    const sparql::QueryResult& ser, const dqp::ExecutionReport& ser_rep);

// -- layer replay -----------------------------------------------------------

struct ReplayQuery {
  std::string text;
  net::NodeAddress initiator = net::kNoAddress;
};

/// Re-run `queries` stage by stage through the public functions of each
/// module, on a clone of `master` bound to a scratch network, and add the
/// per-stage host times and counts to `out.metrics` (sparql.*, optimizer.*,
/// dqp.compile_us / residual_us, chord.route_us / hops, overlay.locate_us /
/// providers / clone_ms, rdf.*, net.wire_size_us / wire_ratio).
/// `traced_us_per_query` is the traced run's host time per query; the
/// residual is that minus the replayed stage times. A replay that moves
/// `master`'s network counters is recorded as a failure.
void replay_layers(const overlay::HybridOverlay& master,
                   const std::vector<ReplayQuery>& queries,
                   const dqp::ExecutionPolicy& policy,
                   double traced_us_per_query, RunResult& out);

/// The benchmark's own tests: the answer checker rejects corrupted answers,
/// and each workload is deterministic in its seed. Returns the number of
/// failed checks.
[[nodiscard]] int run_selftest();

}  // namespace perfbench
