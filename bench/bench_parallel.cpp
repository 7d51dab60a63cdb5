// E14-P — the deterministic parallel batch driver at bulk scale: a 10k-query
// mixed workload against a 1000-node index ring, swept over worker counts
// {1, 2, 4, 8}.
//
// The driver's contract (docs/execution_engine.md "Parallel driver") is that
// parallelism changes wall-clock time only, never simulated time: every
// simulated observable — per-query results, reports, network-wide traffic,
// makespan — must be byte-identical to the workers=1 run. This benchmark
// *enforces* that (divergence aborts, like the cache A/B in
// bench_throughput) and reports the wall-clock speedup plus the per-worker
// makespan attribution that shows how the initiator partition balances the
// shards (with one initiator per storage node in round robin, query qid
// runs on worker qid % workers). Under --audit, every sweep point runs the
// converged invariant audit (I1-I7) over the master overlay after the
// merge.
// ahsw-lint: allow(D1) E14-P measures the *wall-clock* speedup of the
// parallel driver by design; no wall-clock value feeds the simulation —
// byte-identity vs the serial run is enforced right next to the reads.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "sparql/ast.hpp"

namespace {

using namespace ahsw;

constexpr int kQueries = 10000;
constexpr std::size_t kRingNodes = 1000;
// Divisible by every swept worker count, so the driver's round-robin
// initiator shards hold equally many initiators and queries. Kept modest
// so per-query work (provider scans over every storage node for the
// full-scan bodies) doesn't dwarf the scheduler + driver costs the sweep
// measures.
constexpr std::size_t kStorageNodes = 16;

workload::TestbedConfig make_config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = kRingNodes;
  cfg.storage_nodes = kStorageNodes;
  cfg.foaf.persons = 100;
  cfg.foaf.seed = 95;
  cfg.partition.overlap = 0.25;
  cfg.partition.seed = 96;
  cfg.overlay.seed = 97;
  return cfg;
}

constexpr std::string_view kPrologue =
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n";

/// `queries` queries of the E14 plan-class mix, parsed once per distinct
/// body and fanned out round-robin over the first `initiators` storage
/// nodes.
std::vector<dqp::BatchQuery> make_batch(const workload::Testbed& bed,
                                        int queries, std::size_t initiators) {
  const char* bodies[] = {
      "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }",
      "SELECT ?x ?n ?o WHERE { ?x foaf:name ?n . ?x foaf:knows ?o . }",
      "SELECT ?x ?y ?n WHERE { ?x foaf:knows ?y . "
      "OPTIONAL { ?y foaf:nick ?n . } }",
      "SELECT ?x WHERE { { ?x foaf:nick ?n . } UNION "
      "{ ?x foaf:mbox ?m . } }",
      "SELECT ?x ?n WHERE { ?x foaf:name ?n . FILTER regex(?n, \"a\") }",
      "ASK { ?x foaf:knows ?y . }",
      "SELECT ?o WHERE { <http://example.org/people/p1> foaf:knows ?o . }",
      "SELECT DISTINCT ?n WHERE { ?x foaf:name ?n . } ORDER BY ?n LIMIT 5",
  };
  std::vector<sparql::Query> parsed;
  for (const char* b : bodies) {
    parsed.push_back(sparql::parse_query(std::string(kPrologue) + b));
  }
  std::vector<dqp::BatchQuery> out;
  out.reserve(static_cast<std::size_t>(queries));
  for (int i = 0; i < queries; ++i) {
    const auto u = static_cast<std::size_t>(i);
    out.push_back(dqp::BatchQuery{parsed[u % parsed.size()],
                                  bed.storage_addrs()[u % initiators]});
  }
  return out;
}

/// One shared system + batch across the sweep: with caching off and no
/// faults the batch leaves the overlay untouched, so every sweep point
/// starts from the identical state and the 1k-node ring is built once.
struct Fixture {
  workload::Testbed bed;
  std::vector<dqp::BatchQuery> batch;
  Fixture()
      : bed(make_config()),
        batch(make_batch(bed, kQueries, bed.storage_addrs().size())) {}
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// The workers=1 run, kept for the byte-identity check and the speedup
/// denominator (sweep points run in registration order, workers=1 first).
struct Baseline {
  bool ready = false;
  double wall_ms = 0;
  dqp::BatchResult result;
  net::TrafficStats delta;
};

Baseline& baseline() {
  static Baseline b;
  return b;
}

void die(const std::string& what, std::size_t i) {
  std::cerr << "[parallel] workers>1 diverges from serial at query " << i
            << ": " << what << "\n";
  std::exit(1);
}

/// Abort on any simulated-observable divergence from the serial run `base`
/// (its batch traffic in `base_delta`).
void check_identity(const dqp::BatchResult& base,
                    const net::TrafficStats& base_delta,
                    const dqp::BatchResult& r, const net::TrafficStats& delta) {
  if (r.results.size() != base.results.size()) die("result count", 0);
  if (r.makespan != base.makespan) die("makespan", 0);
  for (std::size_t i = 0; i < r.results.size(); ++i) {
    if (r.results[i].solutions.rows() != base.results[i].solutions.rows())
      die("solution rows", i);
    if (r.results[i].ask_answer != base.results[i].ask_answer)
      die("ask answer", i);
    const dqp::ExecutionReport& a = r.reports[i];
    const dqp::ExecutionReport& b = base.reports[i];
    if (a.traffic.messages != b.traffic.messages ||
        a.traffic.bytes != b.traffic.bytes ||
        a.traffic.timeouts != b.traffic.timeouts)
      die("report traffic", i);
    if (a.response_time != b.response_time) die("response time", i);
    if (a.ring_hops != b.ring_hops || a.index_lookups != b.index_lookups)
      die("lookup counters", i);
  }
  if (delta.messages != base_delta.messages ||
      delta.bytes != base_delta.bytes || delta.timeouts != base_delta.timeouts)
    die("network delta", 0);
}

// Arg: worker count.
void BM_ParallelBatch_Bulk(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  Fixture& f = fixture();
  dqp::DistributedQueryProcessor proc(f.bed.overlay());
  dqp::BatchOptions opts;
  opts.workers = workers;

  std::string name = "parallel/q=" + std::to_string(kQueries) +
                     "/ring=" + std::to_string(kRingNodes) +
                     "/workers=" + std::to_string(workers);

  for (auto _ : state) {
    const net::TrafficStats before = f.bed.network().stats();
    // ahsw-lint: allow(D1) wall-clock is the measurand (see file header).
    const auto t0 = std::chrono::steady_clock::now();
    dqp::BatchResult r = proc.execute_batch(f.batch, opts);
    // ahsw-lint: allow(D1) second wall-clock read closing the measurement.
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const net::TrafficStats delta =
        f.bed.network().stats().delta_since(before);

    std::map<std::string, double> extra;
    extra["workers"] = workers;
    extra["wall_ms"] = wall_ms;
    if (workers == 1) {
      Baseline& base = baseline();
      base.ready = true;
      base.wall_ms = wall_ms;
      base.result = r;
      base.delta = delta;
    } else if (baseline().ready) {
      check_identity(baseline().result, baseline().delta, r, delta);
      const double speedup = baseline().wall_ms / wall_ms;
      state.counters["speedup"] = speedup;
      extra["speedup_vs_serial"] = speedup;
      // Per-worker makespan attribution: how evenly the initiator shards
      // spread the simulated work.
      for (std::size_t w = 0; w < r.worker_makespans.size(); ++w) {
        extra["worker" + std::to_string(w) + "_makespan_ms"] =
            r.worker_makespans[w];
      }
    }
    state.counters["wall_ms"] = wall_ms;
    state.counters["makespan_ms"] = r.makespan;
    benchutil::record_mean_extra_json(state, name, r.reports, std::move(extra));

    // Converged invariant audit (I1-I7): the merge must leave the master
    // overlay indistinguishable from one that ran the batch serially.
    check::AuditOptions opt;
    opt.converged = true;
    benchutil::maybe_audit(f.bed.overlay(), name, opt);
  }
}

BENCHMARK(BM_ParallelBatch_Bulk)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// -- traced sweep -----------------------------------------------------------
//
// The lifted traced-batch fallback: workers record private span forests the
// master grafts back in query order, so a traced parallel batch must render
// the *same trace* as a traced serial run. The sweep enforces this on a
// 1k-query prefix (span forests of the full 10k batch would dominate
// memory, not the driver) by digesting every query's span subtree — all
// fields, recursively — and aborting on the first divergent query.

constexpr int kTracedQueries = 1000;

/// FNV-1a over the canonical bytes of a span subtree: kind, label, site,
/// times, every counter (incl. per-category), peers, and children in order.
void digest_span(const obs::QueryTrace& t, obs::SpanId id,
                 std::uint64_t& h) {
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  };
  const obs::Span& s = t.span(id);
  const auto kind = static_cast<std::uint8_t>(s.kind);
  mix(&kind, sizeof kind);
  mix(s.label.data(), s.label.size());
  mix(&s.site, sizeof s.site);
  mix(&s.begin, sizeof s.begin);
  mix(&s.end, sizeof s.end);
  mix(&s.traffic, sizeof s.traffic);  // 19 packed uint64 counters
  for (net::NodeAddress peer : s.peers) mix(&peer, sizeof peer);
  const std::size_t n = s.children.size();
  mix(&n, sizeof n);
  for (obs::SpanId c : s.children) digest_span(t, c, h);
}

[[nodiscard]] std::uint64_t digest_root(const obs::QueryTrace& t,
                                        obs::SpanId root) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  if (root != obs::kNoSpan) digest_span(t, root, h);
  return h;
}

struct TracedBaseline {
  bool ready = false;
  std::vector<std::uint64_t> digests;  // one per query's span subtree
  std::vector<std::vector<std::string>> plan_notes;  // incl. EXPLAIN lines
  net::TrafficStats delta;
};

TracedBaseline& traced_baseline() {
  static TracedBaseline b;
  return b;
}

// Arg: worker count. Registered after the bulk sweep; workers=1 runs first
// and seeds the traced baseline.
void BM_ParallelBatch_Traced(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  Fixture& f = fixture();
  const std::vector<dqp::BatchQuery> batch(
      f.batch.begin(), f.batch.begin() + kTracedQueries);
  dqp::DistributedQueryProcessor proc(f.bed.overlay());
  dqp::BatchOptions opts;
  opts.workers = workers;

  std::string name = "parallel_traced/q=" + std::to_string(kTracedQueries) +
                     "/ring=" + std::to_string(kRingNodes) +
                     "/workers=" + std::to_string(workers);

  for (auto _ : state) {
    obs::QueryTrace trace;
    proc.set_trace(&trace);
    const net::TrafficStats before = f.bed.network().stats();
    // ahsw-lint: allow(D1) wall-clock is the measurand (see file header).
    const auto t0 = std::chrono::steady_clock::now();
    dqp::BatchResult r = proc.execute_batch(batch, opts);
    // ahsw-lint: allow(D1) second wall-clock read closing the measurement.
    const auto t1 = std::chrono::steady_clock::now();
    proc.set_trace(nullptr);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const net::TrafficStats delta =
        f.bed.network().stats().delta_since(before);

    std::vector<std::uint64_t> digests;
    digests.reserve(r.root_spans.size());
    for (obs::SpanId root : r.root_spans) {
      digests.push_back(digest_root(trace, root));
    }

    std::map<std::string, double> extra;
    extra["workers"] = workers;
    extra["wall_ms"] = wall_ms;
    extra["spans"] = static_cast<double>(trace.spans().size());
    TracedBaseline& base = traced_baseline();
    if (workers == 1) {
      base.ready = true;
      base.digests = std::move(digests);
      base.plan_notes.clear();
      for (const dqp::ExecutionReport& rep : r.reports) {
        base.plan_notes.push_back(rep.plan_notes);
      }
      base.delta = delta;
    } else if (base.ready) {
      for (std::size_t i = 0; i < digests.size(); ++i) {
        if (digests[i] != base.digests[i]) die("traced span subtree", i);
        if (r.reports[i].plan_notes != base.plan_notes[i]) {
          die("traced EXPLAIN plan notes", i);
        }
      }
      if (delta.messages != base.delta.messages ||
          delta.bytes != base.delta.bytes ||
          delta.timeouts != base.delta.timeouts) {
        die("traced network delta", 0);
      }
    }
    state.counters["wall_ms"] = wall_ms;
    state.counters["makespan_ms"] = r.makespan;
    benchutil::record_mean_extra_json(state, name, r.reports,
                                      std::move(extra));

    // Converged invariant audit (I1-I7): a traced merge must leave the
    // master overlay exactly as clean as an untraced one.
    check::AuditOptions opt;
    opt.converged = true;
    benchutil::maybe_audit(f.bed.overlay(), name, opt);
  }
}

BENCHMARK(BM_ParallelBatch_Traced)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// -- shared hot initiators --------------------------------------------------
//
// The batch the initiator partition exists for: caching on, and every query
// issued by one of four storage nodes, so each initiator's location cache
// runs hot (at hot threshold 2 its repeated rows are leased) and each of the
// four shards holds one initiator. Every cache action is recorded on a
// worker and replayed on the master, so this is the host cost of the
// StateLog record/replay path. Each iteration builds two identical systems,
// runs the batch serially on one and with four workers on the other, and
// aborts on any divergence. `coupled_reruns` counts batches the driver
// handed back to the serial scheduler; no provider is down, so no
// dead-provider report can couple the shards. Not part of the byte-gated
// `Traced` series.

constexpr int kHotQueries = 2000;
constexpr std::size_t kHotInitiators = 4;
constexpr int kHotWorkers = 4;

struct HotRun {
  dqp::BatchResult result;
  net::TrafficStats delta;
  double wall_ms = 0;
};

HotRun run_hot(workload::Testbed& bed, int workers) {
  dqp::DistributedQueryProcessor proc(bed.overlay());
  proc.policy().cache.enabled = true;
  proc.policy().cache.hot_threshold = 2;
  bed.overlay().configure_caches(proc.policy().cache);
  const std::vector<dqp::BatchQuery> batch =
      make_batch(bed, kHotQueries, kHotInitiators);
  dqp::BatchOptions opts;
  opts.workers = workers;
  HotRun out;
  const net::TrafficStats before = bed.network().stats();
  // ahsw-lint: allow(D1) wall-clock is the measurand (see file header).
  const auto t0 = std::chrono::steady_clock::now();
  out.result = proc.execute_batch(batch, opts);
  // ahsw-lint: allow(D1) second wall-clock read closing the measurement.
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.delta = bed.network().stats().delta_since(before);
  return out;
}

void BM_ParallelBatch_HotInitiators(benchmark::State& state) {
  const std::string name = "parallel_hot/q=" + std::to_string(kHotQueries) +
                           "/initiators=" + std::to_string(kHotInitiators) +
                           "/workers=" + std::to_string(kHotWorkers);
  for (auto _ : state) {
    workload::Testbed serial_bed(make_config());
    workload::Testbed parallel_bed(make_config());
    const HotRun serial = run_hot(serial_bed, 1);
    const HotRun parallel = run_hot(parallel_bed, kHotWorkers);
    check_identity(serial.result, serial.delta, parallel.result,
                   parallel.delta);
    int coupled_reruns = 0;
    for (const std::string& note : parallel.result.reports.front().plan_notes) {
      if (note.find("(coupled: key ") != std::string::npos) ++coupled_reruns;
    }

    std::map<std::string, double> extra;
    extra["workers"] = kHotWorkers;
    extra["shards"] =
        static_cast<double>(parallel.result.worker_makespans.size());
    extra["coupled_reruns"] = coupled_reruns;
    extra["serial_wall_ms"] = serial.wall_ms;
    extra["wall_ms"] = parallel.wall_ms;
    extra["speedup_vs_serial"] = serial.wall_ms / parallel.wall_ms;
    state.counters["wall_ms"] = parallel.wall_ms;
    state.counters["speedup"] = serial.wall_ms / parallel.wall_ms;
    state.counters["coupled_reruns"] = coupled_reruns;
    benchutil::record_mean_extra_json(state, name, parallel.result.reports,
                                      std::move(extra));

    check::AuditOptions opt;
    opt.converged = true;
    benchutil::maybe_audit(parallel_bed.overlay(), name, opt);
  }
}

BENCHMARK(BM_ParallelBatch_HotInitiators)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
