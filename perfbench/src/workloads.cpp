// The four benchmark workloads (see ../README.md for why each exists):
//
//   mixed-bulk      one serial execute_batch of the five paper query classes
//   mixed-parallel  the same inputs through the parallel batch driver
//   point-zipf      closed loop of selective execute() calls, cache on
//   churn-rw        rounds of writes, a faulted read batch, and converge
//
// Every workload has the same shape: a timed set-up (repeated, median
// reported), one measured phase whose work is fixed by --seed and
// --seconds, and answer checks outside the timed regions. With --trace 1
// the measured phase runs twice, untraced and then traced on a fresh
// system, and the layer replay (replay.cpp) runs on a clone of the traced
// system.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "bench.hpp"
#include "check/audit.hpp"
#include "common/rng.hpp"
#include "fault/harness.hpp"
#include "fault/schedule.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sparql/ast.hpp"
#include "workload/generators.hpp"
#include "workload/queries.hpp"
#include "workload/testbed.hpp"

namespace perfbench {

using namespace ahsw;

namespace {

// -- sizes ------------------------------------------------------------------
//
// Work per run is fixed by (--seed, --seconds), never by a clock, so two runs
// with one seed attempt the same operations and produce identical simulated
// metrics. The per-second rates below size that work so the measured phase
// takes roughly --seconds on a 4-core x86 host.

constexpr int kSetupRepeats = 9;         // set-ups per run; setup_s is the median
constexpr double kBulkQueriesPerS = 75;  // mixed-bulk batch size per second
constexpr double kParallelQueriesPerS = 120;
constexpr double kPointCallsPerS = 24000;  // point-zipf execute() calls per second
constexpr std::size_t kPointBlock = 2000;  // point-zipf: calls per throughput sample
constexpr double kChurnRoundsPerS = 18;   // churn-rw rounds per second
constexpr std::size_t kMixBlock = 20;       // mixed: one block holds the mix
constexpr std::size_t kBatchQueries = 160;  // mixed: queries per execute_batch
constexpr std::size_t kProbeQueries = 7 * 23;  // mixed: 23 rounds of kProbeBodies
constexpr std::size_t kReadProbeQueries = 2000;  // churn-rw: read-after-churn probe
constexpr std::size_t kProbeGroup = 20;  // probe calls per host-speed sample
constexpr std::size_t kReplayQueries = 150;  // layer-replay sample
constexpr std::size_t kKeptWriteBatches = 4;  // churn-rw: unshare older ones
constexpr std::size_t kVictimStride = 4;  // > replication factor 3

struct Sizing {
  std::size_t ring = 0;      // index nodes
  std::size_t storage = 0;   // storage nodes
  std::size_t persons = 0;   // FOAF persons (about 8 triples each)
  int replication = 1;
  int workers = 1;
  std::size_t queries = 0;   // batch size / loop calls / reads per round
  std::size_t rounds = 1;    // churn-rw only
  std::size_t writes = 0;    // churn-rw: triples per writer per round
  std::size_t writers = 0;   // churn-rw: writer nodes per round
  std::size_t probe = 0;     // latency-probe calls (0 = the loop itself)
  std::size_t replay = 0;    // layer-replay sample
};

std::size_t per_run(double per_second, double seconds, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(std::llround(per_second * seconds)));
}

Sizing sizing(const RunConfig& c) {
  Sizing z;
  const bool tiny = c.tiny;
  const std::size_t probe = tiny ? 8 : kProbeQueries;
  const std::size_t replay = tiny ? 8 : kReplayQueries;
  switch (c.workload) {
    case Workload::kMixedBulk:
    case Workload::kMixedParallel: {
      z.ring = tiny ? 32 : 1000;
      z.storage = 16;  // divisible by the worker count (partition-independent)
      z.persons = tiny ? 40 : 400;
      const double rate = c.workload == Workload::kMixedBulk
                              ? kBulkQueriesPerS
                              : kParallelQueriesPerS;
      z.queries = tiny ? 2 * kMixBlock
                       : kBatchQueries * per_run(rate / kBatchQueries, c.seconds, 1);
      if (c.workload == Workload::kMixedParallel) {
        const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
        z.workers = static_cast<int>(std::min(4u, hw));
      }
      z.probe = std::min(probe, z.queries);
      z.replay = std::min(replay, z.queries);
      break;
    }
    case Workload::kPointZipf:
      z.ring = tiny ? 32 : 256;
      z.storage = 16;
      z.persons = tiny ? 80 : 2000;  // ~2 row keys per person vs 64 cached rows
      z.queries = tiny ? 64 : per_run(kPointCallsPerS, c.seconds, 256);
      z.replay = std::min(replay, z.queries);
      break;
    case Workload::kChurnRw:
      z.ring = tiny ? 24 : 64;
      z.storage = tiny ? 12 : 32;
      z.persons = tiny ? 60 : 600;
      z.replication = 3;
      z.queries = tiny ? 12 : 96;
      z.rounds = tiny ? 3 : per_run(kChurnRoundsPerS, c.seconds, 2);
      z.writes = tiny ? 20 : 150;
      z.writers = 2;
      z.probe = std::min(tiny ? 8 : kReadProbeQueries, z.queries * z.rounds);
      z.replay = std::min(replay, z.queries);
      break;
  }
  return z;
}

// -- seeds and digests -------------------------------------------------------

/// Independent stream `stream` of the workload seed: data, partition, ring
/// ids, queries, fault schedules and writes each draw from their own.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  common::Rng rng(seed * 0x9e3779b97f4a7c15ull + stream * 0xd1b54a32d192ed03ull);
  return rng.next();
}

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(std::string_view s) {
    for (char ch : s) {
      h ^= static_cast<unsigned char>(ch);
      h *= 0x100000001b3ull;
    }
    add(std::uint64_t{s.size()});
  }
  void add(const std::vector<rdf::Triple>& ts) {
    for (const rdf::Triple& t : ts) add(std::uint64_t{rdf::TripleHash{}(t)});
  }
};

// -- statistics ---------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

std::string sample_note(std::size_t n, double q) {
  const auto beyond = static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - q)));
  return "n=" + std::to_string(n) + ", " + std::to_string(beyond) +
         " samples beyond";
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -- machine-speed reference --------------------------------------------------
//
// The benchmark runs on shared machines, where co-tenants slow every core
// for seconds at a time and CPU time stretches with them (shared caches,
// clock frequency). Each run therefore also times a fixed reference
// computation between its units of work, and scales its end-to-end host
// times by how much slower than nominal the reference ran. No change to the
// system can move the reference; a busy neighbour moves both.

/// CPU seconds of one warm reference computation on the 4-core host the
/// work rates above were sized on. Only the ratio to it matters.
constexpr double kReferenceNominalS = 0.0012;

class SpeedReference {
 public:
  /// Take one sample before the first unit of work.
  void prime() { (void)take(); }
  /// The host slowdown (> 1 is slower than nominal) around the unit of work
  /// since the previous sample: the mean of that sample and a new one.
  /// Host times of the unit are divided by it, rates multiplied.
  double around() {
    const double before = samples_.empty() ? take() : samples_.back();
    return (before + take()) / (2 * kReferenceNominalS);
  }
  [[nodiscard]] std::string note() const {
    return "host slowdown " +
           std::to_string(samples_.empty() ? 1.0
                                           : median(samples_) / kReferenceNominalS) +
           " (median of " + std::to_string(samples_.size()) +
           " reference samples)";
  }

 private:
  /// Run the reference twice and return the CPU time of the second, warm
  /// run: the first only refills the caches the workload evicted, which
  /// would measure the workload rather than the host.
  double take() {
    (void)run();
    const Clock::time_point t0 = Clock::now();
    (void)run();
    samples_.push_back(seconds_since(t0));
    return samples_.back();
  }

  /// Ordered-map inserts over IRI-like strings, hashing and a sort: the
  /// kinds of work the system's host time is made of.
  static std::uint64_t run() {
    std::map<std::string, std::uint64_t> index;
    std::uint64_t x = 0x243f6a8885a308d3ull;
    for (int i = 0; i < 3000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      index["http://example.org/people/p" + std::to_string(x % 5000)] += x;
    }
    std::vector<std::uint64_t> keys;
    keys.reserve(index.size());
    for (const auto& [k, v] : index) keys.push_back(std::hash<std::string>{}(k) ^ v);
    std::sort(keys.begin(), keys.end());
    const volatile std::uint64_t keep = keys[keys.size() / 2];
    return keep;
  }

  std::vector<double> samples_;
};

/// Divide the host times in `v` from index `from` on by `slowdown`.
void scale_since(std::vector<double>& v, std::size_t from, double slowdown) {
  for (std::size_t i = from; i < v.size(); ++i) v[i] /= slowdown;
}

// -- system and inputs --------------------------------------------------------

struct Prepared {
  std::unique_ptr<workload::Testbed> bed;
  std::size_t published = 0;  // triples the set-up publish inserted
  double publish_s = 0;       // host seconds inside share_triples
  net::TrafficStats publish_traffic;

  std::vector<std::string> texts;  // query inputs, in the order they are sent
  std::vector<net::NodeAddress> initiators;
  std::vector<dqp::BatchQuery> batch;  // parsed `texts` (batch workloads)
  std::vector<rdf::Triple> fresh;      // churn-rw write pool
  std::uint64_t digest = 0;

  overlay::HybridOverlay& overlay() { return bed->overlay(); }
  net::Network& network() { return bed->network(); }
};

/// The FOAF graph and its partition are the same for every seed: the seed
/// varies ring ids, queries, fault schedules and write order, so run-to-run
/// differences in simulated cost come from the workload, not from a
/// differently sized dataset.
constexpr std::uint64_t kDataSeed = 1;

workload::FoafConfig foaf_config(const Sizing& z) {
  workload::FoafConfig f;
  f.persons = z.persons;
  f.seed = derive(kDataSeed, 1);
  return f;
}

/// The five paper classes at the generator's default mix weights, in
/// blocks of kMixBlock queries that each hold the weights exactly (8
/// primitive, 5 conjunction, 3 optional, 2 union, 2 filter), shuffled within
/// the block. Every seed and every whole number of blocks therefore runs the
/// same class composition; the seed picks parameters and order.
std::vector<std::string> mixed_queries(std::size_t n,
                                       const workload::FoafConfig& data,
                                       std::uint64_t seed) {
  const workload::QueryMixConfig mix;
  const std::pair<workload::QueryClass, double> weights[] = {
      {workload::QueryClass::kPrimitive, mix.primitive},
      {workload::QueryClass::kConjunction, mix.conjunction},
      {workload::QueryClass::kOptional, mix.optional},
      {workload::QueryClass::kUnion, mix.union_},
      {workload::QueryClass::kFilter, mix.filter},
  };
  std::vector<workload::QueryClass> block;
  for (const auto& [cls, weight] : weights) {
    block.insert(block.end(),
                 static_cast<std::size_t>(std::llround(weight * kMixBlock)), cls);
  }
  common::Rng rng(seed);
  std::vector<std::string> out;
  out.reserve(n);
  while (out.size() < n) {
    rng.shuffle(block);
    for (std::size_t i = 0; i < block.size() && out.size() < n; ++i) {
      out.push_back(workload::make_query(block[i], data, rng));
    }
  }
  return out;
}

constexpr std::string_view kFoafPrologue =
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n";

/// The mixed workloads' latency probe: the E14 plan-class bodies except the
/// ASK form. An odd number of bodies puts the median inside one body's
/// samples rather than in the gap between two.
constexpr const char* kProbeBodies[] = {
    "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }",
    "SELECT ?x ?n ?o WHERE { ?x foaf:name ?n . ?x foaf:knows ?o . }",
    "SELECT ?x ?y ?n WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:nick ?n . } }",
    "SELECT ?x WHERE { { ?x foaf:nick ?n . } UNION { ?x foaf:mbox ?m . } }",
    "SELECT ?x ?n WHERE { ?x foaf:name ?n . FILTER regex(?n, \"a\") }",
    "SELECT ?o WHERE { <http://example.org/people/p1> foaf:knows ?o . }",
    "SELECT DISTINCT ?n WHERE { ?x foaf:name ?n . } ORDER BY ?n LIMIT 5",
};

std::string person(std::size_t i) {
  return "<http://example.org/people/p" + std::to_string(i) + ">";
}

/// E15-shape selective subject queries: one or two patterns on a Zipf-ranked
/// person (rank 0 hottest).
std::string point_query(std::size_t who, bool two_patterns) {
  const std::string p = person(who);
  if (!two_patterns) {
    return std::string(kFoafPrologue) + "SELECT ?o WHERE { " + p +
           " foaf:knows ?o . }";
  }
  return std::string(kFoafPrologue) + "SELECT ?n ?o WHERE { " + p +
         " foaf:name ?n . " + p + " foaf:knows ?o . }";
}

/// churn-rw reads: all statements about one person, or their knows edges.
std::string churn_query(std::size_t who, bool all_predicates) {
  const std::string p = person(who);
  if (all_predicates) {
    return std::string(kFoafPrologue) + "SELECT ?p ?o WHERE { " + p +
           " ?p ?o . }";
  }
  return std::string(kFoafPrologue) + "SELECT ?o WHERE { " + p +
         " foaf:knows ?o . }";
}

Prepared prepare(const RunConfig& c, const Sizing& z) {
  Prepared p;
  Digest digest;
  workload::TestbedConfig cfg;
  cfg.index_nodes = z.ring;
  cfg.storage_nodes = z.storage;
  cfg.overlay.seed = derive(c.seed, 3);
  cfg.overlay.replication_factor = z.replication;
  cfg.foaf.persons = 0;  // the data is published below, through share_triples
  p.bed = std::make_unique<workload::Testbed>(cfg);

  const workload::FoafConfig foaf = foaf_config(z);
  workload::PartitionConfig part;
  part.nodes = z.storage;
  part.overlap = 0.25;
  part.seed = derive(kDataSeed, 2);
  const std::vector<rdf::Triple> data = workload::generate_foaf(foaf);
  digest.add(data);
  const std::vector<std::vector<rdf::Triple>> shares =
      workload::partition(data, part);
  const std::vector<net::NodeAddress>& addrs = p.bed->storage_addrs();
  net::SimTime ready = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    ready = std::max(ready, p.overlay().share_triples(addrs[i], shares[i], ready));
  }
  p.publish_s = seconds_since(t0);
  for (net::NodeAddress a : addrs) p.published += p.overlay().store_of(a).size();
  p.publish_traffic = p.network().stats();
  p.network().reset_stats();

  common::Rng rng(derive(c.seed, 4));
  switch (c.workload) {
    case Workload::kMixedBulk:
    case Workload::kMixedParallel:
      p.texts = mixed_queries(z.queries, foaf, derive(c.seed, 5));
      // Round-robin initiators over the storage nodes: with the storage
      // count divisible by the worker count, every initiator's queries land
      // in one shard of the parallel driver (partition-independent).
      for (std::size_t i = 0; i < p.texts.size(); ++i) {
        p.initiators.push_back(addrs[i % addrs.size()]);
      }
      break;
    case Workload::kPointZipf: {
      common::ZipfSampler zipf(z.persons, 1.0);
      for (std::size_t i = 0; i < z.queries; ++i) {
        const std::size_t who = zipf.sample(rng);
        p.texts.push_back(point_query(who, rng.chance(0.5)));
        p.initiators.push_back(addrs[rng.below(4)]);  // 4 hot initiators
      }
      break;
    }
    case Workload::kChurnRw: {
      // Zipf-skewed reads from 8 initiators, so hot rows get cached and
      // leased, and the writes below invalidate some of them.
      common::ZipfSampler zipf(z.persons, 1.0);
      for (std::size_t i = 0; i < z.queries * z.rounds; ++i) {
        p.texts.push_back(churn_query(zipf.sample(rng), rng.chance(0.5)));
        p.initiators.push_back(addrs[rng.below(8)]);
      }
      workload::FoafConfig second = foaf;
      second.seed = derive(kDataSeed, 6);
      p.fresh = workload::generate_foaf(second);
      common::Rng order(derive(c.seed, 7));
      order.shuffle(p.fresh);
      digest.add(p.fresh);
      break;
    }
  }
  if (c.workload != Workload::kPointZipf) {
    p.batch.reserve(p.texts.size());
    for (std::size_t i = 0; i < p.texts.size(); ++i) {
      p.batch.push_back(
          dqp::BatchQuery{sparql::parse_query(p.texts[i]), p.initiators[i]});
    }
  }
  for (std::size_t i = 0; i < p.texts.size(); ++i) {
    digest.add(p.texts[i]);
    digest.add(std::uint64_t{p.initiators[i]});
  }
  p.digest = digest.h;
  return p;
}

// -- what a measured phase produced ------------------------------------------

struct ReportTotals {
  std::uint64_t queries = 0;
  std::uint64_t successful = 0;  // complete and no provider given up on
  net::TrafficStats traffic;
  std::uint64_t index_lookups = 0;
  std::uint64_t ring_hops = 0;
  std::uint64_t providers = 0;
  std::uint64_t dead_skipped = 0;
  std::uint64_t retries = 0;
  std::uint64_t relookups = 0;
  overlay::CacheStats cache;
  std::vector<double> resp_ms;

  void add(const dqp::ExecutionReport& r) {
    ++queries;
    if (r.complete && r.dead_providers_skipped == 0) ++successful;
    traffic.accumulate(r.traffic);
    index_lookups += static_cast<std::uint64_t>(r.index_lookups);
    ring_hops += static_cast<std::uint64_t>(r.ring_hops);
    providers += static_cast<std::uint64_t>(r.providers_contacted);
    dead_skipped += static_cast<std::uint64_t>(r.dead_providers_skipped);
    retries += static_cast<std::uint64_t>(r.retries);
    relookups += static_cast<std::uint64_t>(r.relookups);
    cache.accumulate(r.cache);
    resp_ms.push_back(r.response_time);
  }
};

struct TraceTotals {
  std::uint64_t spans = 0;
  std::uint64_t phase_bytes[obs::kSpanKindCount] = {};
  std::uint64_t phase_spans[obs::kSpanKindCount] = {};

  void absorb(const obs::QueryTrace& t) {
    spans += t.spans().size();
    for (const obs::PhaseCost& pc : obs::phase_rollup(t)) {
      for (int k = 0; k < obs::kSpanKindCount; ++k) {
        if (obs::span_kind_name(static_cast<obs::SpanKind>(k)) == pc.phase) {
          phase_bytes[k] += pc.bytes;
          phase_spans[k] += pc.spans;
        }
      }
    }
  }
};

struct Measured {
  std::uint64_t queries = 0;
  double query_s = 0;              // host seconds in measured query calls
  std::vector<double> latency_ms;  // per execute() call, closed loop
  /// Host seconds of the measured queries and (churn-rw) writes, each unit
  /// of work divided by the host slowdown around it (SpeedReference).
  double scaled_query_s = 0;
  double scaled_write_s = 0;
  ReportTotals reports;
  /// Simulated duration of each batch, round, or loop block (one client
  /// runs a block's calls back to back, so its duration is their sum).
  std::vector<double> makespans;

  // churn-rw writes and recovery
  std::uint64_t shared = 0, unshared = 0;  // triples actually changed
  double share_s = 0, unshare_s = 0;
  net::TrafficStats write_traffic;
  std::uint64_t events_applied = 0;
  double converge_s = 0;
  std::uint64_t converges = 0;
  net::SimTime convergence_sim_ms = 0;  // summed over rounds

  // mixed-parallel: wall time of the parallel batches and of the serial
  // reference run of the same batches (for dqp.parallel_efficiency).
  double wall_s = 0;
  double serial_wall_s = 0;
  TraceTotals trace;
  std::vector<ReplayQuery> replay;

  [[nodiscard]] double measured_s() const {
    return query_s + share_s + unshare_s + converge_s;
  }
  /// Simulated totals the traced and the untraced run must agree on.
  [[nodiscard]] std::vector<double> sim_fingerprint() const {
    return {static_cast<double>(reports.traffic.bytes),
            static_cast<double>(reports.traffic.messages),
            static_cast<double>(reports.traffic.timeouts),
            static_cast<double>(reports.successful), median(makespans),
            static_cast<double>(write_traffic.bytes)};
  }
};

/// Single-site oracle answers, memoized by query text (point and mixed
/// workloads repeat texts).
class Oracle {
 public:
  explicit Oracle(const overlay::HybridOverlay& ov) : store_(ov.merged_store()) {}
  const sparql::QueryResult& answer(const std::string& text,
                                    const sparql::Query* parsed = nullptr) {
    auto it = memo_.find(text);
    if (it == memo_.end()) {
      const sparql::Query q = parsed != nullptr ? *parsed : sparql::parse_query(text);
      it = memo_.emplace(text, sparql::execute_local(q, store_)).first;
    }
    return it->second;
  }

 private:
  rdf::TripleStore store_;
  std::unordered_map<std::string, sparql::QueryResult> memo_;
};

std::string short_text(const std::string& text) {
  const std::size_t cut = text.find("SELECT");
  std::string s = cut == std::string::npos ? text : text.substr(cut);
  return s.size() > 90 ? s.substr(0, 90) + "..." : s;
}

/// Closed-loop latency probe: one client, one execute() at a time, over
/// `texts` issued from `initiators`; the answers are appended to `answers`
/// for checking.
/// Latencies are scaled per group of kProbeGroup calls by the host slowdown
/// around the group.
void latency_probe(dqp::DistributedQueryProcessor& proc,
                   const std::vector<std::string>& texts,
                   const std::vector<net::NodeAddress>& initiators,
                   std::vector<sparql::QueryResult>& answers,
                   SpeedReference& speed, Measured& m, RunResult& out) {
  speed.prime();
  std::size_t group = m.latency_ms.size();
  const std::size_t n = texts.size();
  for (std::size_t i = 0; i < n; ++i) {
    ++out.ops;
    try {
      const Clock::time_point t0 = Clock::now();
      answers.push_back(proc.execute(texts[i], initiators[i]));
      m.latency_ms.push_back(seconds_since(t0) * 1e3);
    } catch (const std::exception& e) {
      answers.emplace_back();
      out.fail(std::string("probe threw: ") + e.what());
    }
    if ((i + 1) % kProbeGroup == 0 || i + 1 == n) {
      scale_since(m.latency_ms, group, speed.around());
      group = m.latency_ms.size();
    }
  }
}

Measured measure_mixed(Prepared& p, const Sizing& z, obs::QueryTrace* trace,
                       bool check, SpeedReference& speed, RunResult& out) {
  Measured m;
  dqp::DistributedQueryProcessor proc(p.overlay());
  dqp::BatchOptions opts;
  opts.workers = z.workers;
  for (std::size_t i = 0; i < z.replay; ++i) {
    m.replay.push_back({p.texts[i], p.initiators[i]});
  }
  std::optional<Oracle> oracle;
  if (check) oracle.emplace(p.overlay());
  speed.prime();

  // The input is issued as consecutive batches of kBatchQueries, each
  // checked and released before the next, so result memory stays bounded.
  // With the cache off and no faults the batches are independent: every
  // query's rows, traffic and response time equal those of one big batch.
  for (std::size_t b = 0; b < p.batch.size(); b += kBatchQueries) {
    const std::size_t e = std::min(p.batch.size(), b + kBatchQueries);
    const std::vector<dqp::BatchQuery> chunk(
        p.batch.begin() + static_cast<std::ptrdiff_t>(b),
        p.batch.begin() + static_cast<std::ptrdiff_t>(e));
    if (check) out.ops += chunk.size();
    dqp::BatchResult r;
    double dt = 0;
    proc.set_trace(trace);
    try {
      // Process CPU time, so the parallel driver's worker threads count.
      const double c0 = cpu_now(CLOCK_PROCESS_CPUTIME_ID);
      const double w0 = wall_now();
      r = proc.execute_batch(chunk, opts);
      dt = cpu_now(CLOCK_PROCESS_CPUTIME_ID) - c0;
      m.wall_s += wall_now() - w0;
      m.query_s += dt;
    } catch (const std::exception& ex) {
      proc.set_trace(nullptr);
      out.fail(std::string("batch threw: ") + ex.what());
      out.failed += chunk.size() - 1;  // every query of the batch is lost
      continue;
    }
    proc.set_trace(nullptr);
    m.scaled_query_s += dt / speed.around();
    m.queries += r.reports.size();
    m.makespans.push_back(r.makespan);
    for (const dqp::ExecutionReport& rep : r.reports) m.reports.add(rep);
    if (trace != nullptr) {
      m.trace.absorb(*trace);
      trace->clear();
    }
    if (!check) continue;

    if (z.workers > 1) {
      // Parallel == serial: the same inputs through the serial driver must
      // give the same rows, ASK answers, traffic, response times, lookups.
      const double w0 = wall_now();
      const dqp::BatchResult s = proc.execute_batch(chunk, dqp::BatchOptions{});
      m.serial_wall_s += wall_now() - w0;
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        const std::string d = serial_divergence(r.results[i], r.reports[i],
                                                s.results[i], s.reports[i]);
        if (!d.empty()) {
          out.fail("query " + std::to_string(b + i) + " vs serial: " + d);
        }
      }
      if (r.makespan != s.makespan) out.fail("batch makespan differs from serial");
    } else {
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        const std::string& text = p.texts[b + i];
        if (!same_answer(r.results[i], oracle->answer(text, &chunk[i].query))) {
          out.fail("answer differs from oracle: " + short_text(text));
        }
      }
    }
  }
  if (check) {
    // Closed-loop latency probe after the batches: parameter-free bodies,
    // so every seed probes the same queries.
    std::vector<std::string> texts;
    std::vector<net::NodeAddress> initiators;
    const std::vector<net::NodeAddress>& addrs = p.bed->storage_addrs();
    for (std::size_t i = 0; i < z.probe; ++i) {
      texts.push_back(std::string(kFoafPrologue) +
                      kProbeBodies[i % std::size(kProbeBodies)]);
      initiators.push_back(addrs[i % addrs.size()]);
    }
    std::vector<sparql::QueryResult> answers;
    latency_probe(proc, texts, initiators, answers, speed, m, out);
    for (std::size_t i = 0; i < answers.size(); ++i) {
      if (!same_answer(answers[i], oracle->answer(texts[i]))) {
        out.fail("execute() answer differs from oracle: " + short_text(texts[i]));
      }
    }
  }
  return m;
}

/// The processor policy each workload runs (and the layer replay mirrors):
/// the location cache on point-zipf and churn-rw, plus retry and relookup
/// on churn-rw; defaults otherwise.
dqp::ExecutionPolicy policy_for(Workload w) {
  dqp::ExecutionPolicy policy;
  if (w == Workload::kPointZipf || w == Workload::kChurnRw) {
    policy.cache.enabled = true;
  }
  if (w == Workload::kChurnRw) {
    policy.retry.max_retries = 2;
    policy.retry.relookup = true;
  }
  return policy;
}

Measured measure_point(Prepared& p, const Sizing& z, obs::QueryTrace* trace,
                       bool check, SpeedReference& speed, RunResult& out) {
  Measured m;
  dqp::DistributedQueryProcessor proc(p.overlay(),
                                      policy_for(Workload::kPointZipf));
  p.overlay().configure_caches(proc.policy().cache);
  std::optional<Oracle> oracle;
  if (check) oracle.emplace(p.overlay());
  proc.set_trace(trace);
  m.latency_ms.reserve(p.texts.size());
  // Throughput and simulated duration are sampled per block of kPointBlock
  // calls.
  double block_s = 0;
  net::SimTime block_sim_ms = 0;
  std::size_t block_start = 0;
  speed.prime();
  for (std::size_t i = 0; i < p.texts.size(); ++i) {
    if (check) ++out.ops;
    dqp::ExecutionReport rep;
    sparql::QueryResult res;
    try {
      const Clock::time_point t0 = Clock::now();
      res = proc.execute(p.texts[i], p.initiators[i], &rep);
      const double dt = seconds_since(t0);
      m.query_s += dt;
      block_s += dt;
      m.latency_ms.push_back(dt * 1e3);
    } catch (const std::exception& e) {
      out.fail(std::string("execute threw: ") + e.what());
      continue;
    }
    ++m.queries;
    m.reports.add(rep);
    block_sim_ms += rep.response_time;
    if (trace != nullptr) {
      m.trace.absorb(*trace);
      trace->clear();
    }
    if (check && !same_answer(res, oracle->answer(p.texts[i]))) {
      out.fail("answer differs from oracle: " + short_text(p.texts[i]));
    }
    if ((i + 1) % kPointBlock == 0 || i + 1 == p.texts.size()) {
      const double slowdown = speed.around();
      m.scaled_query_s += block_s / slowdown;
      scale_since(m.latency_ms, block_start, slowdown);
      block_start = m.latency_ms.size();
      m.makespans.push_back(block_sim_ms);
      block_s = 0;
      block_sim_ms = 0;
    }
  }
  proc.set_trace(nullptr);
  for (std::size_t i = 0; i < z.replay; ++i) {
    m.replay.push_back({p.texts[i], p.initiators[i]});
  }
  return m;
}

fault::ChurnProfile churn_profile() {
  fault::ChurnProfile profile;
  profile.horizon_ms = 500;
  profile.fails_per_second = 16;
  profile.recover_fraction = 0.75;
  profile.recover_delay_ms = 120;
  profile.repair_every_ms = 250;
  profile.index_fails_per_second = 1;
  return profile;
}

Measured measure_churn(Prepared& p, const Sizing& z, std::uint64_t seed,
                       obs::QueryTrace* trace, bool check, SpeedReference& speed,
                       RunResult& out) {
  Measured m;
  overlay::HybridOverlay& ov = p.overlay();
  net::Network& net = p.network();
  dqp::DistributedQueryProcessor proc(ov, policy_for(Workload::kChurnRw));
  ov.configure_caches(proc.policy().cache);
  const std::vector<net::NodeAddress>& addrs = p.bed->storage_addrs();
  const std::size_t ring_size = ov.ring().size();
  std::deque<std::pair<net::NodeAddress, std::vector<rdf::Triple>>> written;
  std::size_t next_fresh = 0;
  Digest digest;
  speed.prime();

  for (std::size_t round = 0; round < z.rounds; ++round) {
    // Restore strength before the round: failed storage nodes recover and
    // republish; index nodes lost to earlier rounds are replaced by joins.
    for (net::NodeAddress a : addrs) {
      if (net.is_failed(a)) {
        net.recover(a);
        ov.storage_node_rejoin(a, 0);
      }
    }
    while (ov.ring().live_ids().size() < ring_size) ov.add_index_node(0);

    // Writes: rotating storage nodes share fresh triples, and the oldest
    // batches beyond the last kKeptWriteBatches are unshared again.
    const std::vector<net::NodeAddress> live = ov.live_storage_addresses();
    const double write_s0 = m.share_s + m.unshare_s;
    for (std::size_t w = 0; w < z.writers; ++w) {
      const net::NodeAddress a = live[(round * z.writers + w) % live.size()];
      std::vector<rdf::Triple> chunk;
      for (std::size_t k = 0; k < z.writes; ++k) {
        chunk.push_back(p.fresh[next_fresh++ % p.fresh.size()]);
      }
      const std::size_t before = ov.store_of(a).size();
      const net::TrafficStats traffic0 = net.stats();
      if (check) ++out.ops;
      const Clock::time_point t0 = Clock::now();
      ov.share_triples(a, chunk, 0);
      m.share_s += seconds_since(t0);
      m.write_traffic.accumulate(net.stats().delta_since(traffic0));
      m.shared += ov.store_of(a).size() - before;
      written.emplace_back(a, std::move(chunk));
    }
    while (written.size() > kKeptWriteBatches) {
      auto [a, chunk] = std::move(written.front());
      written.pop_front();
      const std::size_t before = ov.store_of(a).size();
      const net::TrafficStats traffic0 = net.stats();
      if (check) ++out.ops;
      const Clock::time_point t0 = Clock::now();
      ov.unshare_triples(a, chunk, 0);
      m.unshare_s += seconds_since(t0);
      m.write_traffic.accumulate(net.stats().delta_since(traffic0));
      m.unshared += before - ov.store_of(a).size();
    }
    const double write_s = m.share_s + m.unshare_s - write_s0;

    // Faulted read batch.
    // Index victims are spread around the ring, more than a replica group
    // apart, so a round's failures test the replication factor rather than
    // correlated loss of a whole group; the residue rotates every round.
    std::vector<chord::Key> index_victims;
    const std::vector<chord::Key> ring_ids = ov.ring().live_ids();
    for (std::size_t i = round % kVictimStride; i < ring_ids.size();
         i += kVictimStride) {
      index_victims.push_back(ring_ids[i]);
    }
    const fault::FaultSchedule schedule = fault::FaultSchedule::generate(
        churn_profile(), addrs, index_victims, derive(seed, 100 + round));
    digest.add(schedule.to_string());
    const std::vector<dqp::BatchQuery> batch(
        p.batch.begin() + static_cast<std::ptrdiff_t>(round * z.queries),
        p.batch.begin() + static_cast<std::ptrdiff_t>((round + 1) * z.queries));
    if (check) out.ops += batch.size();
    fault::FaultRunResult fr;
    double read_s = 0;
    proc.set_trace(trace);  // the trace covers the read batches only
    try {
      const Clock::time_point t0 = Clock::now();
      fr = fault::run_with_faults(proc, ov, batch, schedule);
      read_s = seconds_since(t0);
      m.query_s += read_s;
    } catch (const std::exception& e) {
      proc.set_trace(nullptr);
      out.fail(std::string("faulted batch threw: ") + e.what());
      out.failed += batch.size() - 1;
      break;
    }
    proc.set_trace(nullptr);
    m.queries += fr.batch.reports.size();
    for (const dqp::ExecutionReport& rep : fr.batch.reports) m.reports.add(rep);
    m.makespans.push_back(fr.batch.makespan);
    m.events_applied += static_cast<std::uint64_t>(fr.injection_log.applied);
    m.convergence_sim_ms += fr.availability.convergence_ms();
    if (trace != nullptr) {
      m.trace.absorb(*trace);
      trace->clear();
    }

    // Converge, then the I1-I6 audit must be clean.
    const Clock::time_point t0 = Clock::now();
    fault::converge(ov, fr.batch.makespan);
    m.converge_s += seconds_since(t0);
    ++m.converges;
    const double slowdown = speed.around();
    m.scaled_query_s += read_s / slowdown;
    m.scaled_write_s += write_s / slowdown;
    if (check) {
      ++out.ops;
      check::AuditOptions opt;
      opt.churned = true;
      opt.converged = true;
      opt.now = fr.batch.makespan;
      const check::AuditReport audit = check::audit(ov, opt);
      if (!audit.clean()) {
        out.fail("round " + std::to_string(round) +
                 " converged audit not clean: " + audit.to_string());
      }
    }
  }
  out.input_digest ^= digest.h;

  const std::vector<net::NodeAddress> live = ov.live_storage_addresses();
  const std::size_t last = (z.rounds - 1) * z.queries;
  for (std::size_t i = 0; i < z.replay; ++i) {
    m.replay.push_back({p.texts[last + i], live[i % live.size()]});
  }
  if (!check) return m;

  // Read-after-churn latency probe on the converged system: a cache-off
  // processor from live initiators, checked against the oracle.
  dqp::DistributedQueryProcessor reader(ov);
  const std::vector<std::string> texts(
      p.texts.begin(), p.texts.begin() + static_cast<std::ptrdiff_t>(z.probe));
  std::vector<net::NodeAddress> initiators;
  for (std::size_t i = 0; i < z.probe; ++i) {
    initiators.push_back(live[i % live.size()]);
  }
  std::vector<sparql::QueryResult> answers;
  latency_probe(reader, texts, initiators, answers, speed, m, out);
  Oracle oracle(ov);
  for (std::size_t i = 0; i < answers.size(); ++i) {
    if (!same_answer(answers[i], oracle.answer(texts[i]))) {
      out.fail("read-after-churn answer differs from oracle: " +
               short_text(p.texts[i]));
    }
  }
  return m;
}

Measured measure(const RunConfig& c, Prepared& p, const Sizing& z,
                 obs::QueryTrace* trace, bool check, SpeedReference& speed,
                 RunResult& out) {
  switch (c.workload) {
    case Workload::kMixedBulk:
    case Workload::kMixedParallel:
      return measure_mixed(p, z, trace, check, speed, out);
    case Workload::kPointZipf:
      return measure_point(p, z, trace, check, speed, out);
    case Workload::kChurnRw:
      return measure_churn(p, z, c.seed, trace, check, speed, out);
  }
  return {};
}

// -- metrics ------------------------------------------------------------------

std::uint64_t by(const std::uint64_t (&arr)[net::kCategoryCount], net::Category c) {
  return arr[static_cast<std::size_t>(c)];
}

void emit_end_to_end(const RunConfig& c, const std::vector<double>& setup_s,
                     double publish_rate,
                     const std::vector<double>& publish_bytes_per_triple,
                     const Measured& m, const SpeedReference& speed,
                     RunResult& out) {
  Metrics& x = out.metrics;
  const bool churn = c.workload == Workload::kChurnRw;
  const auto q = static_cast<double>(m.queries);
  set_metric(x, "setup_s", median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()) + " set-ups");
  set_metric(x, "queries_per_s", ratio(q, m.scaled_query_s), "q/s",
             std::to_string(m.queries) + " queries in " +
                 std::to_string(m.query_s) + " CPU s; " + speed.note());
  set_metric(x, "query_ms_p50", percentile(m.latency_ms, 0.5), "ms",
             sample_note(m.latency_ms.size(), 0.5));
  set_metric(x, "query_ms_p99", percentile(m.latency_ms, 0.99), "ms",
             sample_note(m.latency_ms.size(), 0.99));
  if (churn) {
    const auto changed = static_cast<double>(m.shared + m.unshared);
    set_metric(x, "writes_per_s", ratio(changed, m.scaled_write_s), "triples/s",
               std::to_string(m.shared) + " shared + " +
                   std::to_string(m.unshared) + " unshared");
    const auto wb = static_cast<double>(
        by(m.write_traffic.bytes_by, net::Category::kIndex) +
        by(m.write_traffic.bytes_by, net::Category::kRouting));
    set_metric(x, "sim_write_bytes_per_triple", ratio(wb, changed), "B",
               "base: " + std::to_string(m.shared + m.unshared) + " triples");
  } else {
    set_metric(x, "writes_per_s", publish_rate, "triples/s",
               "set-up publish, all " + std::to_string(setup_s.size()) +
                   " set-ups");
    set_metric(x, "sim_write_bytes_per_triple", median(publish_bytes_per_triple),
               "B", "set-up publish");
  }
  set_metric(x, "peak_rss_mb", peak_rss_mib(), "MiB");
  set_metric(x, "sim_bytes_per_q",
             ratio(static_cast<double>(m.reports.traffic.bytes), q), "B");
  set_metric(x, "sim_msgs_per_q",
             ratio(static_cast<double>(m.reports.traffic.messages), q), "msgs");
  set_metric(x, "sim_resp_ms_p50", percentile(m.reports.resp_ms, 0.5), "sim_ms",
             sample_note(m.reports.resp_ms.size(), 0.5));
  set_metric(x, "sim_resp_ms_p99", percentile(m.reports.resp_ms, 0.99), "sim_ms",
             sample_note(m.reports.resp_ms.size(), 0.99));
  set_metric(x, "sim_makespan_ms", median(m.makespans), "sim_ms",
             "median over " + std::to_string(m.makespans.size()) +
                 (c.workload == Workload::kPointZipf
                      ? " loop blocks (sum of response times)"
                      : (churn ? " rounds" : " batches")));
  set_metric(x, "sim_success_rate",
             ratio(static_cast<double>(m.reports.successful), q), "fraction",
             "base: " + std::to_string(m.queries) + " queries");
}

void emit_layers(const RunConfig& c, const Sizing& z, const Prepared& traced_sys,
                 const Measured& u, const Measured& t, RunResult& out) {
  Metrics& x = out.metrics;
  const auto q = static_cast<double>(t.queries);
  const ReportTotals& r = t.reports;
  const auto per_q = [&](std::uint64_t v) { return ratio(static_cast<double>(v), q); };

  set_metric(x, "dqp.providers_per_q", per_q(r.providers), "count");
  set_metric(x, "dqp.retries_per_q", per_q(r.retries), "count");
  set_metric(x, "dqp.relookups_per_q", per_q(r.relookups), "count");
  set_metric(x, "dqp.dead_skipped_per_q", per_q(r.dead_skipped), "count");
  if (z.workers > 1) {
    set_metric(x, "dqp.parallel_efficiency",
               ratio(u.serial_wall_s, static_cast<double>(z.workers) * u.wall_s),
               "fraction",
               "base: serial " + std::to_string(u.serial_wall_s) +
                   " wall s, parallel " + std::to_string(u.wall_s) +
                   " wall s, workers " + std::to_string(z.workers));
  } else {
    set_metric(x, "dqp.parallel_efficiency", 0, "fraction", "serial driver");
  }
  set_metric(x, "chord.ring_hops_per_q", per_q(r.ring_hops), "count");
  set_metric(x, "overlay.index_lookups_per_q", per_q(r.index_lookups), "count");
  const std::uint64_t lookups = r.cache.hits + r.cache.misses;
  set_metric(x, "overlay.cache_hit_rate",
             ratio(static_cast<double>(r.cache.hits), static_cast<double>(lookups)),
             "fraction", "base: " + std::to_string(lookups) + " cache lookups");
  set_metric(x, "overlay.cache_invalidations_per_q", per_q(r.cache.invalidations),
             "count");
  set_metric(x, "overlay.cache_leases", static_cast<double>(r.cache.leases),
             "count");
  if (c.workload == Workload::kChurnRw) {
    set_metric(x, "overlay.share_us", ratio(t.share_s * 1e6, static_cast<double>(t.shared)),
               "us", "per shared triple");
    set_metric(x, "overlay.unshare_us",
               ratio(t.unshare_s * 1e6, static_cast<double>(t.unshared)), "us",
               "per unshared triple");
  } else {
    set_metric(x, "overlay.share_us",
               ratio(traced_sys.publish_s * 1e6,
                     static_cast<double>(traced_sys.published)),
               "us", "set-up publish, per triple");
    set_metric(x, "overlay.unshare_us", 0, "us", "no unshares in this workload");
  }
  for (int k = 0; k < net::kCategoryCount; ++k) {
    const std::string cat(net::category_name(static_cast<net::Category>(k)));
    set_metric(x, "net.bytes_per_q." + cat,
               per_q(r.traffic.bytes_by[static_cast<std::size_t>(k)]), "B");
    set_metric(x, "net.msgs_per_q." + cat,
               per_q(r.traffic.messages_by[static_cast<std::size_t>(k)]), "msgs");
  }
  set_metric(x, "fault.timeouts_per_q", per_q(r.traffic.timeouts), "count");
  set_metric(x, "fault.events_applied", static_cast<double>(t.events_applied),
             "count");
  set_metric(x, "fault.converge_ms",
             ratio(t.converge_s * 1e3, static_cast<double>(t.converges)), "ms",
             "per converge, n=" + std::to_string(t.converges));
  set_metric(x, "fault.convergence_sim_ms",
             ratio(t.convergence_sim_ms, static_cast<double>(t.converges)), "sim_ms",
             "mean over rounds");
  set_metric(x, "obs.trace_overhead_pct",
             ratio((t.measured_s() - u.measured_s()) * 100.0, u.measured_s()), "%",
             "traced " + std::to_string(t.measured_s()) + " s vs untraced " +
                 std::to_string(u.measured_s()) + " s");
  set_metric(x, "obs.spans_per_q", per_q(t.trace.spans), "count");
  for (int k = 0; k < obs::kSpanKindCount; ++k) {
    std::string kind(obs::span_kind_name(static_cast<obs::SpanKind>(k)));
    std::replace(kind.begin(), kind.end(), '-', '_');
    set_metric(x, "phase." + kind + ".bytes_per_q", per_q(t.trace.phase_bytes[k]),
               "B");
    set_metric(x, "phase." + kind + ".spans_per_q", per_q(t.trace.phase_spans[k]),
               "count");
  }
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : kAllWorkloads) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kMixedBulk: return "mixed-bulk";
    case Workload::kMixedParallel: return "mixed-parallel";
    case Workload::kPointZipf: return "point-zipf";
    case Workload::kChurnRw: return "churn-rw";
  }
  return "?";
}

void set_metric(Metrics& m, const std::string& name, double value,
                std::string unit, std::string note) {
  m[name] = Metric{value, std::move(unit), std::move(note)};
}

void RunResult::fail(std::string why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

bool same_answer(const sparql::QueryResult& got,
                 const sparql::QueryResult& want) {
  if (got.form != want.form) return false;
  switch (got.form) {
    case sparql::QueryForm::kAsk:
      return got.ask_answer == want.ask_answer;
    case sparql::QueryForm::kConstruct:
    case sparql::QueryForm::kDescribe:
      return got.graph == want.graph;
    case sparql::QueryForm::kSelect:
      return sparql::deduplicated(got.solutions).rows() ==
             sparql::deduplicated(want.solutions).rows();
  }
  return false;
}

std::string serial_divergence(const sparql::QueryResult& par,
                              const dqp::ExecutionReport& par_rep,
                              const sparql::QueryResult& ser,
                              const dqp::ExecutionReport& ser_rep) {
  if (par.solutions.rows() != ser.solutions.rows()) return "solution rows";
  if (par.ask_answer != ser.ask_answer) return "ask answer";
  if (par_rep.traffic.messages != ser_rep.traffic.messages ||
      par_rep.traffic.bytes != ser_rep.traffic.bytes ||
      par_rep.traffic.timeouts != ser_rep.traffic.timeouts) {
    return "traffic";
  }
  if (par_rep.response_time != ser_rep.response_time) return "response time";
  if (par_rep.ring_hops != ser_rep.ring_hops ||
      par_rep.index_lookups != ser_rep.index_lookups) {
    return "lookup counters";
  }
  return {};
}

RunResult run_workload(const RunConfig& c) {
  const Sizing z = sizing(c);
  RunResult out;
  std::vector<double> setup_s, publish_bytes;
  double published = 0, scaled_publish_s = 0;
  std::optional<Prepared> p;
  SpeedReference setup_speed, speed;
  setup_speed.prime();
  for (int i = 0; i < kSetupRepeats; ++i) {
    p.reset();  // one system alive at a time
    const Clock::time_point t0 = Clock::now();
    p.emplace(prepare(c, z));
    const double setup = seconds_since(t0);
    const double slowdown = setup_speed.around();
    setup_s.push_back(setup / slowdown);
    published += static_cast<double>(p->published);
    scaled_publish_s += p->publish_s / slowdown;
    publish_bytes.push_back(ratio(
        static_cast<double>(by(p->publish_traffic.bytes_by, net::Category::kIndex) +
                            by(p->publish_traffic.bytes_by, net::Category::kRouting)),
        static_cast<double>(p->published)));
  }
  out.input_digest = p->digest;

  const Measured untraced = measure(c, *p, z, nullptr, true, speed, out);
  if (!c.trace) {
    emit_end_to_end(c, setup_s, ratio(published, scaled_publish_s), publish_bytes,
                    untraced, speed, out);
    return out;
  }

  // Traced re-run on a fresh, identical system: the per-phase rollup comes
  // from its trace, and it must reproduce the untraced simulated totals.
  p.reset();
  Prepared fresh = prepare(c, z);
  obs::QueryTrace trace;
  RunResult scratch;  // the traced run's own checks are not repeated
  const Measured traced = measure(c, fresh, z, &trace, false, speed, scratch);
  if (traced.sim_fingerprint() != untraced.sim_fingerprint()) {
    out.fail("traced run's simulated totals differ from the untraced run");
  }
  emit_layers(c, z, fresh, untraced, traced, out);
  // Host time per query; under the parallel driver, wall time times workers
  // (an upper bound on the CPU time the queries used).
  replay_layers(fresh.overlay(), traced.replay, policy_for(c.workload),
                ratio(traced.query_s * 1e6 * z.workers,
                      static_cast<double>(traced.queries)),
                out);
  return out;
}

}  // namespace perfbench
