// Differential test of the parallel batch driver (src/dqp/parallel.cpp)
// over unconstrained workloads.
//
// The driver promises that a batch run with workers > 1 is
// indistinguishable from the serial driver, whatever the batch: initiators
// shared across queries or Zipf-hot, Zipf-hot row keys, caching on or off,
// retries and re-lookups, providers failed before the batch, and fault
// schedules with storage and index failures and repairs. The driver keeps
// that promise by sharding by initiator and by rerunning a batch serially
// when a dead-provider report in one shard meets a row key another shard
// touches. Each case builds two identical systems from one seed, runs the
// batch serially on one and in parallel on the other, and compares every
// result, every report field but the `parallel:` note, the absolute traffic
// counters, the cache and index state, and a second serial batch run after
// the first (which only matches if the first left the same state behind).
// On a mismatch it names the first differing query and field.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dqp_test_util.hpp"
#include "fault/harness.hpp"
#include "support/overlay_twin.hpp"
#include "support/param_names.hpp"

namespace ahsw::dqp {
namespace {

using testing::kPrologue;

/// In the seeded batches storage nodes 0..5 initiate and 6..8 are the only
/// fault victims, so a failed initiator never hides a divergence behind an
/// empty batch.
constexpr std::size_t kInitiatorPool = 6;
constexpr std::size_t kStorageNodes = 9;

/// One batch and the system it runs on, drawn from a seed (or written by
/// hand for the named cases below).
struct Workload {
  workload::TestbedConfig cfg;
  ExecutionPolicy policy;
  std::vector<std::string> queries;
  std::vector<std::size_t> initiators;  // storage-node index per query
  std::vector<std::size_t> pre_failed;  // storage nodes failed before
  bool faulted = false;                 // run through run_with_faults
  // Fault schedule, by storage-node and index-node position.
  struct Fault {
    enum class Kind { kStorageFail, kRecover, kRejoin, kIndexFail, kRepair };
    Kind kind = Kind::kRepair;
    net::SimTime at = 0;
    std::size_t target = 0;
  };
  std::vector<Fault> faults;
};

workload::TestbedConfig base_config(std::uint64_t seed) {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 5;
  cfg.storage_nodes = kStorageNodes;
  cfg.foaf.persons = 60;
  cfg.foaf.seed = 71 + seed;
  cfg.partition.overlap = 0.25;
  cfg.partition.seed = 72 + seed;
  cfg.overlay.seed = 73 + seed;
  return cfg;
}

std::string person(std::uint64_t k) {
  return "<http://example.org/people/p" + std::to_string(k) + ">";
}

/// Query templates, hottest first: a Zipf draw over them makes the first
/// row keys (foaf:knows, foaf:name) the hot ones.
std::string query_template(std::size_t rank, std::uint64_t k) {
  switch (rank) {
    case 0: return "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }";
    case 1: return "SELECT ?x ?n WHERE { ?x foaf:name ?n . }";
    case 2:
      return "SELECT ?x ?y ?n WHERE { ?x foaf:knows ?y . "
             "OPTIONAL { ?y foaf:nick ?n . } }";
    case 3:
      return "SELECT ?x ?n ?y WHERE { ?x foaf:name ?n . "
             "OPTIONAL { ?x foaf:knows ?y . } }";
    case 4: return "ASK { ?x foaf:knows ?y . }";
    case 5:
      return "SELECT ?x WHERE { { ?x foaf:nick ?n . } UNION "
             "{ ?x foaf:mbox ?m . } }";
    case 6: return "SELECT ?o WHERE { " + person(k) + " foaf:knows ?o . }";
    case 7:
      return "SELECT ?x ?n WHERE { ?x foaf:name ?n . ?x foaf:nick ?k . }";
    case 8:
      return "SELECT ?x ?n WHERE { ?x foaf:name ?n . "
             "FILTER regex(?n, \"a\") }";
    case 9: return "DESCRIBE " + person(k);
    case 10:
      return "DESCRIBE ?y WHERE { " + person(k) + " foaf:knows ?y . }";
    case 11:
      return "CONSTRUCT { ?y foaf:knows ?x . } WHERE { ?x foaf:knows ?y . }";
    default:
      return "SELECT DISTINCT ?n WHERE { ?x foaf:name ?n . } "
             "ORDER BY ?n LIMIT 5";
  }
}
constexpr std::size_t kTemplates = 13;

Workload random_workload(std::uint64_t seed) {
  common::Rng rng(seed);
  Workload w;
  w.cfg = base_config(seed);
  w.cfg.overlay.replication_factor = 1 + static_cast<int>(rng.below(3));
  w.policy.cache.enabled = rng.chance(0.6);
  w.policy.cache.hot_threshold = 1 + static_cast<std::uint32_t>(rng.below(3));
  w.policy.retry.max_retries = static_cast<int>(rng.below(3));
  w.policy.retry.relookup = rng.chance(0.5);

  const std::size_t n = 6 + rng.below(20);
  const common::ZipfSampler hot_query(kTemplates, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    w.queries.push_back(
        query_template(hot_query.sample(rng), rng.below(10)));
  }
  // Initiators: distinct round robin, a few shared, or Zipf-hot.
  const common::ZipfSampler hot_initiator(kInitiatorPool, 1.2);
  const std::uint64_t shared = 2 + rng.below(2);
  switch (rng.below(3)) {
    case 0:
      for (std::size_t i = 0; i < n; ++i) {
        w.initiators.push_back(i % kInitiatorPool);
      }
      break;
    case 1:
      for (std::size_t i = 0; i < n; ++i) {
        w.initiators.push_back(rng.below(shared));
      }
      break;
    default:
      for (std::size_t i = 0; i < n; ++i) {
        w.initiators.push_back(hot_initiator.sample(rng));
      }
      break;
  }
  if (rng.chance(0.4)) {
    w.pre_failed.push_back(kInitiatorPool + rng.below(3));
  }
  if (rng.chance(0.4)) {
    using Kind = Workload::Fault::Kind;
    w.faulted = true;
    const std::size_t victims = 1 + rng.below(2);
    for (std::size_t v = 0; v < victims; ++v) {
      const std::size_t node = kInitiatorPool + rng.below(3);
      const net::SimTime at = rng.uniform() * 40.0;
      w.faults.push_back({Kind::kStorageFail, at, node});
      if (rng.chance(0.5)) {
        const net::SimTime back = at + 20.0 + rng.uniform() * 60.0;
        w.faults.push_back({Kind::kRecover, back, node});
        w.faults.push_back({Kind::kRejoin, back + 10.0, node});
      }
    }
    if (w.cfg.overlay.replication_factor > 1 && rng.chance(0.5)) {
      w.faults.push_back(
          {Kind::kIndexFail, rng.uniform() * 40.0, rng.below(5)});
    }
    w.faults.push_back({Kind::kRepair, 30.0 + rng.uniform() * 90.0, 0});
  }
  return w;
}

/// What one run of a workload leaves behind.
struct Outcome {
  std::unique_ptr<workload::Testbed> bed;
  BatchResult first;
  fault::InjectionLog injections;
  net::TrafficStats after_first;  // absolute counters
  overlay::CacheStats cache;      // every initiator's cache after the first
  BatchResult second;             // a serial batch after the first
  net::TrafficStats after_second;
};

Outcome run(const Workload& w, int workers) {
  Outcome out;
  out.bed = std::make_unique<workload::Testbed>(w.cfg);
  overlay::HybridOverlay& ov = out.bed->overlay();
  const std::vector<net::NodeAddress>& nodes = out.bed->storage_addrs();
  DistributedQueryProcessor proc(ov, w.policy);
  if (w.policy.cache.enabled) ov.configure_caches(w.policy.cache);
  for (std::size_t i : w.pre_failed) ov.storage_node_fail(nodes[i]);

  std::vector<BatchQuery> batch;
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    batch.push_back(BatchQuery{
        sparql::parse_query(std::string(kPrologue) + w.queries[i]),
        nodes[w.initiators[i]]});
  }
  BatchOptions opts;
  opts.workers = workers;
  if (w.faulted) {
    using Kind = Workload::Fault::Kind;
    fault::FaultSchedule schedule;
    for (const Workload::Fault& f : w.faults) {
      switch (f.kind) {
        case Kind::kStorageFail:
          schedule.storage_fail(f.at, nodes[f.target]);
          break;
        case Kind::kRecover: schedule.recover(f.at, nodes[f.target]); break;
        case Kind::kRejoin: schedule.rejoin(f.at, nodes[f.target]); break;
        case Kind::kIndexFail:
          schedule.index_fail(f.at, out.bed->index_ids()[f.target]);
          break;
        case Kind::kRepair: schedule.repair(f.at); break;
      }
    }
    fault::FaultRunResult r =
        fault::run_with_faults(proc, ov, batch, schedule, opts);
    out.first = std::move(r.batch);
    out.injections = r.injection_log;
  } else {
    out.first = proc.execute_batch(batch, opts);
  }
  out.after_first = out.bed->network().stats();
  out.cache = ov.cache_stats_total();
  if (w.faulted) fault::converge(ov, 2000.0);
  out.second = proc.execute_batch(batch, BatchOptions{});
  out.after_second = out.bed->network().stats();
  return out;
}

/// Collects the first difference between two runs: "<where>: <field>
/// <serial> vs <parallel>".
class FirstDifference {
 public:
  template <typename T>
  void field(const std::string& where, const char* name, const T& a,
             const T& b) {
    if (!found_.empty() || a == b) return;
    std::ostringstream s;
    s << where << ": " << name << " " << a << " vs " << b;
    found_ = s.str();
  }
  void same(const std::string& where, const char* name, bool equal) {
    if (found_.empty() && !equal) found_ = where + ": " + name + " differ";
  }
  void stats(const std::string& where, const net::TrafficStats& a,
             const net::TrafficStats& b) {
    field(where, "messages", a.messages, b.messages);
    field(where, "bytes", a.bytes, b.bytes);
    field(where, "raw_bytes", a.raw_bytes, b.raw_bytes);
    field(where, "timeouts", a.timeouts, b.timeouts);
    for (int c = 0; c < net::kCategoryCount; ++c) {
      const std::string cat =
          where + " " + std::string(net::category_name(
                            static_cast<net::Category>(c)));
      field(cat, "messages", a.messages_by[c], b.messages_by[c]);
      field(cat, "bytes", a.bytes_by[c], b.bytes_by[c]);
      field(cat, "timeouts", a.timeouts_by[c], b.timeouts_by[c]);
    }
  }
  void cache(const std::string& where, const overlay::CacheStats& a,
             const overlay::CacheStats& b) {
    field(where, "cache.hits", a.hits, b.hits);
    field(where, "cache.misses", a.misses, b.misses);
    field(where, "cache.invalidations", a.invalidations, b.invalidations);
    field(where, "cache.expirations", a.expirations, b.expirations);
    field(where, "cache.insertions", a.insertions, b.insertions);
    field(where, "cache.leases", a.leases, b.leases);
  }
  /// Every result and every report field, query by query; the plan notes
  /// without the driver's own `parallel:` note.
  void batches(const std::string& which, const Workload& w,
               const BatchResult& a, const BatchResult& b) {
    for (std::size_t i = 0; i < w.queries.size() && found_.empty(); ++i) {
      const std::string q = which + " query " + std::to_string(i) +
                            " from node " + std::to_string(w.initiators[i]) +
                            " (" + w.queries[i] + ")";
      same(q, "solutions",
           a.results[i].solutions.rows() == b.results[i].solutions.rows());
      field(q, "ask_answer", a.results[i].ask_answer, b.results[i].ask_answer);
      same(q, "graph", a.results[i].graph == b.results[i].graph);
      const ExecutionReport& ra = a.reports[i];
      const ExecutionReport& rb = b.reports[i];
      stats(q + " traffic", ra.traffic, rb.traffic);
      field(q, "response_time", ra.response_time, rb.response_time);
      field(q, "index_lookups", ra.index_lookups, rb.index_lookups);
      field(q, "ring_hops", ra.ring_hops, rb.ring_hops);
      field(q, "providers_contacted", ra.providers_contacted,
            rb.providers_contacted);
      field(q, "dead_providers_skipped", ra.dead_providers_skipped,
            rb.dead_providers_skipped);
      field(q, "retries", ra.retries, rb.retries);
      field(q, "relookups", ra.relookups, rb.relookups);
      cache(q, ra.cache, rb.cache);
      field(q, "complete", ra.complete, rb.complete);
      same(q, "plan_notes", notes(ra) == notes(rb));
    }
    field(which, "makespan", a.makespan, b.makespan);
  }

  [[nodiscard]] const std::string& found() const noexcept { return found_; }

 private:
  static std::vector<std::string> notes(const ExecutionReport& r) {
    std::vector<std::string> out;
    for (const std::string& n : r.plan_notes) {
      if (n.rfind("parallel:", 0) != 0) out.push_back(n);
    }
    return out;
  }

  std::string found_;
};

/// The path a parallel run took, read from what it reports: every report
/// carries the same `parallel:` note, or none; a parallel run has one
/// makespan per shard, a fallback none.
enum class Path { kParallel, kRerun, kOtherFallback };

void PrintTo(Path p, std::ostream* os) {
  switch (p) {
    case Path::kParallel: *os << "parallel"; break;
    case Path::kRerun: *os << "coupled rerun"; break;
    case Path::kOtherFallback: *os << "other fallback"; break;
  }
}

std::string parallel_note(const ExecutionReport& r) {
  for (const std::string& n : r.plan_notes) {
    if (n.rfind("parallel:", 0) == 0) return n;
  }
  return "";
}

Path path_of(const BatchResult& r) {
  const std::string note = parallel_note(r.reports.front());
  for (const ExecutionReport& rep : r.reports) {
    EXPECT_EQ(parallel_note(rep), note);
  }
  EXPECT_EQ(note.empty(), !r.worker_makespans.empty()) << note;
  if (note.empty()) return Path::kParallel;
  return note.find("(coupled: key ") != std::string::npos
             ? Path::kRerun
             : Path::kOtherFallback;
}

/// Runs `w` serially and with `workers` workers, compares everything and
/// returns the path the parallel run took.
Path expect_parallel_matches_serial(const Workload& w, int workers) {
  const Outcome serial = run(w, 1);
  const Outcome parallel = run(w, workers);
  FirstDifference diff;
  diff.batches("first batch", w, serial.first, parallel.first);
  diff.stats("after the first batch", serial.after_first,
             parallel.after_first);
  diff.cache("after the first batch", serial.cache, parallel.cache);
  diff.field("injections", "applied", serial.injections.applied,
             parallel.injections.applied);
  diff.field("injections", "skipped", serial.injections.skipped,
             parallel.injections.skipped);
  diff.batches("second batch", w, serial.second, parallel.second);
  diff.stats("after the second batch", serial.after_second,
             parallel.after_second);
  EXPECT_EQ(diff.found(), "") << "workers=" << workers;
  overlay::expect_same_index_state(serial.bed->overlay(),
                                   parallel.bed->overlay(),
                                   "workers=" + std::to_string(workers));
  return path_of(parallel.first);
}

// --- Seeded random batches -------------------------------------------------

constexpr std::uint64_t kSeeds = 16;

struct Case {
  std::uint64_t seed = 0;
  int workers = 0;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << "seed " << c.seed << ", workers " << c.workers;
}

class ParallelDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(ParallelDifferential, ParallelMatchesSerial) {
  (void)expect_parallel_matches_serial(random_workload(GetParam().seed),
                                       GetParam().workers);
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    for (int workers : {2, 4, 8}) out.push_back(Case{seed, workers});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWorkers, ParallelDifferential, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case>& instance) {
      return test_names::param_name(
          "seed" + std::to_string(instance.param.seed) + "_workers" +
          std::to_string(instance.param.workers));
    });

TEST(ParallelDifferentialCoverage, SeedsReachBothTheParallelPathAndARerun) {
  // Without both outcomes the seeded cases would pin only half the driver:
  // batches that stay parallel test the shards and the replay, batches that
  // couple test the check and the serial rerun.
  int parallel = 0;
  int rerun = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Outcome r = run(random_workload(seed), 4);
    switch (path_of(r.first)) {
      case Path::kParallel: ++parallel; break;
      case Path::kRerun: ++rerun; break;
      case Path::kOtherFallback: break;
    }
  }
  EXPECT_GT(parallel, 0);
  EXPECT_GT(rerun, 0);
}

// --- Named cases: the two ways sharding by query id diverged ------------

/// Thirty cached queries from three initiators. Sharded by query id, every
/// initiator's location cache was split across shards, so a shard missed
/// rows that another shard's queries had cached (or leased, at hot
/// threshold 2) in the serial run.
Workload shared_initiators() {
  Workload w;
  w.cfg = base_config(0);
  w.policy.cache.enabled = true;
  w.policy.cache.hot_threshold = 2;
  for (std::size_t i = 0; i < 30; ++i) {
    w.queries.push_back(query_template(i % 9, i % 4));
    w.initiators.push_back(i % 3);
  }
  return w;
}

/// Eight queries from eight initiators that all read the foaf:knows row
/// inside OPTIONAL while the ninth storage node, one of its providers, is
/// down. The first give-up purges the dead provider from the row; serially,
/// later lookups see the purged row, but a shard that did not make the
/// report still timed out on the provider.
Workload shared_keys() {
  Workload w;
  w.cfg = base_config(0);
  w.pre_failed.push_back(kStorageNodes - 1);
  for (std::size_t i = 0; i < 8; ++i) {
    w.queries.push_back(query_template(3, 0));
    w.initiators.push_back(i);
  }
  return w;
}

/// A coupling only the static key set shows: caching off, the ninth
/// storage node down. Query 0 gives up on it while scanning foaf:knows
/// and purges it from that row. Query 1, in the other shard, first times
/// out on it twice in its own chain, then looks the foaf:knows row up
/// inside OPTIONAL, after the purge. It never scans that row (the empty
/// pattern beside it ends the join early), so its log does not carry the
/// key, but serially its lookup returns one provider fewer.
Workload lookup_only_key() {
  Workload w;
  w.cfg = base_config(0);
  w.pre_failed.push_back(kStorageNodes - 1);
  w.queries = {
      query_template(0, 0),
      "SELECT ?x ?n ?y WHERE { ?x foaf:name ?n . ?x foaf:nick ?k . "
      "OPTIONAL { ?x foaf:knows ?y . ?y foaf:name \"nobody\" . } }",
  };
  w.initiators = {0, 1};
  return w;
}

// Sharding by initiator removes the cache coupling: the batch stays
// parallel. The shared keys are true couplings: the batch reruns serially.

TEST(ParallelDifferentialNamed, SharedInitiatorsWorkers2) {
  EXPECT_EQ(expect_parallel_matches_serial(shared_initiators(), 2),
            Path::kParallel);
}

TEST(ParallelDifferentialNamed, SharedInitiatorsWorkers4) {
  EXPECT_EQ(expect_parallel_matches_serial(shared_initiators(), 4),
            Path::kParallel);
}

TEST(ParallelDifferentialNamed, SharedKeysWorkers2) {
  EXPECT_EQ(expect_parallel_matches_serial(shared_keys(), 2), Path::kRerun);
}

TEST(ParallelDifferentialNamed, SharedKeysWorkers4) {
  EXPECT_EQ(expect_parallel_matches_serial(shared_keys(), 4), Path::kRerun);
}

TEST(ParallelDifferentialNamed, KeyOnlyLookedUp) {
  EXPECT_EQ(expect_parallel_matches_serial(lookup_only_key(), 2),
            Path::kRerun);
}

}  // namespace
}  // namespace ahsw::dqp
