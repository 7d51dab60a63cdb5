// The deterministic parallel batch driver (src/dqp/parallel.cpp): with
// workers > 1, every observable of a batch — per-query results, full
// reports, network-wide traffic, and the master overlay's end state — must
// be byte-identical to the serial driver. The batches here have distinct
// initiators and shard-local row keys, so each of them runs on the parallel
// path (tests/dqp/parallel_differential_test.cpp covers the batches that
// do not). Also pins worker-makespan attribution, the fault-broadcast path,
// the post-run replay guarantee (a second batch behaves as if the first ran
// serially), and the fallbacks to the serial driver.
#include <gtest/gtest.h>

#include <algorithm>

#include "dqp/parallel.hpp"
#include "dqp_test_util.hpp"
#include "fault/harness.hpp"

namespace ahsw::dqp {
namespace {

using testing::canon;
using testing::kPrologue;

workload::TestbedConfig config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 5;
  cfg.storage_nodes = 8;
  cfg.foaf.persons = 70;
  cfg.foaf.seed = 71;
  cfg.partition.overlap = 0.25;
  cfg.partition.seed = 72;
  cfg.overlay.seed = 73;
  return cfg;
}

/// Eight queries, one per storage node: distinct initiators keep the
/// queries in one shard per initiator at any worker count.
std::vector<std::string> batch_queries() {
  const char* bodies[] = {
      "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }",
      "SELECT ?x ?n WHERE { ?x foaf:name ?n . ?x foaf:nick ?k . }",
      "SELECT ?x ?y ?n WHERE { ?x foaf:knows ?y . "
      "OPTIONAL { ?y foaf:nick ?n . } }",
      "SELECT ?x WHERE { { ?x foaf:nick ?n . } UNION "
      "{ ?x foaf:mbox ?m . } }",
      "SELECT ?x ?n WHERE { ?x foaf:name ?n . FILTER regex(?n, \"a\") }",
      "ASK { ?x foaf:knows ?y . }",
      "SELECT ?o WHERE { <http://example.org/people/p1> foaf:knows ?o . }",
      "SELECT DISTINCT ?n WHERE { ?x foaf:name ?n . } ORDER BY ?n LIMIT 5",
  };
  std::vector<std::string> out;
  for (const char* b : bodies) out.push_back(std::string(kPrologue) + b);
  return out;
}

std::vector<net::NodeAddress> distinct_initiators(const workload::Testbed& bed,
                                                  std::size_t n) {
  std::vector<net::NodeAddress> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(bed.storage_addrs()[i % bed.storage_addrs().size()]);
  }
  return out;
}

void expect_stats_equal(const net::TrafficStats& a, const net::TrafficStats& b,
                        const char* what) {
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.raw_bytes, b.raw_bytes) << what;
  EXPECT_EQ(a.timeouts, b.timeouts) << what;
  for (int c = 0; c < net::kCategoryCount; ++c) {
    EXPECT_EQ(a.messages_by[c], b.messages_by[c]) << what << " category " << c;
    EXPECT_EQ(a.bytes_by[c], b.bytes_by[c]) << what << " category " << c;
    EXPECT_EQ(a.timeouts_by[c], b.timeouts_by[c]) << what << " category " << c;
  }
}

/// Field-by-field report identity — byte-identical means *everything*, not
/// just the headline counters.
void expect_reports_identical(const ExecutionReport& a,
                              const ExecutionReport& b, std::size_t i) {
  expect_stats_equal(a.traffic, b.traffic, "report traffic");
  EXPECT_EQ(a.response_time, b.response_time) << i;
  EXPECT_EQ(a.index_lookups, b.index_lookups) << i;
  EXPECT_EQ(a.ring_hops, b.ring_hops) << i;
  EXPECT_EQ(a.providers_contacted, b.providers_contacted) << i;
  EXPECT_EQ(a.dead_providers_skipped, b.dead_providers_skipped) << i;
  EXPECT_EQ(a.retries, b.retries) << i;
  EXPECT_EQ(a.relookups, b.relookups) << i;
  EXPECT_EQ(a.cache.hits, b.cache.hits) << i;
  EXPECT_EQ(a.cache.misses, b.cache.misses) << i;
  EXPECT_EQ(a.cache.invalidations, b.cache.invalidations) << i;
  EXPECT_EQ(a.cache.expirations, b.cache.expirations) << i;
  EXPECT_EQ(a.cache.insertions, b.cache.insertions) << i;
  EXPECT_EQ(a.cache.leases, b.cache.leases) << i;
  EXPECT_EQ(a.complete, b.complete) << i;
  EXPECT_EQ(a.plan_notes, b.plan_notes) << i;
}

void expect_batches_identical(const BatchResult& a, const BatchResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  ASSERT_EQ(a.reports.size(), b.reports.size());
  EXPECT_EQ(a.makespan, b.makespan);
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].solutions.rows(), b.results[i].solutions.rows())
        << i;
    EXPECT_EQ(a.results[i].ask_answer, b.results[i].ask_answer) << i;
    EXPECT_EQ(a.results[i].graph, b.results[i].graph) << i;
    expect_reports_identical(a.reports[i], b.reports[i], i);
  }
}

struct RunOutcome {
  BatchResult batch;
  net::TrafficStats delta;       // network-wide traffic of the batch
  net::TrafficStats end_stats;   // absolute counters after the batch
};

RunOutcome run_batch(workload::Testbed& bed, int workers, bool cache_on,
                     bool reconfigure = true) {
  DistributedQueryProcessor proc(bed.overlay());
  proc.policy().cache.enabled = cache_on;
  // configure_caches clears all cache state; skip it when a later batch
  // must observe the rows merged by an earlier one.
  if (cache_on && reconfigure) {
    bed.overlay().configure_caches(proc.policy().cache);
  }
  std::vector<std::string> queries = batch_queries();
  BatchOptions opts;
  opts.workers = workers;
  const net::TrafficStats before = bed.network().stats();
  RunOutcome out;
  out.batch = proc.execute_batch(
      queries, distinct_initiators(bed, queries.size()), opts);
  out.end_stats = bed.network().stats();
  out.delta = out.end_stats.delta_since(before);
  return out;
}

TEST(ParallelBatch, ByteIdenticalToSerialAcrossWorkerCounts) {
  workload::Testbed serial_bed(config());
  RunOutcome serial = run_batch(serial_bed, /*workers=*/1, /*cache_on=*/false);
  EXPECT_TRUE(serial.batch.worker_makespans.empty());

  for (int workers : {2, 4, 8}) {
    workload::Testbed bed(config());
    RunOutcome parallel = run_batch(bed, workers, /*cache_on=*/false);
    expect_batches_identical(serial.batch, parallel.batch);
    expect_stats_equal(serial.delta, parallel.delta, "network delta");
    ASSERT_EQ(parallel.batch.worker_makespans.size(),
              static_cast<std::size_t>(workers))
        << workers;
    EXPECT_EQ(*std::max_element(parallel.batch.worker_makespans.begin(),
                                parallel.batch.worker_makespans.end()),
              parallel.batch.makespan)
        << workers;
  }
}

TEST(ParallelBatch, WorkerMakespanAttributionFollowsPartition) {
  const int workers = 4;
  workload::Testbed bed(config());
  RunOutcome r = run_batch(bed, workers, /*cache_on=*/false);
  ASSERT_EQ(r.batch.worker_makespans.size(), static_cast<std::size_t>(workers));
  // Partition rule is by initiator, round robin in order of first
  // appearance; with one distinct initiator per query that puts query qid
  // on worker qid % workers, so each worker's makespan is the max response
  // time over exactly its residue class.
  for (int w = 0; w < workers; ++w) {
    net::SimTime expect = 0;
    for (std::size_t qid = 0; qid < r.batch.reports.size(); ++qid) {
      if (qid % static_cast<std::size_t>(workers) ==
          static_cast<std::size_t>(w)) {
        expect = std::max(expect, r.batch.reports[qid].response_time);
      }
    }
    EXPECT_EQ(r.batch.worker_makespans[static_cast<std::size_t>(w)], expect)
        << w;
  }
}

TEST(ParallelBatch, CacheStateLogReplayMatchesSerial) {
  // With caching on, workers mutate their clones' caches; the state-log
  // replay must leave the master byte-identical to serial — checked both
  // directly (first batch identical) and through the replay guarantee
  // (an identical *second* serial batch on each system behaves identically,
  // which is only possible if cache rows, access counts and subscriptions
  // merged exactly).
  workload::Testbed serial_bed(config());
  RunOutcome serial_1 = run_batch(serial_bed, /*workers=*/1, /*cache_on=*/true);

  workload::Testbed parallel_bed(config());
  RunOutcome parallel_1 =
      run_batch(parallel_bed, /*workers=*/4, /*cache_on=*/true);

  expect_batches_identical(serial_1.batch, parallel_1.batch);
  expect_stats_equal(serial_1.delta, parallel_1.delta, "first-batch delta");
  expect_stats_equal(serial_1.end_stats, parallel_1.end_stats,
                     "absolute end stats");

  const overlay::CacheStats cs = serial_bed.overlay().cache_stats_total();
  const overlay::CacheStats cp = parallel_bed.overlay().cache_stats_total();
  EXPECT_EQ(cs.hits, cp.hits);
  EXPECT_EQ(cs.misses, cp.misses);
  EXPECT_EQ(cs.invalidations, cp.invalidations);
  EXPECT_EQ(cs.expirations, cp.expirations);
  EXPECT_EQ(cs.insertions, cp.insertions);
  EXPECT_EQ(cs.leases, cp.leases);

  // Replay guarantee: the second (serial) batch sees identical caches.
  RunOutcome serial_2 = run_batch(serial_bed, /*workers=*/1, /*cache_on=*/true,
                                  /*reconfigure=*/false);
  RunOutcome parallel_2 = run_batch(parallel_bed, /*workers=*/1,
                                    /*cache_on=*/true, /*reconfigure=*/false);
  expect_batches_identical(serial_2.batch, parallel_2.batch);
  expect_stats_equal(serial_2.delta, parallel_2.delta, "second-batch delta");
  // The second batch must differ from the first (hits where the first
  // missed) or this test would not be exercising merged cache state.
  EXPECT_NE(serial_2.delta.messages, serial_1.delta.messages);
}

TEST(ParallelBatch, CachedBatchWithUnevenShardsMatchesSerial) {
  // Three workers over eight queries: shards of three, three and two
  // queries, so the per-shard logs differ in length and the replay merges
  // them unevenly.
  workload::Testbed serial_bed(config());
  RunOutcome serial = run_batch(serial_bed, /*workers=*/1, /*cache_on=*/true);
  workload::Testbed parallel_bed(config());
  RunOutcome parallel =
      run_batch(parallel_bed, /*workers=*/3, /*cache_on=*/true);

  ASSERT_EQ(parallel.batch.worker_makespans.size(), 3u);
  expect_batches_identical(serial.batch, parallel.batch);
  expect_stats_equal(serial.delta, parallel.delta, "network delta");
  const overlay::CacheStats cs = serial_bed.overlay().cache_stats_total();
  const overlay::CacheStats cp = parallel_bed.overlay().cache_stats_total();
  EXPECT_GT(cs.insertions, 0u);
  EXPECT_EQ(cs.hits, cp.hits);
  EXPECT_EQ(cs.misses, cp.misses);
  EXPECT_EQ(cs.insertions, cp.insertions);
  EXPECT_EQ(cs.leases, cp.leases);
}

TEST(ParallelBatch, MoreWorkersThanQueriesRunsOneShardPerQuery) {
  // Workers beyond the batch size are not started: sixteen requested over
  // eight queries gives eight single-query shards, each with its own log.
  workload::Testbed serial_bed(config());
  RunOutcome serial = run_batch(serial_bed, /*workers=*/1, /*cache_on=*/true);
  workload::Testbed parallel_bed(config());
  RunOutcome parallel =
      run_batch(parallel_bed, /*workers=*/16, /*cache_on=*/true);

  ASSERT_EQ(parallel.batch.worker_makespans.size(), batch_queries().size());
  for (std::size_t w = 0; w < parallel.batch.worker_makespans.size(); ++w) {
    EXPECT_EQ(parallel.batch.worker_makespans[w],
              parallel.batch.reports[w].response_time)
        << w;
  }
  expect_batches_identical(serial.batch, parallel.batch);
  expect_stats_equal(serial.end_stats, parallel.end_stats,
                     "absolute end stats");
}

constexpr std::string_view kHotRow = "http://example.org/g#hot";
constexpr std::string_view kColdRow = "http://example.org/g#cold";
constexpr std::string_view kRowPredicate = "http://example.org/g#p";

rdf::Triple row_triple(std::string_view subject, const char* value) {
  return {rdf::Term::iri(std::string(subject)),
          rdf::Term::iri(std::string(kRowPredicate)),
          rdf::Term::literal(value)};
}

/// Sixteen single-pattern queries in eight residue classes (qid % 8). Class
/// r runs twice from initiator r and reads row keys no other class reads,
/// so no lazy purge couples two shards at any worker count in {2, 4, 8}.
/// Class 0 reads the hot row, class 1 the cold row, the others FOAF rows.
std::vector<std::string> lease_and_give_up_queries() {
  auto row_query = [](std::string_view subject) {
    return "SELECT ?o WHERE { <" + std::string(subject) + "> <" +
           std::string(kRowPredicate) + "> ?o . }";
  };
  const std::string bodies[] = {
      row_query(kHotRow),
      row_query(kColdRow),
      "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }",
      "SELECT ?x ?n WHERE { ?x foaf:name ?n . }",
      "SELECT ?x ?k WHERE { ?x foaf:nick ?k . }",
      "SELECT ?x ?m WHERE { ?x foaf:mbox ?m . }",
      "SELECT ?o WHERE { <http://example.org/people/p1> foaf:knows ?o . }",
      "ASK { <http://example.org/people/p2> foaf:knows ?y . }",
  };
  std::vector<std::string> out;
  for (int round = 0; round < 2; ++round) {
    for (const std::string& b : bodies) {
      out.push_back(std::string(kPrologue) + b);
    }
  }
  return out;
}

struct LeaseOutcome {
  RunOutcome first;
  overlay::CacheStats cache;    // every initiator's cache after the first
  net::TrafficStats hot_write;  // a new provider of the hot row, after it
  RunOutcome second;            // a serial batch after that
};

/// Nine storage nodes: the first eight initiate, the ninth fails before the
/// batch. The hot class's initiator has looked the hot row up once before,
/// so with a hot threshold of 2 its first lookup in the batch leases the
/// row (a kSubscribe action); the hot row's provider stays up, so only a
/// later write to the row ends the lease. The cold row's one provider is
/// the failed node: its scans retry once, then give up and invalidate the
/// unleased cached row (a kCacheInvalidate action), as the FOAF classes'
/// scans that reach the failed node do.
LeaseOutcome run_lease_and_give_up(int workers) {
  workload::TestbedConfig cfg = config();
  cfg.storage_nodes = 9;
  workload::Testbed bed(cfg);
  overlay::HybridOverlay& ov = bed.overlay();
  const std::vector<net::NodeAddress>& nodes = bed.storage_addrs();
  DistributedQueryProcessor proc(ov);
  proc.policy().cache.enabled = true;
  proc.policy().cache.hot_threshold = 2;
  proc.policy().retry.max_retries = 1;
  ov.configure_caches(proc.policy().cache);

  (void)ov.share_triples(nodes[7], {row_triple(kHotRow, "h")}, 0);
  (void)ov.share_triples(nodes[8], {row_triple(kColdRow, "c")}, 0);
  ov.storage_node_fail(nodes[8]);
  const rdf::TriplePattern hot{rdf::Term::iri(std::string(kHotRow)),
                               rdf::Term::iri(std::string(kRowPredicate)),
                               rdf::Variable{"o"}};
  (void)ov.cache_for(nodes[0]).lookup(*ov.row_key(hot), 0);

  const std::vector<std::string> queries = lease_and_give_up_queries();
  std::vector<net::NodeAddress> initiators;
  for (std::size_t qid = 0; qid < queries.size(); ++qid) {
    initiators.push_back(nodes[qid % 8]);
  }
  LeaseOutcome out;
  auto batch = [&](RunOutcome& r, int w) {
    BatchOptions opts;
    opts.workers = w;
    const net::TrafficStats before = bed.network().stats();
    r.batch = proc.execute_batch(queries, initiators, opts);
    r.end_stats = bed.network().stats();
    r.delta = r.end_stats.delta_since(before);
  };
  batch(out.first, workers);
  out.cache = ov.cache_stats_total();
  const net::TrafficStats before = bed.network().stats();
  (void)ov.share_triples(nodes[6], {row_triple(kHotRow, "h2")}, 0);
  out.hot_write = bed.network().stats().delta_since(before);
  batch(out.second, /*workers=*/1);
  return out;
}

TEST(ParallelBatch, CacheLeaseAndGiveUpReplayMatchesSerial) {
  // The replay of kSubscribe and kCacheInvalidate: a lease taken and a row
  // invalidated on a worker's clone must reach the master exactly as a
  // serial run leaves them. A lost subscription shows in the hot row's
  // write (no invalidation push); a lost invalidation in the second batch
  // (a cache hit where serial misses).
  const LeaseOutcome serial = run_lease_and_give_up(/*workers=*/1);
  EXPECT_GT(serial.cache.leases, 0u) << "the hot row must be leased";
  EXPECT_GT(serial.cache.invalidations, 0u) << "no give-up invalidated a row";
  int skipped = 0;
  for (const ExecutionReport& r : serial.first.batch.reports) {
    skipped += r.dead_providers_skipped;
  }
  EXPECT_GT(skipped, 0) << "the failed node must be a provider";

  for (int workers : {2, 4, 8}) {
    SCOPED_TRACE(workers);
    const LeaseOutcome parallel = run_lease_and_give_up(workers);
    ASSERT_EQ(parallel.first.batch.worker_makespans.size(),
              static_cast<std::size_t>(workers));
    expect_batches_identical(serial.first.batch, parallel.first.batch);
    expect_stats_equal(serial.first.delta, parallel.first.delta,
                       "first-batch delta");
    EXPECT_EQ(serial.cache.hits, parallel.cache.hits);
    EXPECT_EQ(serial.cache.misses, parallel.cache.misses);
    EXPECT_EQ(serial.cache.invalidations, parallel.cache.invalidations);
    EXPECT_EQ(serial.cache.expirations, parallel.cache.expirations);
    EXPECT_EQ(serial.cache.insertions, parallel.cache.insertions);
    EXPECT_EQ(serial.cache.leases, parallel.cache.leases);
    expect_stats_equal(serial.hot_write, parallel.hot_write, "hot-row write");
    expect_batches_identical(serial.second.batch, parallel.second.batch);
    expect_stats_equal(serial.second.delta, parallel.second.delta,
                       "second-batch delta");
    expect_stats_equal(serial.second.end_stats, parallel.second.end_stats,
                       "absolute end stats");
  }
}

/// Faulted batches: four queries from four initiators whose patterns share
/// row keys only within a worker's shard at workers=2 (knows on even qids,
/// name/nick on odd), so no lazy dead-provider repair couples two shards.
std::vector<std::string> fault_queries() {
  const char* bodies[] = {
      "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }",
      "SELECT ?x ?n WHERE { ?x foaf:name ?n . }",
      "ASK { ?x foaf:knows ?y . }",
      "SELECT ?x WHERE { ?x foaf:nick ?k . }",
  };
  std::vector<std::string> out;
  for (const char* b : bodies) out.push_back(std::string(kPrologue) + b);
  return out;
}

struct FaultOutcome {
  fault::FaultRunResult run;
  net::TrafficStats delta;
  BatchResult second;  // serial batch after convergence (replay guarantee)
};

FaultOutcome run_faulted(workload::Testbed& bed, int workers,
                         DistributedQueryProcessor* ext_proc = nullptr) {
  DistributedQueryProcessor own_proc(bed.overlay());
  // Traced variants pass their own processor (with a trace attached).
  DistributedQueryProcessor& proc = ext_proc != nullptr ? *ext_proc : own_proc;
  std::vector<std::string> texts = fault_queries();
  std::vector<BatchQuery> batch;
  std::vector<net::NodeAddress> inits = distinct_initiators(bed, texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    batch.push_back(BatchQuery{sparql::parse_query(texts[i]), inits[i]});
  }
  // Victim: a provider that is nobody's initiator. Fails early enough to
  // hit scans, recovers + rejoins later, with a repair pass in between.
  const net::NodeAddress victim = bed.storage_addrs()[5];
  fault::FaultSchedule schedule;
  schedule.storage_fail(4.0, victim)
      .repair(500.0)
      .recover(600.0, victim)
      .rejoin(650.0, victim);

  BatchOptions opts;
  opts.workers = workers;
  FaultOutcome out;
  const net::TrafficStats before = bed.network().stats();
  out.run = fault::run_with_faults(proc, bed.overlay(), batch, schedule, opts);
  out.delta = bed.network().stats().delta_since(before);
  fault::converge(bed.overlay(), 1000.0);
  out.second = proc.execute_batch(batch, BatchOptions{});
  return out;
}

TEST(ParallelBatch, FaultBroadcastMatchesSerial) {
  workload::Testbed serial_bed(config());
  FaultOutcome serial = run_faulted(serial_bed, /*workers=*/1);

  workload::Testbed parallel_bed(config());
  FaultOutcome parallel = run_faulted(parallel_bed, /*workers=*/2);

  // The fault must actually bite, or this pins nothing.
  int skipped = 0;
  for (const ExecutionReport& rep : serial.run.batch.reports) {
    skipped += rep.dead_providers_skipped;
  }
  EXPECT_GT(skipped, 0);

  expect_batches_identical(serial.run.batch, parallel.run.batch);
  expect_stats_equal(serial.delta, parallel.delta, "faulted delta");
  EXPECT_EQ(serial.run.injection_log.applied,
            parallel.run.injection_log.applied);
  EXPECT_EQ(serial.run.injection_log.skipped,
            parallel.run.injection_log.skipped);
  EXPECT_EQ(serial.run.availability.successful,
            parallel.run.availability.successful);
  EXPECT_EQ(serial.run.availability.affected,
            parallel.run.availability.affected);

  // Replay guarantee after faults: purges, tombstones and re-attachments
  // merged onto the master leave the converged system byte-identical.
  expect_batches_identical(serial.second, parallel.second);
}

TEST(ParallelBatch, FallsBackToSerialWhenIneligible) {
  // Direct eligibility checks, each with its surfaced reason.
  BatchOptions opts;
  std::string reason;
  opts.workers = 4;
  EXPECT_TRUE(parallel_batch_eligible(opts, 8));
  EXPECT_FALSE(parallel_batch_eligible(opts, 1, &reason));
  EXPECT_EQ(reason, "single-query batch");
  opts.workers = 1;
  EXPECT_FALSE(parallel_batch_eligible(opts, 8, &reason));
  EXPECT_EQ(reason, "workers=1");
  opts.workers = 4;
  opts.service.service_ms = 1.0;
  EXPECT_FALSE(parallel_batch_eligible(opts, 8, &reason));
  EXPECT_EQ(reason, "service model on");
  opts.service.service_ms = 0.0;
  opts.injections.push_back(InjectedEvent{1.0, "noop", {}});
  EXPECT_FALSE(parallel_batch_eligible(opts, 8, &reason));
  EXPECT_EQ(reason, "injections without factory");
  opts.injection_factory = [](overlay::HybridOverlay&) {
    return std::vector<InjectedEvent>{};
  };
  EXPECT_TRUE(parallel_batch_eligible(opts, 8));

  // A batch that asked for workers but was refused runs serial
  // (worker_makespans empty — the observable marker of the serial driver)
  // and says why in every report's plan notes.
  workload::Testbed bed(config());
  DistributedQueryProcessor proc(bed.overlay());
  std::vector<std::string> queries = batch_queries();
  BatchOptions wopts;
  wopts.workers = 4;
  wopts.service.service_ms = 1.0;
  BatchResult r = proc.execute_batch(
      queries, distinct_initiators(bed, queries.size()), wopts);
  EXPECT_TRUE(r.worker_makespans.empty());
  ASSERT_EQ(r.reports.size(), queries.size());
  for (const ExecutionReport& rep : r.reports) {
    EXPECT_EQ(rep.plan_notes.back(),
              "parallel: serial fallback (service model on)");
  }

  // A batch with one initiator has nothing to shard: it runs serially and
  // says so.
  workload::Testbed one_bed(config());
  DistributedQueryProcessor one_proc(one_bed.overlay());
  BatchOptions one_opts;
  one_opts.workers = 4;
  BatchResult one = one_proc.execute_batch(
      queries,
      std::vector<net::NodeAddress>(queries.size(),
                                    one_bed.storage_addrs().front()),
      one_opts);
  EXPECT_TRUE(one.worker_makespans.empty());
  for (const ExecutionReport& rep : one.reports) {
    EXPECT_EQ(rep.plan_notes.back(),
              "parallel: serial fallback (one initiator)");
  }

  // A serial run with workers = 1 carries no fallback note: nothing was
  // refused.
  workload::Testbed serial_bed(config());
  DistributedQueryProcessor serial_proc(serial_bed.overlay());
  BatchResult s = serial_proc.execute_batch(
      queries, distinct_initiators(serial_bed, queries.size()),
      BatchOptions{});
  for (const ExecutionReport& rep : s.reports) {
    for (const std::string& note : rep.plan_notes) {
      EXPECT_EQ(note.find("serial fallback"), std::string::npos);
    }
  }
}

/// Structural + counter identity of two span subtrees (field-by-field —
/// byte-identical means the rendered trace, EXPLAIN and every per-span
/// traffic figure agree, not just the tree shape).
void expect_subtrees_identical(const obs::QueryTrace& a, obs::SpanId ia,
                               const obs::QueryTrace& b, obs::SpanId ib) {
  const obs::Span& sa = a.span(ia);
  const obs::Span& sb = b.span(ib);
  EXPECT_EQ(sa.kind, sb.kind);
  EXPECT_EQ(sa.label, sb.label);
  EXPECT_EQ(sa.site, sb.site);
  EXPECT_EQ(sa.begin, sb.begin);
  EXPECT_EQ(sa.end, sb.end);
  const net::TrafficStats& ta = sa.traffic;
  const net::TrafficStats& tb = sb.traffic;
  EXPECT_EQ(ta.messages, tb.messages) << sa.label;
  EXPECT_EQ(ta.bytes, tb.bytes) << sa.label;
  EXPECT_EQ(ta.timeouts, tb.timeouts) << sa.label;
  for (int c = 0; c < net::kCategoryCount; ++c) {
    EXPECT_EQ(ta.messages_by[c], tb.messages_by[c]) << sa.label;
    EXPECT_EQ(ta.bytes_by[c], tb.bytes_by[c]) << sa.label;
    EXPECT_EQ(ta.timeouts_by[c], tb.timeouts_by[c]) << sa.label;
  }
  EXPECT_EQ(sa.peers, sb.peers) << sa.label;
  ASSERT_EQ(sa.children.size(), sb.children.size()) << sa.label;
  for (std::size_t i = 0; i < sa.children.size(); ++i) {
    expect_subtrees_identical(a, sa.children[i], b, sb.children[i]);
  }
}

void expect_traces_identical(const obs::QueryTrace& a,
                             const std::vector<obs::SpanId>& roots_a,
                             const obs::QueryTrace& b,
                             const std::vector<obs::SpanId>& roots_b) {
  ASSERT_EQ(roots_a.size(), roots_b.size());
  ASSERT_EQ(a.roots().size(), b.roots().size());
  for (std::size_t q = 0; q < roots_a.size(); ++q) {
    ASSERT_NE(roots_a[q], obs::kNoSpan) << q;
    ASSERT_NE(roots_b[q], obs::kNoSpan) << q;
    expect_subtrees_identical(a, roots_a[q], b, roots_b[q]);
  }
  EXPECT_TRUE(a.unattributed() == b.unattributed());
}

TEST(ParallelBatch, TracedBatchByteIdenticalAcrossWorkerCounts) {
  // The lifted fallback: traced batches take the parallel path, workers
  // record private span forests, and the master grafts them back in query
  // order — span trees, EXPLAIN plan notes, reports and traffic all
  // byte-identical to a traced serial run.
  workload::Testbed serial_bed(config());
  DistributedQueryProcessor serial_proc(serial_bed.overlay());
  obs::QueryTrace serial_trace;
  serial_proc.set_trace(&serial_trace);
  std::vector<std::string> queries = batch_queries();
  const net::TrafficStats serial_before = serial_bed.network().stats();
  BatchResult serial = serial_proc.execute_batch(
      queries, distinct_initiators(serial_bed, queries.size()),
      BatchOptions{});
  const net::TrafficStats serial_delta =
      serial_bed.network().stats().delta_since(serial_before);
  serial_proc.set_trace(nullptr);
  // Traced runs must actually carry their EXPLAIN tree, or the plan-note
  // comparison below pins nothing.
  ASSERT_GT(serial.reports[0].plan_notes.size(), 0u);

  for (int workers : {2, 4, 8}) {
    workload::Testbed bed(config());
    DistributedQueryProcessor proc(bed.overlay());
    obs::QueryTrace trace;
    proc.set_trace(&trace);
    BatchOptions opts;
    opts.workers = workers;
    const net::TrafficStats before = bed.network().stats();
    BatchResult parallel = proc.execute_batch(
        queries, distinct_initiators(bed, queries.size()), opts);
    const net::TrafficStats delta = bed.network().stats().delta_since(before);
    proc.set_trace(nullptr);

    // The parallel driver must actually have run.
    ASSERT_EQ(parallel.worker_makespans.size(),
              static_cast<std::size_t>(workers))
        << workers;
    expect_batches_identical(serial, parallel);
    expect_stats_equal(serial_delta, delta, "traced network delta");
    expect_traces_identical(serial_trace, serial.root_spans, trace,
                            parallel.root_spans);
  }
}

TEST(ParallelBatch, TracedFaultedBatchMatchesSerial) {
  // Tracing composes with the fault-broadcast path: worker-side injection
  // applications land outside any span of the private traces and are
  // discarded; the master's replay charges them once against the caller's
  // trace, exactly like the serial event loop.
  workload::Testbed serial_bed(config());
  DistributedQueryProcessor serial_proc(serial_bed.overlay());
  obs::QueryTrace serial_trace;
  serial_proc.set_trace(&serial_trace);
  FaultOutcome serial = run_faulted(serial_bed, /*workers=*/1, &serial_proc);
  serial_proc.set_trace(nullptr);

  workload::Testbed parallel_bed(config());
  DistributedQueryProcessor parallel_proc(parallel_bed.overlay());
  obs::QueryTrace parallel_trace;
  parallel_proc.set_trace(&parallel_trace);
  FaultOutcome parallel = run_faulted(parallel_bed, /*workers=*/2,
                                      &parallel_proc);
  parallel_proc.set_trace(nullptr);

  int skipped = 0;
  for (const ExecutionReport& rep : serial.run.batch.reports) {
    skipped += rep.dead_providers_skipped;
  }
  EXPECT_GT(skipped, 0);

  ASSERT_EQ(parallel.run.batch.worker_makespans.size(), 2u);
  expect_batches_identical(serial.run.batch, parallel.run.batch);
  expect_stats_equal(serial.delta, parallel.delta, "traced faulted delta");
  // The faulted batch's span forest is the first batch_size roots; the
  // post-convergence serial batch appended more to both traces.
  expect_traces_identical(serial_trace, serial.run.batch.root_spans,
                          parallel_trace, parallel.run.batch.root_spans);
  // Injections charge outside any span: both traces must agree on the
  // unattributed remainder, and it must be non-zero or the shielding
  // contract above went untested.
  EXPECT_GT(serial_trace.unattributed().messages, 0u);
}

}  // namespace
}  // namespace ahsw::dqp
