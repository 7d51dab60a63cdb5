// The StateLog round trip (src/dqp/state_log.hpp): `apply` is the one
// mutation both sides of the parallel driver run — the executor as it
// makes each StateAction, the master as it replays a worker's log. So a
// serial run's log, replayed through `apply` onto a clone of the overlay
// taken before the run, must rebuild every piece of shared state a query
// mutates: the initiators' location caches and the lazily repaired location
// rows. No sharding is involved; this pins the record and replay paths
// themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "dqp/executor.hpp"
#include "dqp_test_util.hpp"

namespace ahsw::dqp {
namespace {

using testing::kPrologue;
using Kind = StateAction::Kind;

constexpr std::string_view kHotRow = "http://example.org/g#hot";
constexpr std::string_view kColdRow = "http://example.org/g#cold";
constexpr std::string_view kRowPredicate = "http://example.org/g#p";

rdf::Triple row_triple(std::string_view subject, const char* value) {
  return {rdf::Term::iri(std::string(subject)),
          rdf::Term::iri(std::string(kRowPredicate)),
          rdf::Term::literal(value)};
}

std::string row_query(std::string_view subject) {
  return std::string(kPrologue) + "SELECT ?o WHERE { <" +
         std::string(subject) + "> <" + std::string(kRowPredicate) +
         "> ?o . }";
}

void expect_caches_equal(const overlay::HybridOverlay& executed,
                         const overlay::HybridOverlay& replayed) {
  ASSERT_EQ(executed.caches().size(), replayed.caches().size());
  for (const auto& [initiator, cache] : executed.caches()) {
    SCOPED_TRACE(initiator);
    ASSERT_EQ(replayed.caches().count(initiator), 1u);
    const overlay::LocationCache& other = replayed.caches().at(initiator);
    const overlay::CacheStats& a = cache.stats();
    const overlay::CacheStats& b = other.stats();
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.expirations, b.expirations);
    EXPECT_EQ(a.insertions, b.insertions);
    EXPECT_EQ(a.leases, b.leases);
    ASSERT_EQ(cache.rows().size(), other.rows().size());
    for (const auto& [key, row] : cache.rows()) {
      ASSERT_EQ(other.rows().count(key), 1u) << key;
      const overlay::CachedRow& o = other.rows().at(key);
      EXPECT_EQ(row.providers, o.providers) << key;
      EXPECT_EQ(row.index_node, o.index_node) << key;
      EXPECT_EQ(row.inserted_at, o.inserted_at) << key;
      EXPECT_EQ(row.expires_at, o.expires_at) << key;
      EXPECT_EQ(row.leased, o.leased) << key;
      EXPECT_EQ(cache.access_count(key), other.access_count(key)) << key;
    }
  }
}

/// Every primary and replica row, and the tombstone of every published
/// (key, storage address) pair.
void expect_location_rows_equal(const overlay::HybridOverlay& executed,
                                const overlay::HybridOverlay& replayed) {
  std::set<chord::Key> keys;
  for (const auto& [addr, node] : executed.storage_nodes()) {
    for (const auto& [key, freq] : node.published) keys.insert(key);
  }
  ASSERT_EQ(executed.index_nodes().size(), replayed.index_nodes().size());
  for (const auto& [id, node] : executed.index_nodes()) {
    SCOPED_TRACE(id);
    const overlay::IndexNodeState& other = replayed.index_nodes().at(id);
    EXPECT_EQ(node.table.rows(), other.table.rows());
    EXPECT_EQ(node.replicas.rows(), other.replicas.rows());
    for (chord::Key key : keys) {
      for (const auto& [addr, storage] : executed.storage_nodes()) {
        EXPECT_EQ(node.table.tombstone_version(key, addr),
                  other.table.tombstone_version(key, addr))
            << key << " " << addr;
        EXPECT_EQ(node.replicas.tombstone_version(key, addr),
                  other.replicas.tombstone_version(key, addr))
            << key << " " << addr;
      }
    }
  }
}

workload::TestbedConfig config() {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 5;
  cfg.storage_nodes = 9;
  cfg.foaf.persons = 70;
  cfg.foaf.seed = 71;
  cfg.partition.overlap = 0.25;
  cfg.partition.seed = 72;
  cfg.overlay.seed = 73;
  cfg.overlay.replication_factor = 3;
  return cfg;
}

rdf::TriplePattern hot_pattern() {
  return {rdf::Term::iri(std::string(kHotRow)),
          rdf::Term::iri(std::string(kRowPredicate)), rdf::Variable{"o"}};
}

/// A cached, faulted policy on `bed`, prepared so that a run of
/// `cached_faulted_batch` makes every kind of StateAction. The hot row's
/// initiator has looked it up once, so its next insert is leased
/// (kSubscribe). The cold row's only provider is down, so its scans give up
/// (kCacheInvalidate, kReportDead).
ExecutionPolicy prepare_cached_faulted(workload::Testbed& bed) {
  overlay::HybridOverlay& ov = bed.overlay();
  const std::vector<net::NodeAddress>& nodes = bed.storage_addrs();
  ExecutionPolicy policy;
  policy.cache.enabled = true;
  policy.cache.hot_threshold = 2;
  policy.retry.max_retries = 1;
  ov.configure_caches(policy.cache);
  (void)ov.share_triples(nodes[7], {row_triple(kHotRow, "h")}, 0);
  (void)ov.share_triples(nodes[8], {row_triple(kColdRow, "c")}, 0);
  ov.storage_node_fail(nodes[8]);
  (void)ov.cache_for(nodes[0]).lookup(*ov.row_key(hot_pattern()), 0);
  return policy;
}

/// Two rounds of the hot row, the cold row and two FOAF scans, one
/// initiator per query text.
std::vector<BatchQuery> cached_faulted_batch(const workload::Testbed& bed) {
  const std::vector<net::NodeAddress>& nodes = bed.storage_addrs();
  const std::string texts[] = {
      row_query(kHotRow),
      row_query(kColdRow),
      std::string(kPrologue) + "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }",
      std::string(kPrologue) + "SELECT ?x ?n WHERE { ?x foaf:name ?n . }",
  };
  std::vector<BatchQuery> batch;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < std::size(texts); ++i) {
      batch.push_back(BatchQuery{sparql::parse_query(texts[i]), nodes[i]});
    }
  }
  return batch;
}

TEST(StateLog, ReplayThroughApplyRebuildsTheExecutedOverlay) {
  workload::Testbed bed(config());
  overlay::HybridOverlay& ov = bed.overlay();
  const std::vector<net::NodeAddress>& nodes = bed.storage_addrs();
  const ExecutionPolicy policy = prepare_cached_faulted(bed);

  net::Network clone_network = bed.network();
  const std::unique_ptr<overlay::HybridOverlay> replayed =
      ov.clone_for_worker(clone_network);

  const std::vector<BatchQuery> batch = cached_faulted_batch(bed);
  StateLog log;
  DagExecutor exec(ov, policy, nullptr);
  exec.set_state_log(&log);
  (void)exec.run(batch);

  std::set<Kind> kinds;
  for (const StateAction& a : log) kinds.insert(a.kind);
  for (Kind k : {Kind::kCacheLookup, Kind::kCacheInsert, Kind::kSubscribe,
                 Kind::kCacheInvalidate, Kind::kReportDead}) {
    EXPECT_EQ(kinds.count(k), 1u)
        << "no action of kind " << static_cast<int>(k);
  }

  for (const StateAction& a : log) (void)apply(*replayed, a);

  expect_caches_equal(ov, *replayed);
  expect_location_rows_equal(ov, *replayed);
  // A lease is also the owner's subscription: a write to the hot row must
  // push the same invalidations on both overlays.
  const net::TrafficStats executed_before = bed.network().stats();
  const net::TrafficStats replayed_before = clone_network.stats();
  (void)ov.share_triples(nodes[6], {row_triple(kHotRow, "h2")}, 0);
  (void)replayed->share_triples(nodes[6], {row_triple(kHotRow, "h2")}, 0);
  const net::TrafficStats a =
      bed.network().stats().delta_since(executed_before);
  const net::TrafficStats b =
      clone_network.stats().delta_since(replayed_before);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  expect_caches_equal(ov, *replayed);
}

TEST(StateLog, AttachingALogDoesNotChangeTheRun) {
  // The log is an observer: the same batch run with and without one must
  // leave the same answers, reports, traffic and overlay state.
  workload::Testbed plain_bed(config());
  workload::Testbed logged_bed(config());
  const ExecutionPolicy policy = prepare_cached_faulted(plain_bed);
  (void)prepare_cached_faulted(logged_bed);

  DagExecutor plain(plain_bed.overlay(), policy, nullptr);
  const BatchResult a = plain.run(cached_faulted_batch(plain_bed));
  StateLog log;
  DagExecutor logged(logged_bed.overlay(), policy, nullptr);
  logged.set_state_log(&log);
  const BatchResult b = logged.run(cached_faulted_batch(logged_bed));
  EXPECT_FALSE(log.empty());

  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.results[i].solutions.rows(), b.results[i].solutions.rows());
    EXPECT_EQ(a.reports[i].response_time, b.reports[i].response_time);
    EXPECT_EQ(a.reports[i].traffic.messages, b.reports[i].traffic.messages);
    EXPECT_EQ(a.reports[i].traffic.bytes, b.reports[i].traffic.bytes);
    EXPECT_EQ(a.reports[i].cache.hits, b.reports[i].cache.hits);
    EXPECT_EQ(a.reports[i].dead_providers_skipped,
              b.reports[i].dead_providers_skipped);
  }
  EXPECT_EQ(plain_bed.network().stats().messages,
            logged_bed.network().stats().messages);
  EXPECT_EQ(plain_bed.network().stats().bytes,
            logged_bed.network().stats().bytes);
  expect_caches_equal(plain_bed.overlay(), logged_bed.overlay());
  expect_location_rows_equal(plain_bed.overlay(), logged_bed.overlay());
}

/// `apply` one action kind at a time on a cached overlay with one published
/// hot row (provider: storage node 7).
class StateLogApply : public ::testing::Test {
 protected:
  StateLogApply() : bed_(config()) {
    overlay::CacheConfig cache;
    cache.enabled = true;
    cache.hot_threshold = 2;
    ov().configure_caches(cache);
    (void)ov().share_triples(nodes()[7], {row_triple(kHotRow, "h")}, 0);
    key_ = *ov().row_key(hot_pattern());
  }

  overlay::HybridOverlay& ov() { return bed_.overlay(); }
  const std::vector<net::NodeAddress>& nodes() const {
    return bed_.storage_addrs();
  }
  const overlay::LocationCache& cache(std::size_t node) {
    return ov().cache_for(nodes()[node]);
  }

  /// An action on the hot row by storage node 0.
  StateAction make(Kind kind, net::SimTime when) const {
    StateAction a;
    a.kind = kind;
    a.when = when;
    a.initiator = nodes()[0];
    a.key = key_;
    return a;
  }
  StateAction make_insert(net::SimTime when) const {
    StateAction a = make(Kind::kCacheInsert, when);
    a.providers = {overlay::Provider{nodes()[7], 1, 0}};
    a.index_node = 42;
    return a;
  }

  workload::Testbed bed_;
  chord::Key key_ = 0;
};

TEST_F(StateLogApply, CacheLookupCountsAMissThenAHit) {
  const Applied miss = apply(ov(), make(Kind::kCacheLookup, 1));
  EXPECT_EQ(miss.row, nullptr);
  EXPECT_FALSE(miss.changed);

  const StateAction insert = make_insert(2);
  (void)apply(ov(), insert);
  const Applied hit = apply(ov(), make(Kind::kCacheLookup, 3));
  ASSERT_NE(hit.row, nullptr);
  EXPECT_EQ(hit.row->providers, insert.providers);
  EXPECT_EQ(hit.row->index_node, 42u);
  EXPECT_EQ(hit.row->inserted_at, 2);

  EXPECT_EQ(cache(0).stats().misses, 1u);
  EXPECT_EQ(cache(0).stats().hits, 1u);
  EXPECT_EQ(cache(0).stats().insertions, 1u);
  EXPECT_EQ(cache(0).access_count(key_), 2u);
}

TEST_F(StateLogApply, CacheLookupExpiresByTheActionsTime) {
  // Expiry is decided by the recorded `when`, not by when the action is
  // applied, so a replay expires exactly the rows the run expired.
  (void)apply(ov(), make_insert(0));
  const net::SimTime ttl = ov().cache_config().ttl_ms;
  EXPECT_NE(apply(ov(), make(Kind::kCacheLookup, ttl - 1)).row, nullptr);
  EXPECT_EQ(apply(ov(), make(Kind::kCacheLookup, ttl)).row, nullptr);
  EXPECT_EQ(cache(0).stats().expirations, 1u);
  EXPECT_EQ(cache(0).stats().misses, 1u);
  EXPECT_TRUE(cache(0).rows().empty());
}

TEST_F(StateLogApply, CacheInsertLeasesOnlyAHotKey) {
  const overlay::CacheConfig& config = ov().cache_config();
  EXPECT_FALSE(apply(ov(), make_insert(0)).changed);
  EXPECT_FALSE(cache(0).rows().at(key_).leased);
  EXPECT_EQ(cache(0).rows().at(key_).expires_at, config.ttl_ms);

  // Two lookups reach the hot threshold: the next insert is leased.
  (void)apply(ov(), make(Kind::kCacheLookup, 1));
  (void)apply(ov(), make(Kind::kCacheLookup, 1));
  EXPECT_TRUE(apply(ov(), make_insert(5)).changed);
  EXPECT_TRUE(cache(0).rows().at(key_).leased);
  EXPECT_EQ(cache(0).rows().at(key_).expires_at, 5 + config.hot_ttl_ms);
  EXPECT_EQ(cache(0).stats().insertions, 2u);
  EXPECT_EQ(cache(0).stats().leases, 1u);
}

TEST_F(StateLogApply, CacheInvalidateReportsWhetherARowWasDropped) {
  const StateAction invalidate = make(Kind::kCacheInvalidate, 0);
  EXPECT_FALSE(apply(ov(), invalidate).changed);
  EXPECT_EQ(cache(0).stats().invalidations, 0u);

  (void)apply(ov(), make_insert(0));
  EXPECT_TRUE(apply(ov(), invalidate).changed);
  EXPECT_TRUE(cache(0).rows().empty());
  EXPECT_FALSE(apply(ov(), invalidate).changed);
  EXPECT_EQ(cache(0).stats().invalidations, 1u);
}

TEST_F(StateLogApply, SubscribeMakesTheNextOwnerWriteDropTheRow) {
  // Node 0 subscribes; node 1 caches the same row without a lease.
  (void)apply(ov(), make_insert(0));
  (void)apply(ov(), make(Kind::kSubscribe, 0));
  StateAction other = make_insert(0);
  other.initiator = nodes()[1];
  (void)apply(ov(), other);

  (void)ov().share_triples(nodes()[6], {row_triple(kHotRow, "h2")}, 0);
  EXPECT_TRUE(cache(0).rows().empty());
  EXPECT_EQ(cache(0).stats().invalidations, 1u);
  EXPECT_EQ(cache(1).rows().count(key_), 1u);

  // The subscription is one-shot: a second write leaves a re-cached row.
  (void)apply(ov(), make_insert(1));
  (void)ov().share_triples(nodes()[5], {row_triple(kHotRow, "h3")}, 1);
  EXPECT_EQ(cache(0).rows().count(key_), 1u);
  EXPECT_EQ(cache(0).stats().invalidations, 1u);
}

TEST_F(StateLogApply, ReportDeadPurgesThePrimaryRowAndItsReplicas) {
  const net::NodeAddress dead = nodes()[7];
  auto lists_dead = [dead](const std::vector<overlay::Provider>& row) {
    return std::any_of(row.begin(), row.end(),
                       [dead](const overlay::Provider& p) {
                         return p.address == dead;
                       });
  };
  std::size_t holders = 0;
  for (const auto& [id, node] : ov().index_nodes()) {
    holders += lists_dead(node.table.lookup(key_)) ? 1u : 0u;
    holders += lists_dead(node.replicas.lookup(key_)) ? 1u : 0u;
  }
  ASSERT_GT(holders, 1u) << "the row must be replicated";

  StateAction report = make(Kind::kReportDead, 1);
  report.dead = dead;
  const std::uint64_t messages_before = bed_.network().stats().messages;
  (void)apply(ov(), report);
  EXPECT_GT(bed_.network().stats().messages, messages_before);

  std::size_t tombstones = 0;
  for (const auto& [id, node] : ov().index_nodes()) {
    SCOPED_TRACE(id);
    EXPECT_FALSE(lists_dead(node.table.lookup(key_)));
    EXPECT_FALSE(lists_dead(node.replicas.lookup(key_)));
    if (node.table.tombstone_version(key_, dead).has_value()) ++tombstones;
    if (node.replicas.tombstone_version(key_, dead).has_value()) ++tombstones;
  }
  EXPECT_EQ(tombstones, holders);
}

TEST_F(StateLogApply, ActionsTouchOnlyTheirInitiatorsCache) {
  // Caches are keyed by initiator, which keeps shards with distinct
  // initiators independent of each other.
  (void)apply(ov(), make(Kind::kCacheLookup, 0));
  (void)apply(ov(), make_insert(0));
  (void)apply(ov(), make(Kind::kCacheInvalidate, 0));
  (void)apply(ov(), make_insert(1));
  EXPECT_EQ(cache(0).rows().count(key_), 1u);
  EXPECT_EQ(cache(0).stats().insertions, 2u);

  const overlay::LocationCache& other = cache(1);
  EXPECT_TRUE(other.rows().empty());
  EXPECT_EQ(other.access_count(key_), 0u);
  EXPECT_EQ(other.stats().misses, 0u);
  EXPECT_EQ(other.stats().insertions, 0u);
  EXPECT_EQ(other.stats().invalidations, 0u);
}

/// The recorder on the same overlay: what it appends and what it hands
/// back to the executor.
class StateLogRecorder : public StateLogApply {};

TEST_F(StateLogRecorder, WithoutALogItAppliesButRecordsNothing) {
  StateLog log;
  RecordingOverlay rec(ov());
  rec.attach(&log);
  (void)rec.cache_lookup(nodes()[0], key_, 0);
  ASSERT_EQ(log.size(), 1u);

  rec.attach(nullptr);
  (void)rec.cache_lookup(nodes()[0], key_, 1);
  rec.subscribe(nodes()[0], key_, 1);
  (void)rec.cache_invalidate(nodes()[0], key_, 1);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(cache(0).stats().misses, 2u);
}

TEST_F(StateLogRecorder, StampsEachActionWithItsFireAndProgramOrder) {
  StateLog log;
  RecordingOverlay rec(ov());
  rec.attach(&log);
  rec.enter_fire(net::ReadyEvent{5, 2, 3});
  (void)rec.cache_lookup(nodes()[0], key_, 7);
  rec.subscribe(nodes()[1], key_, 8);
  rec.enter_fire(net::ReadyEvent{9, 1, 4});
  rec.report_dead(nodes()[2], key_, nodes()[7], 10);

  ASSERT_EQ(log.size(), 3u);
  const Kind kinds[] = {Kind::kCacheLookup, Kind::kSubscribe,
                        Kind::kReportDead};
  const net::SimTime at[] = {5, 5, 9};
  const std::uint32_t qid[] = {2, 2, 1};
  const std::uint32_t task[] = {3, 3, 4};
  const net::SimTime when[] = {7, 8, 10};
  for (std::size_t i = 0; i < log.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(log[i].kind, kinds[i]);
    EXPECT_EQ(log[i].at, at[i]);
    EXPECT_EQ(log[i].qid, qid[i]);
    EXPECT_EQ(log[i].task, task[i]);
    EXPECT_EQ(log[i].seq, i);
    EXPECT_EQ(log[i].when, when[i]);
    EXPECT_EQ(log[i].initiator, nodes()[i]);
    EXPECT_EQ(log[i].key, key_);
  }
  EXPECT_EQ(log[2].dead, nodes()[7]);
}

TEST_F(StateLogRecorder, CacheInsertHandsTheProvidersBack) {
  const std::vector<overlay::Provider> providers = {
      overlay::Provider{nodes()[7], 1, 0}, overlay::Provider{nodes()[6], 2, 1}};
  overlay::HybridOverlay::Located loc;
  loc.providers = providers;
  loc.index_node = 42;
  loc.completed_at = 12;

  RecordingOverlay rec(ov());
  (void)rec.cache_insert(nodes()[0], key_, loc);
  EXPECT_EQ(loc.providers, providers);
  EXPECT_EQ(cache(0).rows().at(key_).providers, providers);
  EXPECT_EQ(cache(0).rows().at(key_).inserted_at, 12);

  StateLog log;
  rec.attach(&log);
  (void)rec.cache_insert(nodes()[1], key_, loc);
  EXPECT_EQ(loc.providers, providers);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].kind, Kind::kCacheInsert);
  EXPECT_EQ(log[0].providers, providers);
  EXPECT_EQ(log[0].index_node, 42u);
  EXPECT_EQ(log[0].when, 12);
}

TEST_F(StateLogRecorder, ReplayReturnsWhatTheRecorderReturned) {
  net::Network clone_network = bed_.network();
  const std::unique_ptr<overlay::HybridOverlay> replayed =
      ov().clone_for_worker(clone_network);

  StateLog log;
  RecordingOverlay rec(ov());
  rec.attach(&log);
  overlay::HybridOverlay::Located loc;
  loc.providers = {overlay::Provider{nodes()[7], 1, 0}};
  loc.index_node = 42;
  std::vector<bool> returned;
  returned.push_back(rec.cache_lookup(nodes()[0], key_, 0) != nullptr);
  returned.push_back(rec.cache_insert(nodes()[0], key_, loc));
  returned.push_back(rec.cache_lookup(nodes()[0], key_, 1) != nullptr);
  returned.push_back(rec.cache_lookup(nodes()[0], key_, 2) != nullptr);
  returned.push_back(rec.cache_insert(nodes()[0], key_, loc));
  rec.subscribe(nodes()[0], key_, 2);
  returned.push_back(false);
  returned.push_back(rec.cache_invalidate(nodes()[0], key_, 3));
  returned.push_back(rec.cache_invalidate(nodes()[0], key_, 3));
  rec.report_dead(nodes()[0], key_, nodes()[7], 4);
  returned.push_back(false);
  // Miss, unleased insert, two hits, leased insert, subscribe, a dropped
  // row, nothing left to drop, the repair.
  EXPECT_EQ(returned, (std::vector<bool>{false, false, true, true, true,
                                         false, true, false, false}));

  ASSERT_EQ(log.size(), returned.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    SCOPED_TRACE(i);
    const Applied applied = apply(*replayed, log[i]);
    const bool got = log[i].kind == Kind::kCacheLookup
                         ? applied.row != nullptr
                         : applied.changed;
    EXPECT_EQ(got, returned[i]);
  }
  expect_caches_equal(ov(), *replayed);
  expect_location_rows_equal(ov(), *replayed);
}

}  // namespace
}  // namespace ahsw::dqp
