// E8 — churn resilience (Sect. III-C/III-D): query completeness and repair
// traffic under storage- and index-node failures, with and without
// location-table replication.
//
// Expected shape: storage failures only remove the dead nodes' own data
// (answers stay correct w.r.t. live data, at a timeout cost that lazy
// repair eliminates after the first hit). Index failures lose location rows
// unless replication >= 2 masks them; republication restores service at a
// bounded index-traffic cost.
#include <deque>
#include <utility>

#include "bench_util.hpp"
#include "fault/harness.hpp"
#include "workload/generators.hpp"
#include "workload/queries.hpp"

namespace {

using namespace ahsw;

workload::TestbedConfig base_config(int replication) {
  workload::TestbedConfig cfg;
  cfg.index_nodes = 16;
  cfg.storage_nodes = 16;
  cfg.overlay.replication_factor = replication;
  cfg.foaf.persons = 300;
  cfg.foaf.seed = 91;
  cfg.partition.seed = 92;
  return cfg;
}

/// Fraction of oracle rows the distributed answer recovers (1.0 = complete).
double completeness(workload::Testbed& bed,
                    dqp::DistributedQueryProcessor& proc,
                    const std::string& query,
                    const sparql::SolutionSet& reference) {
  sparql::QueryResult dist =
      proc.execute(query, bed.storage_addrs().front(), nullptr);
  sparql::SolutionSet got = sparql::vec_deduplicated(dist.solutions);
  if (reference.empty()) return 1.0;
  std::size_t hit = 0;
  for (const sparql::Binding& b : reference.rows()) {
    for (const sparql::Binding& g : got.rows()) {
      if (b == g) {
        ++hit;
        break;
      }
    }
  }
  return static_cast<double>(hit) / static_cast<double>(reference.size());
}

const char* kQuery =
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
    "SELECT ?x ?o WHERE { ?x foaf:knows ?o . }";

void BM_Churn_StorageFailures(benchmark::State& state) {
  const int fail_pct = static_cast<int>(state.range(0));
  for (auto _ : state) {
    workload::Testbed bed(base_config(1));
    benchutil::maybe_audit(bed, "storage-fail/setup");
    dqp::DistributedQueryProcessor proc(bed.overlay());
    sparql::QueryResult before =
        proc.execute(kQuery, bed.storage_addrs().front(), nullptr);
    sparql::SolutionSet reference = sparql::vec_deduplicated(before.solutions);

    std::size_t to_fail = bed.storage_addrs().size() *
                          static_cast<std::size_t>(fail_pct) / 100;
    for (std::size_t i = 0; i < to_fail; ++i) {
      bed.overlay().storage_node_fail(bed.storage_addrs()[i + 1]);
    }
    benchutil::maybe_audit(bed, "storage-fail/failed", /*churned=*/true);
    bed.network().reset_stats();

    dqp::ExecutionReport first_rep;
    (void)proc.execute(kQuery, bed.storage_addrs().front(), &first_rep);
    dqp::ExecutionReport second_rep;
    (void)proc.execute(kQuery, bed.storage_addrs().front(), &second_rep);

    // Recall against the pre-failure answer: lost exactly the dead data.
    benchutil::record_raw_json(
        "storage-fail/pct=" + std::to_string(fail_pct) + "/first",
        first_rep.traffic, first_rep.response_time);
    benchutil::record_raw_json(
        "storage-fail/pct=" + std::to_string(fail_pct) + "/post-repair",
        second_rep.traffic, second_rep.response_time);

    state.counters["recall_vs_prefail"] =
        completeness(bed, proc, kQuery, reference);
    state.counters["first_timeouts"] =
        static_cast<double>(first_rep.traffic.timeouts);
    state.counters["post_repair_timeouts"] =
        static_cast<double>(second_rep.traffic.timeouts);
    state.counters["first_resp_ms"] = first_rep.response_time;
    state.counters["post_repair_resp_ms"] = second_rep.response_time;
  }
}

BENCHMARK(BM_Churn_StorageFailures)
    ->Arg(0)
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_Churn_IndexFailures(benchmark::State& state) {
  const int fail_count = static_cast<int>(state.range(0));
  const int replication = static_cast<int>(state.range(1));
  for (auto _ : state) {
    workload::TestbedConfig cfg = base_config(replication);
    workload::Testbed bed(cfg);
    benchutil::maybe_audit(bed, "index-fail/setup");
    dqp::DistributedQueryProcessor proc(bed.overlay());

    // Many primitive queries with distinct bound terms, so the probe set
    // touches many different index keys (a single query exercises only one
    // location-table row and would not see most failures).
    std::vector<std::string> probes;
    for (int i = 0; i < 25; ++i) {
      probes.push_back(
          "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
          "SELECT ?p ?o WHERE { <http://example.org/people/p" +
          std::to_string(i * 7) + "> ?p ?o . }");
    }
    std::vector<sparql::SolutionSet> references;
    for (const std::string& q : probes) {
      references.push_back(sparql::vec_deduplicated(
          proc.execute(q, bed.storage_addrs().front(), nullptr).solutions));
    }

    // Fail nodes spread around the ring (adjacent-id failures would kill an
    // owner together with its replicas and measure correlated loss instead
    // of the replication factor).
    std::vector<chord::Key> all_ids;
    for (const auto& [id, ix] : bed.overlay().index_nodes()) {
      all_ids.push_back(id);
    }
    std::vector<chord::Key> victims;
    std::size_t stride = all_ids.size() / static_cast<std::size_t>(fail_count);
    for (int i = 0; i < fail_count; ++i) {
      victims.push_back(all_ids[static_cast<std::size_t>(i) * stride]);
    }
    for (chord::Key v : victims) bed.overlay().index_node_fail(v);
    bed.network().reset_stats();
    bed.overlay().repair(0);
    bed.overlay().ring().fix_all_fingers_oracle();
    benchutil::maybe_audit(bed, "index-fail/repaired", /*churned=*/true);
    auto repair_msgs = bed.network().stats().messages;
    benchutil::record_raw_json("index-fail/fail=" + std::to_string(fail_count) +
                                   "/repl=" + std::to_string(replication) +
                                   "/repair",
                               bed.network().stats());

    auto mean_recall = [&]() {
      double sum = 0;
      for (std::size_t i = 0; i < probes.size(); ++i) {
        sum += completeness(bed, proc, probes[i], references[i]);
      }
      return sum / static_cast<double>(probes.size());
    };

    state.counters["recall_after_repair"] = mean_recall();
    state.counters["repair_msgs"] = static_cast<double>(repair_msgs);

    // Without replication, republication is the recovery path.
    bed.network().reset_stats();
    bed.overlay().republish_all(0);
    benchutil::maybe_audit(bed, "index-fail/republished", /*churned=*/true);
    state.counters["republish_msgs"] =
        static_cast<double>(bed.network().stats().messages);
    benchutil::record_raw_json("index-fail/fail=" + std::to_string(fail_count) +
                                   "/repl=" + std::to_string(replication) +
                                   "/republish",
                               bed.network().stats());
    state.counters["recall_after_republish"] = mean_recall();
  }
}

BENCHMARK(BM_Churn_IndexFailures)
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({1, 2})
    ->Args({2, 2})
    ->Args({4, 2})
    ->Args({4, 3})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// E8b — availability vs churn rate (Sect. III-D): a concurrent query batch
// runs while a seeded fault schedule crashes, recovers and rejoins storage
// nodes mid-flight. Sweeps the churn rate with the retry/backoff +
// re-lookup policy off and on; emits the availability metrics (success
// rate, retries per query, repair-convergence time) into the BENCH JSON.
void BM_Churn_Availability(benchmark::State& state) {
  const auto fails_per_second = static_cast<double>(state.range(0));
  const bool retry_on = state.range(1) != 0;
  for (auto _ : state) {
    workload::Testbed bed(base_config(2));
    benchutil::maybe_audit(bed, "availability/setup");

    dqp::ExecutionPolicy policy;
    if (retry_on) {
      policy.retry.max_retries = 2;
      policy.retry.relookup = true;
    }
    dqp::DistributedQueryProcessor proc(bed.overlay(), policy);

    // Primitive probes with distinct bound subjects issued from devices all
    // around the system, so the batch touches many providers and rows.
    std::vector<dqp::BatchQuery> batch;
    for (int i = 0; i < 24; ++i) {
      dqp::BatchQuery q;
      q.query = sparql::parse_query(
          "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
          "SELECT ?p ?o WHERE { <http://example.org/people/p" +
          std::to_string(i * 5) + "> ?p ?o . }");
      q.initiator = bed.storage_addrs()[static_cast<std::size_t>(i) %
                                        bed.storage_addrs().size()];
      batch.push_back(std::move(q));
    }

    fault::ChurnProfile profile;
    profile.horizon_ms = 600;
    profile.fails_per_second = fails_per_second;
    profile.recover_fraction = 0.75;
    profile.recover_delay_ms = 150;
    profile.repair_every_ms = 200;
    fault::FaultSchedule schedule =
        fault::FaultSchedule::generate(profile, bed.storage_addrs(), 17);

    fault::FaultRunResult res =
        fault::run_with_faults(proc, bed.overlay(), batch, schedule);

    state.counters["success_rate"] = res.availability.success_rate();
    state.counters["affected"] =
        static_cast<double>(res.availability.affected);
    state.counters["retries_per_q"] = res.availability.retries_per_query();
    state.counters["convergence_ms"] = res.availability.convergence_ms();
    state.counters["faults_applied"] =
        static_cast<double>(res.injection_log.applied);
    benchutil::record_mean_extra_json(
        state,
        "availability/rate=" + std::to_string(state.range(0)) +
            "/retry=" + std::to_string(retry_on ? 1 : 0),
        res.batch.reports, res.availability.to_extra());

    // Post-run convergence must leave no failed node referenced anywhere —
    // the I6 bar the resurrection bug used to fail.
    fault::converge(bed.overlay(), res.batch.makespan);
    check::AuditOptions converged;
    converged.converged = true;
    converged.churned = true;  // lenient on drift, strict on I6
    benchutil::maybe_audit(bed.overlay(), "availability/converged", converged);
  }
}

BENCHMARK(BM_Churn_Availability)
    ->Args({0, 0})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_Churn_IndexJoinSliceCost(benchmark::State& state) {
  // Index-node arrival (Sect. III-C): traffic of the location-table slice
  // transfer as the table grows.
  const auto persons = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    workload::TestbedConfig cfg = base_config(1);
    cfg.foaf.persons = persons;
    workload::Testbed bed(cfg);
    benchutil::maybe_audit(bed, "join-slice/setup");
    bed.network().reset_stats();
    bed.overlay().add_index_node(0);
    benchutil::maybe_audit(bed, "join-slice/joined", /*churned=*/true);
    auto idx = static_cast<std::size_t>(net::Category::kIndex);
    state.counters["slice_bytes"] =
        static_cast<double>(bed.network().stats().bytes_by[idx]);
    state.counters["join_msgs"] =
        static_cast<double>(bed.network().stats().messages);
    benchutil::record_raw_json("join-slice/persons=" + std::to_string(persons),
                               bed.network().stats());
  }
}

BENCHMARK(BM_Churn_IndexJoinSliceCost)
    ->Arg(100)
    ->Arg(300)
    ->Arg(1000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Host cost of replica maintenance (Sect. III-D): steady-state repair on
// the churn-rw overlay shape (64 index nodes, 32 storage nodes, 600 FOAF
// persons, replication 3). Nothing has failed and every write path has
// mirrored its change into the replica tables, so the replicas are in sync:
// each repair makes every send (a push per replica row held off its owner,
// one per owner entry and replica) but skips the reconcile and re-seed
// merges, which would change nothing. The counter is host time per replica
// row held (seconds, printed with an SI prefix). Host time only: no BENCH
// JSON record.
void BM_Repair(benchmark::State& state) {
  workload::TestbedConfig cfg = base_config(3);
  cfg.index_nodes = 64;
  cfg.storage_nodes = 32;
  cfg.foaf.persons = 600;
  workload::Testbed bed(cfg);
  // Settle before timing: after a repair whose merges changed rows the
  // next one merges again.
  bed.overlay().repair(0);
  bed.overlay().repair(0);
  std::size_t replica_rows = 0;
  for (const auto& [id, ix] : bed.overlay().index_nodes()) {
    replica_rows += ix.replicas.row_count();
  }
  for (auto _ : state) bed.overlay().repair(0);
  state.counters["replica_rows"] = static_cast<double>(replica_rows);
  state.counters["s_per_replica_row"] = benchmark::Counter(
      static_cast<double>(replica_rows),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

BENCHMARK(BM_Repair)->Unit(benchmark::kMillisecond);

// The same repair after an index-node failure, so it takes the full path:
// the ring drops the failed node, every replica row is reconciled into its
// current owner and every owner row re-seeded at its replicas. Before each
// timed repair (untimed) a fresh index node joins and one live node fails,
// keeping the ring at 64; the counter divides by the replica rows held
// after the first settle, as BM_Repair's does.
void BM_Repair_AfterIndexFail(benchmark::State& state) {
  workload::TestbedConfig cfg = base_config(3);
  cfg.index_nodes = 64;
  cfg.storage_nodes = 32;
  cfg.foaf.persons = 600;
  workload::Testbed bed(cfg);
  overlay::HybridOverlay& ov = bed.overlay();
  ov.repair(0);
  ov.repair(0);
  std::size_t replica_rows = 0;
  for (const auto& [id, ix] : ov.index_nodes()) {
    replica_rows += ix.replicas.row_count();
  }
  std::size_t round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ov.add_index_node(0);
    const std::vector<chord::Key> live = ov.ring().live_ids();
    ov.index_node_fail(live[(round++ * 7) % live.size()]);
    state.ResumeTiming();
    ov.repair(0);
  }
  state.counters["replica_rows"] = static_cast<double>(replica_rows);
  state.counters["s_per_replica_row"] = benchmark::Counter(
      static_cast<double>(replica_rows),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

BENCHMARK(BM_Repair_AfterIndexFail)->Unit(benchmark::kMillisecond);

// Host cost of storage-node rejoin (Sect. III-C): on the churn-rw overlay
// shape, every storage node in turn re-announces all of its published keys
// as snapshots, through the batched publish path (routing, owner writes and
// replica mirrors). The counter is host time per republished key (seconds,
// printed with an SI prefix). Host time only: no BENCH JSON record.
void BM_Rejoin(benchmark::State& state) {
  workload::TestbedConfig cfg = base_config(3);
  cfg.index_nodes = 64;
  cfg.storage_nodes = 32;
  cfg.foaf.persons = 600;
  workload::Testbed bed(cfg);
  std::size_t keys = 0;
  for (net::NodeAddress addr : bed.storage_addrs()) {
    keys += bed.overlay().storage_state(addr).published.size();
  }
  for (auto _ : state) {
    for (net::NodeAddress addr : bed.storage_addrs()) {
      bed.overlay().storage_node_rejoin(addr, 0);
    }
  }
  state.counters["keys"] = static_cast<double>(keys);
  state.counters["s_per_key"] = benchmark::Counter(
      static_cast<double>(keys),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

BENCHMARK(BM_Rejoin)->Unit(benchmark::kMillisecond);

// Host cost of graceful departure (Sect. III-C/III-D) on the churn-rw
// overlay shape. `index`: an index node leaves, so its successor absorbs
// the node's location-table slice and re-replicates it; before each timed
// leave (untimed) a fresh index node joins, keeping the ring at 64, and the
// counter is host time per moved row. `storage`: a storage node leaves,
// retracting every key it published through the batched publish path;
// each iteration takes another of the 32 storage nodes, and the counter is
// host time per retracted key. Host time only: no BENCH JSON record.
void BM_GracefulLeave(benchmark::State& state, bool index) {
  workload::TestbedConfig cfg = base_config(3);
  cfg.index_nodes = 64;
  cfg.storage_nodes = 32;
  cfg.foaf.persons = 600;
  workload::Testbed bed(cfg);
  overlay::HybridOverlay& ov = bed.overlay();
  std::size_t moved = 0;
  std::size_t round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (index) {
      ov.add_index_node(0);
      const std::vector<chord::Key> live = ov.ring().live_ids();
      const chord::Key id = live[(round++ * 7) % live.size()];
      moved += ov.index_nodes().at(id).table.row_count();
      state.ResumeTiming();
      ov.index_node_leave(id, 0);
    } else {
      const net::NodeAddress addr = bed.storage_addrs()[round++];
      moved += ov.storage_state(addr).published.size();
      state.ResumeTiming();
      ov.storage_node_leave(addr, 0);
    }
  }
  state.counters[index ? "rows" : "keys"] = static_cast<double>(moved);
  state.counters[index ? "s_per_row" : "s_per_key"] = benchmark::Counter(
      static_cast<double>(moved),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK_CAPTURE(BM_GracefulLeave, index, true)
    ->Iterations(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GracefulLeave, storage, false)
    ->Iterations(16)
    ->Unit(benchmark::kMillisecond);

// Host cost of storage-node writes once churn has buried many tombstones
// (Sect. III-C/III-D): on the churn-rw shape, rounds in which two rotating
// storage nodes share 150 fresh triples each, every write batch older than
// the newest four is unshared, and one storage node fails, is purged
// everywhere and rejoins. Unshares and purges bury (key, provider)
// tombstones, later shares and rejoins revive them. An untimed warm-up runs
// such rounds until the location tables hold kTombstonesPerEntry
// tombstones per live entry (at most kMaxWarmupRounds rounds); then each iteration is one more round, of
// which only the share_triples and unshare_triples calls are timed. The
// counter is host time per triple written (shared or unshared). Host time
// only: no BENCH JSON record.
class WriteChurn {
 public:
  static constexpr std::size_t kWriters = 2;
  static constexpr std::size_t kTriplesPerWrite = 150;
  static constexpr std::size_t kKeptBatches = 4;
  static constexpr std::size_t kTombstonesPerEntry = 3;
  static constexpr std::size_t kMaxWarmupRounds = 2000;

  WriteChurn(workload::Testbed& bed, workload::FoafConfig fresh) : bed_(bed) {
    fresh.seed = 93;
    fresh_ = workload::generate_foaf(fresh);
  }

  /// One round; returns the triples it shared and unshared. With `timed`,
  /// the benchmark timer runs only inside share_triples and
  /// unshare_triples.
  std::size_t round(benchmark::State* timed) {
    overlay::HybridOverlay& ov = bed_.overlay();
    const std::vector<net::NodeAddress>& addrs = bed_.storage_addrs();
    auto write = [&](auto&& call) {
      if (timed != nullptr) timed->ResumeTiming();
      call();
      if (timed != nullptr) timed->PauseTiming();
    };
    if (timed != nullptr) timed->PauseTiming();
    std::size_t triples = 0;
    for (std::size_t w = 0; w < kWriters; ++w) {
      const net::NodeAddress a = addrs[(round_ * kWriters + w) % addrs.size()];
      std::vector<rdf::Triple> chunk;
      for (std::size_t k = 0; k < kTriplesPerWrite; ++k) {
        chunk.push_back(fresh_[next_++ % fresh_.size()]);
      }
      write([&] { ov.share_triples(a, chunk, 0); });
      triples += chunk.size();
      written_.emplace_back(a, std::move(chunk));
    }
    while (written_.size() > kKeptBatches) {
      const auto [a, chunk] = std::move(written_.front());
      written_.pop_front();
      write([&] { ov.unshare_triples(a, chunk, 0); });
      triples += chunk.size();
    }
    const net::NodeAddress victim = addrs[(round_ * 5 + 3) % addrs.size()];
    ov.storage_node_fail(victim);
    ov.purge_failed_everywhere();
    bed_.network().recover(victim);
    ov.storage_node_rejoin(victim, 0);
    ++round_;
    if (timed != nullptr) timed->ResumeTiming();
    return triples;
  }

  /// Tombstones and live entries over every primary and replica table.
  /// A table's byte size is 8 + per row (8 + 16 per entry) + 20 per
  /// tombstone, so the tombstones are what the rows leave of it.
  [[nodiscard]] std::pair<std::size_t, std::size_t> tombstones_and_entries()
      const {
    std::size_t tombstones = 0;
    std::size_t entries = 0;
    for (const auto& [id, ix] : bed_.overlay().index_nodes()) {
      for (const overlay::LocationTable* t : {&ix.table, &ix.replicas}) {
        const std::size_t rows_bytes =
            8 + 8 * t->row_count() +
            overlay::LocationTable::kProviderBytes * t->entry_count();
        tombstones += (t->byte_size() - rows_bytes) /
                      overlay::LocationTable::kTombstoneBytes;
        entries += t->entry_count();
      }
    }
    return {tombstones, entries};
  }

 private:
  workload::Testbed& bed_;
  std::vector<rdf::Triple> fresh_;
  std::deque<std::pair<net::NodeAddress, std::vector<rdf::Triple>>> written_;
  std::size_t next_ = 0;
  std::size_t round_ = 0;
};

void BM_WriteChurn(benchmark::State& state) {
  workload::TestbedConfig cfg = base_config(3);
  cfg.index_nodes = 64;
  cfg.storage_nodes = 32;
  cfg.foaf.persons = 600;
  workload::Testbed bed(cfg);
  WriteChurn churn(bed, cfg.foaf);
  std::size_t warmup_rounds = 0;
  for (; warmup_rounds < WriteChurn::kMaxWarmupRounds; ++warmup_rounds) {
    const auto [tombstones, entries] = churn.tombstones_and_entries();
    if (tombstones >= WriteChurn::kTombstonesPerEntry * entries) break;
    churn.round(nullptr);
  }
  const auto [tombstones, entries] = churn.tombstones_and_entries();
  std::size_t triples = 0;
  for (auto _ : state) triples += churn.round(&state);
  state.counters["warmup_rounds"] = static_cast<double>(warmup_rounds);
  state.counters["tombstones_per_entry"] =
      static_cast<double>(tombstones) / static_cast<double>(entries);
  state.counters["s_per_triple"] = benchmark::Counter(
      static_cast<double>(triples),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_WriteChurn)
    ->Iterations(40)
    ->Unit(benchmark::kMillisecond);

}  // namespace
