#include "dqp/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <optional>
// ahsw-lint: allow(D1) worker threads carry no simulated time: each shard is
// a self-contained deterministic sub-simulation on a cloned overlay, and the
// merge below fixes the global order by (time, query, task) — the scheduler
// still models all parallelism; threads only shrink wall-clock time.
#include <thread>

#include "dqp/executor.hpp"
#include "sparql/ast.hpp"

namespace ahsw::dqp {

namespace {

/// One worker's world: a private copy of the network + overlay, the shard's
/// queries with their original batch-wide ids, and (for traced batches) the
/// shard-local span forest the master grafts. Declared after `network` so
/// the trace unbinds before its network dies. The worker thread writes only
/// its own shard's `result` and `log`; the join below orders both before
/// the master reads them.
struct Shard {
  std::vector<BatchQuery> queries;
  std::vector<std::uint32_t> qids;
  net::Network network;
  std::unique_ptr<overlay::HybridOverlay> overlay;
  BatchOptions opts;
  BatchResult result;
  StateLog log;
  obs::QueryTrace trace;
};

/// Merge-order key: state actions carry their enclosing fire's event key;
/// injections sort under the reserved injection query id exactly as the
/// serial event loop pops them. `action == nullptr` marks an injection
/// (task = injection index).
struct MergeEntry {
  net::SimTime at = 0;
  std::uint32_t qid = 0;
  std::uint32_t task = 0;
  std::uint32_t seq = 0;
  const StateAction* action = nullptr;
};

[[nodiscard]] bool merge_less(const MergeEntry& a,
                              const MergeEntry& b) noexcept {
  if (a.at != b.at) return a.at < b.at;
  if (a.qid != b.qid) return a.qid < b.qid;
  if (a.task != b.task) return a.task < b.task;
  return a.seq < b.seq;
}

/// Where a query ran: its shard and its position among the shard's queries.
struct Slot {
  std::uint32_t shard = 0;
  std::uint32_t index = 0;
};

/// The row keys a query's lookups can read. The executor locates the triple
/// patterns of the WHERE clause and, for DESCRIBE, (t, ?, ?) and (?, ?, t)
/// per target t. A variable target is bound only at run time, so such a
/// query may read `any` key.
struct TouchedKeys {
  std::vector<chord::Key> keys;
  bool any = false;
};

void add_pattern_keys(const overlay::HybridOverlay& ov,
                      const sparql::GroupPattern& g, TouchedKeys* out) {
  for (const sparql::GroupElement& e : g.elements) {
    if (e.kind == sparql::GroupElement::Kind::kTriple) {
      if (std::optional<chord::Key> k = ov.row_key(e.triple)) {
        out->keys.push_back(*k);
      }
    }
    for (const sparql::GroupPattern& sub : e.groups) {
      add_pattern_keys(ov, sub, out);
    }
  }
}

[[nodiscard]] TouchedKeys touched_keys(const overlay::HybridOverlay& ov,
                                       const sparql::Query& q) {
  TouchedKeys out;
  add_pattern_keys(ov, q.where, &out);
  for (const rdf::PatternTerm& target : q.describe_targets) {
    const rdf::Term* t = rdf::term_of(target);
    if (t == nullptr) {
      out.any = true;
      continue;
    }
    for (const rdf::TriplePattern& p :
         {rdf::TriplePattern{*t, rdf::Variable{"p"}, rdf::Variable{"o"}},
          rdf::TriplePattern{rdf::Variable{"s"}, rdf::Variable{"p"}, *t}}) {
      if (std::optional<chord::Key> k = ov.row_key(p)) out.keys.push_back(*k);
    }
  }
  return out;
}

/// The coupling check: a row key that a dead-provider report in one shard
/// carries and that another shard touches, through its log or through a
/// pattern of one of its queries. Such a report purges a row another shard
/// read, or may have read, on its clone without the purge, so the merged
/// result could differ from the serial one. Keys without a report need no
/// check: cache actions stay within their initiator's shard and replay in
/// serial order.
[[nodiscard]] std::optional<chord::Key> coupled_key(
    const overlay::HybridOverlay& ov, const std::vector<Shard>& shards) {
  std::map<chord::Key, std::size_t> reported;  // key -> first reporting shard
  for (std::size_t w = 0; w < shards.size(); ++w) {
    for (const StateAction& a : shards[w].log) {
      if (a.kind == StateAction::Kind::kReportDead) {
        reported.emplace(a.key, w);
      }
    }
  }
  if (reported.empty()) return std::nullopt;
  const auto elsewhere = [&reported](chord::Key key, std::size_t w) {
    const auto it = reported.find(key);
    return it != reported.end() && it->second != w;
  };
  for (std::size_t w = 0; w < shards.size(); ++w) {
    for (const StateAction& a : shards[w].log) {
      if (elsewhere(a.key, w)) return a.key;
    }
    for (const BatchQuery& q : shards[w].queries) {
      const TouchedKeys touched = touched_keys(ov, q.query);
      for (chord::Key key : touched.keys) {
        if (elsewhere(key, w)) return key;
      }
      if (!touched.any) continue;
      for (const auto& [key, reporter] : reported) {
        if (reporter != w) return key;
      }
    }
  }
  return std::nullopt;
}

}  // namespace

bool parallel_batch_eligible(const BatchOptions& opts, std::size_t batch_size,
                             std::string* reason) noexcept {
  const auto reject = [reason](const char* why) {
    if (reason != nullptr) *reason = why;
    return false;
  };
  if (opts.workers <= 1) return reject("workers=1");
  if (batch_size < 2) return reject("single-query batch");
  if (opts.service.service_ms > 0) return reject("service model on");
  if (!opts.injections.empty() && !opts.injection_factory) {
    return reject("injections without factory");
  }
  return true;
}

std::optional<BatchResult> run_parallel_batch(
    overlay::HybridOverlay& overlay, const ExecutionPolicy& policy,
    const std::vector<BatchQuery>& batch, const BatchOptions& opts,
    obs::QueryTrace* trace, std::string* reason) {
  assert(parallel_batch_eligible(opts, batch.size()) &&
         "run_parallel_batch: caller must check eligibility");
  const auto refuse = [reason](std::string why) {
    if (reason != nullptr) *reason = std::move(why);
    return std::nullopt;
  };

  // -- partition: one shard per initiator, round robin ----------------------
  // Initiators take shards in order of first appearance, so all of one
  // initiator's queries (and its location cache) live in one shard.
  const std::size_t workers = static_cast<std::size_t>(opts.workers);
  std::map<net::NodeAddress, std::uint32_t> shard_of;
  std::vector<Slot> slots(batch.size());
  for (std::size_t qid = 0; qid < batch.size(); ++qid) {
    slots[qid].shard =
        shard_of
            .emplace(batch[qid].initiator,
                     static_cast<std::uint32_t>(shard_of.size() % workers))
            .first->second;
  }
  if (shard_of.size() == 1) return refuse("one initiator");
  std::vector<Shard> shards(std::min(workers, shard_of.size()));
  for (std::size_t qid = 0; qid < batch.size(); ++qid) {
    Shard& s = shards[slots[qid].shard];
    slots[qid].index = static_cast<std::uint32_t>(s.queries.size());
    s.queries.push_back(batch[qid]);
    s.qids.push_back(static_cast<std::uint32_t>(qid));
  }

  // -- clone: each worker gets a private copy of the world ------------------
  // Clones are built serially on the master thread; injection factories may
  // consult master-side structures (the fault harness's schedule) while
  // binding their events to the clone.
  for (Shard& s : shards) {
    s.network = overlay.network();
    s.network.set_tracer(nullptr);
    s.network.set_timeout_tracer(nullptr);
    // Traced batch: the shard records its spans into a private trace bound
    // to the cloned network. Worker-side injection applications charge
    // while no span is open, land in the private trace's unattributed
    // counters, and are discarded — the master replay below re-charges
    // them once, against the caller's trace, exactly as a serial run.
    if (trace != nullptr) s.trace.bind(s.network);
    // Cloning after binding: clone-construction traffic (none today) would
    // land unattributed in the shard trace, never in a query span.
    s.overlay = overlay.clone_for_worker(s.network);
    // clone_for_worker drops the master's trace pointer; re-attach the
    // shard-private one so the clone's lookups/repairs open their nested
    // spans in the shard forest, exactly as the master overlay does when
    // the serial driver runs traced.
    if (trace != nullptr) s.overlay->set_trace(&s.trace);
    s.opts.service = opts.service;
    s.opts.label_query_ids = opts.label_query_ids;
    if (opts.injection_factory) {
      // Faults are broadcast: every shard observes the full schedule on its
      // own world, so cross-shard queries see identical failure timelines.
      s.opts.injections = opts.injection_factory(*s.overlay);
    }
  }

  // -- execute shards on worker threads ------------------------------------
  // ahsw-lint: allow(D1) see file header — shard runs are deterministic and
  // share nothing; thread scheduling cannot reorder any simulated event.
  std::vector<std::thread> pool;
  pool.reserve(shards.size());
  for (Shard& s : shards) {
    // ahsw-lint: allow(D1) one deterministic shard per thread.
    pool.emplace_back([&s, &policy, trace]() {
      DagExecutor exec(*s.overlay, policy,
                       trace != nullptr ? &s.trace : nullptr, s.opts);
      exec.set_state_log(&s.log);
      s.result = exec.run(s.queries, s.qids);
    });
  }
  for (std::thread& t : pool) t.join();  // ahsw-lint: allow(D1) barrier only

  // -- coupling check, before the master is touched ------------------------
  // A coupled batch goes back to the caller, which reruns it serially from
  // the state the shards were cloned from.
  if (const std::optional<chord::Key> key = coupled_key(overlay, shards)) {
    return refuse("coupled: key " +
                  std::to_string(overlay.ring().truncate(*key)));
  }

  // -- merge: replay shard mutations + master injections in serial order ---
  std::vector<MergeEntry> entries;
  std::size_t total_actions = 0;
  for (const Shard& s : shards) total_actions += s.log.size();
  entries.reserve(total_actions + opts.injections.size());
  for (const Shard& s : shards) {
    for (const StateAction& a : s.log) {
      entries.push_back(MergeEntry{a.at, a.qid, a.task, a.seq, &a});
    }
  }
  for (std::size_t i = 0; i < opts.injections.size(); ++i) {
    entries.push_back(MergeEntry{opts.injections[i].at,
                                 net::kInjectionQueryId,
                                 static_cast<std::uint32_t>(i), 0, nullptr});
  }
  std::sort(entries.begin(), entries.end(), merge_less);

  // Traced batch: graft each query's span subtree from its shard's private
  // trace onto the caller's, in query-id order — before the replay below,
  // because the serial driver opens every query root at setup (t = 0) and
  // only then applies injections, and the merged forest must list its
  // roots in that same order. Span ids are remapped by the graft;
  // root_spans carries the master-side ids.
  std::vector<obs::SpanId> merged_roots(batch.size(), obs::kNoSpan);
  if (trace != nullptr) {
    for (std::size_t qid = 0; qid < batch.size(); ++qid) {
      const Shard& s = shards[slots[qid].shard];
      const obs::SpanId root = s.result.root_spans[slots[qid].index];
      if (root == obs::kNoSpan) continue;
      merged_roots[qid] = trace->adopt_subtree(s.trace, root);
    }
  }

  net::Network& net = overlay.network();
  const net::Network::Tracer tracer = net.tracer();
  const net::Network::TimeoutTracer timeout_tracer = net.timeout_tracer();
  for (const MergeEntry& e : entries) {
    if (e.action == nullptr) {
      // Master-bound injection: charges traffic, notifies tracers, and
      // opens overlay spans (repair rounds) exactly as the serial event
      // loop would — with no span open they become roots, in time order.
      const InjectedEvent& inj = opts.injections[e.task];
      if (inj.apply) inj.apply(e.at);
      continue;
    }
    // State-action replay: the shard already charged this mutation's
    // traffic into its query's report (fire() delta accounting) and
    // recorded its spans in the shard forest grafted above, so the master
    // replay must not re-charge, re-notify observers, or re-open spans —
    // the overlay's trace detaches along with the network tracers.
    const net::TrafficStats saved = net.stats();
    net.set_tracer(nullptr);
    net.set_timeout_tracer(nullptr);
    if (trace != nullptr) overlay.set_trace(nullptr);
    (void)apply(overlay, *e.action);
    if (trace != nullptr) overlay.set_trace(trace);
    net.set_tracer(tracer);
    net.set_timeout_tracer(timeout_tracer);
    net.restore_stats(saved);
  }

  // Lazy re-attachment is the one shard-side mutation outside the log: an
  // initiator whose index node died re-attached to the first live ring node
  // *at lookup time*. Each initiator ran in one shard only, so adopting that
  // shard's final attachment leaves the state serial execution would have
  // left.
  for (const Shard& s : shards) {
    for (const BatchQuery& q : s.queries) {
      if (!overlay.is_storage_node(q.initiator)) continue;
      overlay.storage_state(q.initiator).attached_index =
          s.overlay->storage_state(q.initiator).attached_index;
    }
  }

  // -- assemble: per-query outputs slot back by id --------------------------
  BatchResult out;
  out.results.resize(batch.size());
  out.reports.resize(batch.size());
  out.root_spans.assign(batch.size(), obs::kNoSpan);
  out.worker_makespans.assign(shards.size(), 0.0);
  for (std::size_t w = 0; w < shards.size(); ++w) {
    Shard& s = shards[w];
    out.worker_makespans[w] = s.result.makespan;
    out.makespan = std::max(out.makespan, s.result.makespan);
    for (std::size_t i = 0; i < s.qids.size(); ++i) {
      out.results[s.qids[i]] = std::move(s.result.results[i]);
      out.reports[s.qids[i]] = std::move(s.result.reports[i]);
    }
  }

  out.root_spans = std::move(merged_roots);

  // Master traffic total = pre-batch counters + injection charges (already
  // applied above) + every query's report delta — the same decomposition
  // the serial driver's per-fire accounting produces.
  net::TrafficStats total = net.stats();
  for (const ExecutionReport& rep : out.reports) {
    total.accumulate(rep.traffic);
  }
  net.restore_stats(total);

  return out;
}

}  // namespace ahsw::dqp
