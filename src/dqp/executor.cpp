#include "dqp/executor.hpp"

#include <algorithm>
#include <cassert>
#include <set>

#include "net/wire.hpp"
#include "obs/explain.hpp"
#include "sparql/ast.hpp"

namespace ahsw::dqp {

using optimizer::JoinSitePolicy;
using optimizer::PrimitiveStrategy;
using sparql::IdRows;

namespace {

[[nodiscard]] std::string_view form_name(sparql::QueryForm f) {
  switch (f) {
    case sparql::QueryForm::kSelect: return "SELECT";
    case sparql::QueryForm::kConstruct: return "CONSTRUCT";
    case sparql::QueryForm::kAsk: return "ASK";
    case sparql::QueryForm::kDescribe: return "DESCRIBE";
  }
  return "?";
}

inline constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

/// The column of `var` in `set`'s schema, or kNoColumn.
std::size_t column_of(const IdRows& set, std::string_view var) {
  auto it = std::lower_bound(set.vars.begin(), set.vars.end(), var);
  if (it == set.vars.end() || *it != var) return kNoColumn;
  return static_cast<std::size_t>(it - set.vars.begin());
}

/// `initiator`'s cache counters (zero before its cache exists).
overlay::CacheStats cache_stats(const overlay::HybridOverlay& ov,
                                net::NodeAddress initiator) {
  const auto it = ov.caches().find(initiator);
  return it == ov.caches().end() ? overlay::CacheStats{} : it->second.stats();
}

/// Move `end` to the back of `chain` if present (chains may be asked to
/// finish at an overlap node; relative order of the rest is preserved).
void rotate_end_to_back(std::vector<overlay::Provider>& chain,
                        net::NodeAddress end) {
  auto it = std::find_if(
      chain.begin(), chain.end(),
      [&](const overlay::Provider& p) { return p.address == end; });
  if (it == chain.end()) return;
  overlay::Provider saved = *it;
  chain.erase(it);
  chain.push_back(saved);
}

}  // namespace

// ---------------------------------------------------------------------------
// Primitives shared by every task kind.

overlay::HybridOverlay::Located DagExecutor::locate(
    const rdf::TriplePattern& p, net::NodeAddress initiator, net::SimTime now,
    ExecutionReport& rep) {
  overlay::HybridOverlay::Located loc = overlay_.locate(initiator, p, now);
  ++rep.index_lookups;
  rep.ring_hops += loc.hops;
  if (!loc.ok) rep.complete = false;
  return loc;
}

net::Charge DagExecutor::sized(Located& l) {
  if (!l.size.has_value()) l.size = net::wire::charge(l.set);
  return *l.size;
}

DagExecutor::Located DagExecutor::ship(Located from, net::NodeAddress target,
                                       net::Category category) {
  if (from.site == target) return from;
  from.ready_at =
      net().send(from.site, target, sized(from), from.ready_at, category);
  from.site = target;
  return from;
}

net::Charge DagExecutor::hop_payload(Task& scan) {
  const net::Charge payload =
      subquery_charge(scan.pattern) + net::wire::charge(*scan.acc);
  return scan.has_carry ? payload + sized(scan.carry) : payload;
}

std::optional<sparql::IdRows> DagExecutor::run_at_provider(
    net::NodeAddress provider, const sparql::BgpPattern& p, net::SimTime& now,
    ExecutionReport& rep) {
  if (net().is_failed(provider)) {
    now = net().timeout(now, provider, net::Category::kQuery);
    return std::nullopt;
  }
  ++rep.providers_contacted;
  sparql::LocalEngine engine(ov().store_of(provider));
  return engine.match_ids(p);
}

void DagExecutor::give_up_on_provider(net::NodeAddress provider,
                                      const sparql::BgpPattern& p,
                                      net::SimTime now,
                                      net::NodeAddress initiator,
                                      ExecutionReport& rep) {
  ++rep.dead_providers_skipped;
  const std::optional<chord::Key> key = ov().row_key(p.pattern);
  if (!key.has_value()) return;
  if (policy_.cache.enabled) {
    // Invalidate-on-timeout: the cached row listed a provider that just
    // exhausted its retries, so the next lookup of this key must re-fetch
    // instead of paying the dead-provider timeout again.
    const overlay::CacheStats before = cache_stats(ov(), initiator);
    if (overlay_.cache_invalidate(initiator, *key, now)) {
      obs::SpanScope span(
          trace_, obs::SpanKind::kCache,
          trace_ ? "invalidate key " +
                       std::to_string(ov().ring().truncate(*key))
                 : std::string(),
          now, initiator);
      span.finish(now);
    }
    rep.cache.accumulate(cache_stats(ov(), initiator).delta_since(before));
  }
  overlay_.report_dead(initiator, *key, provider, now);
}

std::pair<DagExecutor::Located, DagExecutor::Located> DagExecutor::colocate(
    Located a, Located b, net::NodeAddress initiator, ExecutionReport& rep) {
  std::vector<optimizer::SiteCandidate> candidates;
  if (policy_.join_site == JoinSitePolicy::kThirdSite) {
    for (net::NodeAddress addr : ov().live_storage_addresses()) {
      candidates.push_back(optimizer::SiteCandidate{
          addr, ov().storage_nodes().at(addr).capacity});
    }
  }
  // Operand sizes are the *charged* (wire-encoded) sizes: move-small
  // decisions follow what shipping actually costs under compression.
  net::NodeAddress site = optimizer::choose_join_site(
      policy_.join_site, optimizer::LocatedOperand{a.site, sized(a).wire()},
      optimizer::LocatedOperand{b.site, sized(b).wire()}, initiator,
      candidates);
  rep.plan_notes.push_back(
      std::string("join-site: ") +
      std::string(optimizer::join_site_policy_name(policy_.join_site)) +
      " -> node " + std::to_string(site));
  obs::SpanScope span(trace_, obs::SpanKind::kJoinSite,
                      "node " + std::to_string(site),
                      std::min(a.ready_at, b.ready_at), site);
  Located ca = ship(std::move(a), site, net::Category::kData);
  Located cb = ship(std::move(b), site, net::Category::kData);
  span.finish(std::max(ca.ready_at, cb.ready_at));
  return {std::move(ca), std::move(cb)};
}

obs::SpanId DagExecutor::open_span(obs::SpanKind kind, std::string label,
                                   net::SimTime at, net::NodeAddress site) {
  if (trace_ == nullptr) return obs::kNoSpan;
  return trace_->open(kind, std::move(label), at, site);
}

void DagExecutor::close_span(obs::SpanId span, net::SimTime end) {
  if (trace_ == nullptr || span == obs::kNoSpan) return;
  trace_->close(span, end);
}

void DagExecutor::reopen_span(obs::SpanId span) {
  if (trace_ == nullptr || span == obs::kNoSpan) return;
  trace_->reopen(span);
}

net::SimTime DagExecutor::claim(net::NodeAddress node, std::uint32_t qid,
                                net::SimTime at) {
  if (opts_.service.service_ms <= 0) return at;
  auto& [busy_until, last] = busy_[node];
  // Only *cross-query* overlap queues: a query never waits on its own work
  // (one query's own parallelism is modelled as free).
  if (last != 0 && last != qid + 1 && busy_until > at) at = busy_until;
  busy_until = std::max(busy_until, at + opts_.service.service_ms);
  last = qid + 1;
  return at;
}

// ---------------------------------------------------------------------------
// Setup.

DagExecutor::TaskId DagExecutor::add_task(QueryRun& run, Task t) {
  TaskId id = static_cast<TaskId>(run.tasks.size());
  t.pending = 0;
  for (TaskId d : t.deps) {
    if (!run.tasks[d].done) ++t.pending;
  }
  run.tasks.push_back(std::move(t));
  for (TaskId d : run.tasks[id].deps) run.tasks[d].dependents.push_back(id);
  if (run.tasks[id].pending == 0) schedule(run, id);
  return id;
}

void DagExecutor::schedule(QueryRun& run, TaskId id) {
  Task& t = run.tasks[id];
  net::SimTime at = t.base;
  for (TaskId d : t.deps) at = std::max(at, run.tasks[d].finish);
  queue_.push(net::ReadyEvent{at, run.qid, id});
}

void DagExecutor::complete(QueryRun& run, TaskId id, net::SimTime finish) {
  Task& t = run.tasks[id];
  assert(!t.done && "task completed twice");
  t.done = true;
  t.finish = finish;
  for (TaskId d : t.dependents) {
    Task& dep = run.tasks[d];
    assert(dep.pending > 0);
    if (--dep.pending == 0) schedule(run, d);
  }
}

void DagExecutor::setup_query(QueryRun& run) {
  const sparql::Query& q = run.query;

  std::string label = std::string(form_name(q.form));
  if (opts_.label_query_ids) {
    label = "q" + std::to_string(run.qid) + " " + label;
  }
  run.root_span = open_span(obs::SpanKind::kQuery, std::move(label), 0.0,
                            run.initiator);
  obs::SpanId plan_span = open_span(
      obs::SpanKind::kPlan,
      trace_ ? "transform + global optimization" : std::string(), 0.0,
      run.initiator);
  sparql::AlgebraPtr pattern = sparql::translate_pattern(q.where);
  if (policy_.push_filters) pattern = optimizer::push_filters(pattern);
  close_span(plan_span, 0.0);
  close_span(run.root_span, 0.0);
  run.rep.plan_notes.push_back("algebra: " + pattern->to_string());
  run.plan = compile_physical_plan(*pattern, policy_, q.form);

  // One static task per plan op, in op order (so task id == op id). Control
  // and preferred-end edges gate firing alongside the data inputs.
  for (const PhysicalOp& op : run.plan.ops) {
    Task t;
    t.op = op.id;
    t.parent_span = run.root_span;
    t.deps = op.inputs;
    for (OpId c : op.control) {
      if (std::find(t.deps.begin(), t.deps.end(), c) == t.deps.end()) {
        t.deps.push_back(c);
      }
    }
    if (op.preferred_end_from != kNoOp &&
        std::find(t.deps.begin(), t.deps.end(), op.preferred_end_from) ==
            t.deps.end()) {
      t.deps.push_back(op.preferred_end_from);
    }
    switch (op.kind) {
      case PhysOpKind::kConst: t.kind = TaskKind::kConst; break;
      case PhysOpKind::kIndexLookup:
        t.kind = TaskKind::kLookup;
        t.pattern = op.pattern;
        break;
      case PhysOpKind::kProviderScan: t.kind = TaskKind::kScan; break;
      case PhysOpKind::kShip:
        t.kind = TaskKind::kShip;
        t.ship_target = run.initiator;
        t.ship_category = net::Category::kResult;
        break;
      case PhysOpKind::kJoin: t.kind = TaskKind::kJoin; break;
      case PhysOpKind::kLeftJoin: t.kind = TaskKind::kLeftJoin; break;
      case PhysOpKind::kUnion: t.kind = TaskKind::kUnion; break;
      case PhysOpKind::kFilter: t.kind = TaskKind::kFilter; break;
      case PhysOpKind::kPostProcess: t.kind = TaskKind::kPostProcess; break;
    }
    add_task(run, std::move(t));
  }
  run.final_task = run.plan.post;
}

// ---------------------------------------------------------------------------
// Firing.

void DagExecutor::fire(QueryRun& run, TaskId id) {
  const net::TrafficStats before = net().stats();
  const obs::SpanId parent = run.tasks[id].parent_span;
  reopen_span(parent);

  net::SimTime hint = 0;
  switch (run.tasks[id].kind) {
    case TaskKind::kConst: {
      Task& t = run.tasks[id];
      t.out.set.rows = 1;  // the empty BGP has the empty solution
      t.out.site = run.initiator;
      t.out.ready_at = t.base;
      complete(run, id, t.out.ready_at);
      break;
    }
    case TaskKind::kLookup: hint = fire_lookup(run, id); break;
    case TaskKind::kScan: hint = fire_scan(run, id); break;
    case TaskKind::kScatterLeg:
    case TaskKind::kChainHop: hint = fire_contact(run, id); break;
    case TaskKind::kRelookup: hint = fire_relookup(run, id); break;
    case TaskKind::kShip: hint = fire_ship(run, id); break;
    case TaskKind::kJoin:
    case TaskKind::kLeftJoin:
    case TaskKind::kUnion: hint = fire_binary(run, id); break;
    case TaskKind::kFilter: hint = fire_filter(run, id); break;
    case TaskKind::kPostProcess: hint = fire_post(run, id); break;
    case TaskKind::kDescribeGather:
      hint = fire_describe_gather(run, id);
      break;
  }

  close_span(parent, hint);
  run.rep.traffic.accumulate(net().stats().delta_since(before));
}

net::SimTime DagExecutor::fire_lookup(QueryRun& run, TaskId id) {
  Task& t = run.tasks[id];
  std::optional<chord::Key> key;
  if (policy_.cache.enabled) key = ov().row_key(t.pattern.pattern);
  if (key.has_value()) {
    const overlay::CacheStats before = cache_stats(ov(), run.initiator);
    const std::string klabel =
        trace_ ? std::to_string(ov().ring().truncate(*key)) : std::string();
    if (const overlay::CachedRow* row =
            overlay_.cache_lookup(run.initiator, *key, t.base)) {
      // Hit: the row is served at the initiator — no ring lookup, no index
      // traffic, completion at the task's own start time.
      obs::SpanScope span(trace_, obs::SpanKind::kCache,
                          trace_ ? "hit key " + klabel : std::string(), t.base,
                          run.initiator);
      t.loc.providers = row->providers;
      t.loc.index_node = row->index_node;
      t.loc.ok = true;
      t.loc.completed_at = t.base;
      t.loc.cached = true;
      t.loc.snapshot_age_ms = t.base - row->inserted_at;
      span.finish(t.base);
      run.rep.cache.accumulate(
          cache_stats(ov(), run.initiator).delta_since(before));
      complete(run, id, t.base);
      return 0;
    }
    {
      obs::SpanScope span(trace_, obs::SpanKind::kCache,
                          trace_ ? "miss key " + klabel : std::string(),
                          t.base, run.initiator);
      span.finish(t.base);
    }
    t.loc = locate(t.pattern.pattern, run.initiator, t.base, run.rep);
    if (t.loc.ok && !t.loc.broadcast &&
        overlay_.cache_insert(run.initiator, *key, t.loc)) {
      // The key crossed the hot threshold: the cached row becomes a leased
      // extra replica — the owner pushes invalidations to this initiator on
      // every row mutation (subscription rides the lookup response, so it
      // is free).
      overlay_.subscribe(run.initiator, *key, t.loc.completed_at);
    }
    run.rep.cache.accumulate(
        cache_stats(ov(), run.initiator).delta_since(before));
    complete(run, id, t.loc.completed_at);
    return 0;
  }
  t.loc = locate(t.pattern.pattern, run.initiator, t.base, run.rep);
  complete(run, id, t.loc.completed_at);
  return 0;
}

net::SimTime DagExecutor::fire_scan(QueryRun& run, TaskId id) {
  Task& task = run.tasks[id];
  const PhysicalOp* op =
      task.op != kNoOp ? &run.plan.ops[task.op] : nullptr;

  overlay::HybridOverlay::Located loc;
  std::optional<net::NodeAddress> pend;
  if (op != nullptr && op->preferred_end_from != kNoOp) {
    pend = run.tasks[op->preferred_end_from].out.site;
  }

  if (op == nullptr || op->slot < 0) {
    // A standalone single-pattern BGP, or a dynamic DESCRIBE part (pattern
    // set at spawn, no pend, no carry).
    if (op != nullptr) task.pattern = op->pattern;
    loc = run.tasks[op != nullptr ? op->lookup : task.deps.front()].loc;
    if (!loc.ok) {
      task.out.site = run.initiator;
      task.out.ready_at = std::max(task.base, loc.completed_at);
      complete(run, id, task.out.ready_at);
      return 0;
    }
  } else {
    // One slot of a conjunction (Sect. IV-D).
    Task& g0 = run.tasks[op->group];
    const std::vector<OpId>& lookups = run.plan.ops[op->group].group_lookups;
    if (op->slot == 0) {
      // Resolve the runtime join order from the lookup frequencies.
      std::vector<optimizer::PatternStats> stats;
      stats.reserve(lookups.size());
      for (OpId l : lookups) {
        stats.push_back(optimizer::PatternStats{
            run.tasks[l].pattern.pattern, run.tasks[l].loc.providers});
      }
      g0.group = std::make_unique<GroupState>();
      if (policy_.frequency_join_order) {
        g0.group->order = optimizer::order_join_patterns(stats);
      } else {
        g0.group->order.resize(lookups.size());
        for (std::size_t i = 0; i < lookups.size(); ++i) {
          g0.group->order[i] = i;
        }
      }
      std::string note = "join-order:";
      for (std::size_t i : g0.group->order) {
        note += " " + run.tasks[lookups[i]].pattern.pattern.to_string();
      }
      run.rep.plan_notes.push_back(std::move(note));
      // Cached frequency snapshots may be stale; the staleness bound is the
      // cache TTL (unleased rows) — note the worst age so the ordering
      // decision is auditable (docs/caching.md).
      net::SimTime worst_age = 0;
      bool any_cached = false;
      for (OpId l : lookups) {
        if (run.tasks[l].loc.cached) {
          any_cached = true;
          worst_age = std::max(worst_age, run.tasks[l].loc.snapshot_age_ms);
        }
      }
      if (any_cached) {
        run.rep.plan_notes.push_back(
            "frequency-snapshot: cached, age " + std::to_string(worst_age) +
            " ms <= bound " + std::to_string(policy_.cache.ttl_ms) + " ms");
      }
    }
    const GroupState& g = *g0.group;
    const std::size_t i = g.order[static_cast<std::size_t>(op->slot)];
    task.pattern = run.tasks[lookups[i]].pattern;
    loc = run.tasks[lookups[i]].loc;
    if (op->slot > 0) {
      const Task& prev = run.tasks[op->inputs.front()];
      if (prev.out.set.empty()) {
        // Early exit: one empty operand empties the whole join; the
        // remaining slots pass the result through untouched (no traffic).
        task.out = prev.out;
        complete(run, id, task.out.ready_at);
        return 0;
      }
      task.carry = prev.out;
      task.has_carry = true;
    }
    if (policy_.overlap_aware_sites &&
        op->slot + 1 < static_cast<int>(g.order.size())) {
      std::vector<net::NodeAddress> shared = optimizer::provider_overlap(
          loc.providers,
          run.tasks[lookups[g.order[static_cast<std::size_t>(op->slot) + 1]]]
              .loc.providers);
      if (!shared.empty()) pend = shared.front();
    }
  }

  // --- One pattern under its primitive strategy. ---
  const net::SimTime now = loc.completed_at;

  if (loc.providers.empty()) {
    task.out.site = task.has_carry ? task.carry.site : run.initiator;
    task.out.ready_at =
        std::max(now, task.has_carry ? task.carry.ready_at : now);
    complete(run, id, task.out.ready_at);
    return 0;
  }

  task.pattern_span = open_span(
      obs::SpanKind::kPattern,
      trace_ ? task.pattern.pattern.to_string() : std::string(), now,
      run.initiator);

  task.strategy = policy_.primitive;
  if (policy_.adaptive && !loc.broadcast && loc.providers.size() > 1) {
    task.strategy = optimizer::choose_primitive_strategy(
        loc.providers, net().cost_model(), policy_.objectives);
    run.rep.plan_notes.push_back(
        std::string("adaptive: ") + task.pattern.pattern.to_string() + " -> " +
        std::string(optimizer::primitive_strategy_name(task.strategy)));
  }
  task.acc =
      std::make_unique<sparql::MergeAccumulator>(&ov().dictionary());
  dispatch(run, id, loc,
           policy_.overlap_aware_sites ? pend : std::nullopt,
           /*carry_from=*/0.0);
  close_span(run.tasks[id].pattern_span, 0.0);
  return 0;
}

net::SimTime DagExecutor::dispatch(QueryRun& run, TaskId scan_id,
                                   const overlay::HybridOverlay::Located& loc,
                                   std::optional<net::NodeAddress> end,
                                   net::SimTime carry_from) {
  Task& scan = run.tasks[scan_id];
  const net::SimTime now = loc.completed_at;
  const net::NodeAddress owner =
      ov().ring().contains(loc.index_node)
          ? ov().ring().address_of(loc.index_node)
          : run.initiator;
  scan.failed_contacts = 0;

  if (scan.strategy == PrimitiveStrategy::kBasic || loc.broadcast) {
    // Basic strategy (Sect. IV-C): the index node is the assembly site; all
    // providers evaluate in parallel and ship their mappings to it. A
    // broadcast (fully unbound) pattern floods from the initiator instead.
    scan.assembly = loc.broadcast ? run.initiator : owner;
    scan.chain = loc.providers;
    scan.remaining = scan.chain.size();
    scan.done_at = now;
    for (std::size_t k = 0; k < scan.chain.size(); ++k) {
      spawn_contact(run, TaskKind::kScatterLeg, scan_id, k, 0, now);
    }
    return now;
  }

  // Chain strategies: the sub-query travels a provider chain; every
  // provider merges its local mappings into the travelling set.
  scan.chain = optimizer::chain_order(loc.providers, scan.strategy);
  if (end.has_value()) rotate_end_to_back(scan.chain, *end);
  const net::NodeAddress first = scan.chain.front().address;
  net::SimTime t;
  {
    obs::SpanScope ship_span(trace_, obs::SpanKind::kSubQueryShip,
                             "to node " + std::to_string(first), now, owner);
    t = net().send(owner, first, subquery_charge(scan.pattern), now,
                   net::Category::kQuery);
    if (scan.has_carry) {
      t = std::max(t, net().send(scan.carry.site, first, sized(scan.carry),
                                 std::max(carry_from, scan.carry.ready_at),
                                 net::Category::kData));
      scan.acc->set_carry(scan.carry.set);
    }
    ship_span.finish(t);
  }
  scan.site = owner;
  spawn_contact(run, TaskKind::kChainHop, scan_id, 0, 0, t);
  return t;
}

void DagExecutor::spawn_contact(QueryRun& run, TaskKind kind, TaskId scan_id,
                                std::size_t position, int attempt,
                                net::SimTime base) {
  Task c;
  c.kind = kind;
  c.scan = scan_id;
  c.position = position;
  c.attempt = attempt;
  c.base = base;
  c.parent_span = run.tasks[scan_id].pattern_span;
  add_task(run, std::move(c));
}

net::SimTime DagExecutor::fire_contact(QueryRun& run, TaskId id) {
  Task& c = run.tasks[id];
  Task& scan = run.tasks[c.scan];
  const bool leg = c.kind == TaskKind::kScatterLeg;
  const bool next_hop = !leg && c.position + 1 < scan.chain.size();
  const net::NodeAddress prov = scan.chain[c.position].address;

  // A retry starts after its backoff (c.base) and re-sends what the first
  // attempt received: a leg its sub-query, which every leg ships from the
  // assembly site, a hop the travelling payload from where it is.
  std::optional<obs::SpanScope> retry_span;
  if (c.attempt > 0) {
    retry_span.emplace(trace_, obs::SpanKind::kRetry,
                       "attempt " + std::to_string(c.attempt + 1) +
                           " node " + std::to_string(prov),
                       c.base, prov);
  }
  net::SimTime t = c.base;
  if (leg) {
    obs::SpanScope ship_span(trace_, obs::SpanKind::kSubQueryShip,
                             "to node " + std::to_string(prov), t,
                             scan.assembly);
    t = net().send(scan.assembly, prov, subquery_charge(scan.pattern), t,
                   net::Category::kQuery);
    ship_span.finish(t);
  } else if (c.attempt > 0) {
    t = net().send(scan.site, prov, hop_payload(scan), t,
                   c.position == 0 ? net::Category::kQuery
                                   : net::Category::kData);
  }
  t = claim(prov, run.qid, t);
  {
    obs::SpanScope span(
        trace_, leg ? obs::SpanKind::kLocalExec : obs::SpanKind::kChainHop,
        "node " + std::to_string(prov), t, prov);
    std::optional<sparql::IdRows> local =
        run_at_provider(prov, scan.pattern, t, run.rep);
    if (local.has_value()) {
      if (leg) {
        t = net().send(prov, scan.assembly, net::wire::charge(*local), t,
                       net::Category::kData);
      } else {
        scan.site = prov;
      }
      // With a carry, a chain's accumulator merges join(carry, local).
      scan.acc->add(*local);
    } else if (policy_.retry.enabled() &&
               c.attempt < policy_.retry.max_retries) {
      // Dead contact with attempts left: a replacement contact inherits
      // the slot after the deterministic backoff (a scatter's count of
      // outstanding legs is NOT decremented).
      ++run.rep.retries;
      span.finish(t);
      if (retry_span.has_value()) retry_span->finish(t);
      complete(run, id, t);
      spawn_contact(run, c.kind, c.scan, c.position, c.attempt + 1,
                    t + policy_.retry.backoff_ms(c.attempt + 1));
      return t;
    } else {
      give_up_on_provider(prov, scan.pattern, t, run.initiator, run.rep);
      ++scan.failed_contacts;
    }
    if (next_hop) {
      t = net().send(scan.site, scan.chain[c.position + 1].address,
                     hop_payload(scan), t, net::Category::kData);
    }
    span.finish(t);
  }
  if (retry_span.has_value()) retry_span->finish(t);
  complete(run, id, t);

  if (leg) {
    scan.done_at = std::max(scan.done_at, t);
    assert(scan.remaining > 0);
    if (--scan.remaining > 0) return t;
  } else if (next_hop) {
    spawn_contact(run, TaskKind::kChainHop, c.scan, c.position + 1, 0, t);
    return 0;
  }

  // The scan's last contact.
  const net::SimTime end = leg ? scan.done_at : t;
  if (policy_.retry.relookup && !scan.relooked &&
      scan.failed_contacts == scan.chain.size()) {
    // Every provider of the row was given up on: fall back to lazy repair +
    // one fresh lookup instead of completing with nothing. The re-lookup
    // pops after any injected recovery stamped before `end`, so it can see
    // providers that came back while the scan was timing out.
    Task rl;
    rl.kind = TaskKind::kRelookup;
    rl.scan = c.scan;
    rl.base = end;
    rl.parent_span = scan.pattern_span;
    add_task(run, std::move(rl));
    return t;
  }
  Located out;
  out.set = scan.acc->take();
  out.site = leg ? scan.assembly : scan.site;
  out.ready_at = end;
  if (leg && scan.has_carry) {
    // A scatter gathers at the assembly site and joins the carry there (a
    // chain merged it at every hop).
    obs::SpanScope ship_span(trace_, obs::SpanKind::kShip,
                             "carry to assembly", scan.carry.ready_at,
                             scan.assembly);
    Located carried = ship(scan.carry, scan.assembly, net::Category::kData);
    ship_span.finish(carried.ready_at);
    out.set = sparql::join(carried.set, out.set);
    out.ready_at = std::max(out.ready_at, carried.ready_at);
  }
  scan.out = std::move(out);
  complete(run, c.scan, scan.out.ready_at);
  return scan.out.ready_at;
}

net::SimTime DagExecutor::fire_relookup(QueryRun& run, TaskId id) {
  Task& rl = run.tasks[id];
  Task& scan = run.tasks[rl.scan];
  scan.relooked = true;
  ++run.rep.relookups;

  // The give-ups already purged the dead providers from the index row (lazy
  // repair); a fresh lookup returns whatever the repaired row holds now —
  // including providers that recovered and re-published while this scan was
  // timing out.
  overlay::HybridOverlay::Located loc =
      locate(scan.pattern.pattern, run.initiator, rl.base, run.rep);

  if (!loc.ok || loc.providers.empty()) {
    // Nothing came back: the scan completes empty (same formulas as the
    // empty-providers path of fire_scan), no earlier than the re-lookup's
    // own start time.
    const net::SimTime done = std::max(rl.base, loc.completed_at);
    scan.out.set = IdRows{};
    scan.out.site = scan.has_carry ? scan.carry.site : run.initiator;
    scan.out.ready_at =
        std::max(done, scan.has_carry ? scan.carry.ready_at : done);
    complete(run, id, done);
    complete(run, rl.scan, scan.out.ready_at);
    return scan.out.ready_at;
  }
  // The restart keeps the scan's strategy, ships a carry no earlier than
  // the lookup's answer and does not re-aim the chain's end.
  complete(run, id,
           dispatch(run, rl.scan, loc, std::nullopt, loc.completed_at));
  return 0;
}

net::SimTime DagExecutor::fire_ship(QueryRun& run, TaskId id) {
  Task& task = run.tasks[id];
  Located in = run.tasks[task.deps.front()].out;
  if (task.quiet_ship || trace_ == nullptr) {
    task.out = ship(std::move(in), task.ship_target, task.ship_category);
  } else {
    obs::SpanScope span(trace_, obs::SpanKind::kShip, "result to initiator",
                        in.ready_at, run.initiator);
    task.out = ship(std::move(in), task.ship_target, task.ship_category);
    span.finish(task.out.ready_at);
  }
  complete(run, id, task.out.ready_at);
  return 0;
}

net::SimTime DagExecutor::fire_binary(QueryRun& run, TaskId id) {
  Task& task = run.tasks[id];
  const PhysicalOp& op = run.plan.ops[task.op];
  Located l = run.tasks[op.inputs[0]].out;
  Located r = run.tasks[op.inputs[1]].out;
  Located out;
  switch (task.kind) {
    case TaskKind::kJoin: {
      auto [cl, cr] = colocate(std::move(l), std::move(r), run.initiator,
                               run.rep);
      out.set = sparql::join(cl.set, cr.set);
      out.site = cl.site;
      out.ready_at = std::max(cl.ready_at, cr.ready_at);
      break;
    }
    case TaskKind::kLeftJoin: {
      auto [cl, cr] = colocate(std::move(l), std::move(r), run.initiator,
                               run.rep);
      out.set = sparql::left_join_conditioned(cl.set, cr.set, op.expr);
      out.site = cl.site;
      out.ready_at = std::max(cl.ready_at, cr.ready_at);
      break;
    }
    case TaskKind::kUnion: {
      if (r.site != l.site) {
        // Fall back to the configured colocation policy between the two
        // branch sites (the overlap-aware end did not pan out).
        auto [cl, cr] = colocate(std::move(l), std::move(r), run.initiator,
                                 run.rep);
        l = std::move(cl);
        r = std::move(cr);
      }
      out.set = sparql::deduplicated(sparql::set_union(l.set, r.set));
      out.site = l.site;
      out.ready_at = std::max(l.ready_at, r.ready_at);
      break;
    }
    default:
      assert(false && "fire_binary on a non-binary task");
  }
  task.out = std::move(out);
  complete(run, id, task.out.ready_at);
  return 0;
}

net::SimTime DagExecutor::fire_filter(QueryRun& run, TaskId id) {
  Task& task = run.tasks[id];
  const PhysicalOp& op = run.plan.ops[task.op];
  const Located& in = run.tasks[op.inputs.front()].out;
  task.out = Located{sparql::filter_set(in.set, *op.expr), in.site,
                     in.ready_at, std::nullopt};
  complete(run, id, task.out.ready_at);
  return 0;
}

net::SimTime DagExecutor::fire_post(QueryRun& run, TaskId id) {
  Task& task = run.tasks[id];
  // tasks is a deque: the tasks added below leave this reference valid.
  const Located& in = run.tasks[task.deps.front()].out;

  if (run.query.form != sparql::QueryForm::kDescribe) {
    obs::SpanScope post_span(
        trace_, obs::SpanKind::kPostProcess,
        trace_ ? "modifiers + projection" : std::string(), in.ready_at,
        run.initiator);
    post_span.finish(in.ready_at);
    run.result = sparql::finalize_result(run.query, in.set, nullptr);
    run.rep.response_time = in.ready_at;
    complete(run, id, in.ready_at);
    return in.ready_at;
  }

  // Distributed DESCRIBE: resolve each target's surrounding triples with
  // two primitive pattern queries (t, ?, ?) and (?, ?, t). Parts run
  // sequentially (control-chained) so each part's lookups see the index
  // repairs of the parts before it; each starts its lookup at the result's
  // arrival time.
  std::set<rdf::Term> target_set;
  for (const rdf::PatternTerm& pt : run.query.describe_targets) {
    if (const rdf::Term* t = rdf::term_of(pt)) {
      target_set.insert(*t);
    } else {
      const rdf::Variable& v = std::get<rdf::Variable>(pt);
      const std::size_t c = column_of(in.set, v.name);
      for (std::size_t r = 0; c != kNoColumn && r < in.set.rows; ++r) {
        const rdf::TermId cell = in.set.row(r)[c];
        if (cell != rdf::kInvalidTermId) {
          target_set.insert(in.set.dict->term(cell));
        }
      }
    }
  }
  const net::SimTime t0 = in.ready_at;
  complete(run, id, t0);

  Task gather;
  gather.kind = TaskKind::kDescribeGather;
  gather.base = t0;
  gather.parent_span = run.root_span;

  TaskId prev_ship = kNoTask;
  for (const rdf::Term& t : target_set) {
    gather.targets.push_back(t);
    for (const rdf::TriplePattern& tp :
         {rdf::TriplePattern{t, rdf::Variable{"__p"}, rdf::Variable{"__o"}},
          rdf::TriplePattern{rdf::Variable{"__s"}, rdf::Variable{"__p"},
                             t}}) {
      Task lk;
      lk.kind = TaskKind::kLookup;
      lk.pattern = sparql::BgpPattern{tp, nullptr};
      lk.base = t0;
      lk.parent_span = run.root_span;
      if (prev_ship != kNoTask) lk.deps.push_back(prev_ship);
      TaskId lk_id = add_task(run, std::move(lk));

      Task sc;
      sc.kind = TaskKind::kScan;
      sc.pattern = sparql::BgpPattern{tp, nullptr};
      sc.base = t0;
      sc.parent_span = run.root_span;
      sc.deps.push_back(lk_id);
      TaskId sc_id = add_task(run, std::move(sc));

      Task sh;
      sh.kind = TaskKind::kShip;
      sh.quiet_ship = true;  // DESCRIBE part ships open no span
      sh.ship_target = run.initiator;
      sh.ship_category = net::Category::kResult;
      sh.base = t0;
      sh.parent_span = run.root_span;
      sh.deps.push_back(sc_id);
      prev_ship = add_task(run, std::move(sh));
      gather.parts.push_back(prev_ship);
    }
  }
  gather.deps = gather.parts;
  run.final_task = add_task(run, std::move(gather));
  return 0;
}

net::SimTime DagExecutor::fire_describe_gather(QueryRun& run, TaskId id) {
  Task& task = run.tasks[id];
  net::SimTime ready = task.base;
  std::set<rdf::Triple> triples;
  for (std::size_t i = 0; i < task.parts.size(); ++i) {
    const Located& part = run.tasks[task.parts[i]].out;
    ready = std::max(ready, part.ready_at);
    const rdf::Term& t = task.targets[i / 2];
    const std::size_t cols[3] = {column_of(part.set, "__s"),
                                 column_of(part.set, "__p"),
                                 column_of(part.set, "__o")};
    for (std::size_t r = 0; r < part.set.rows; ++r) {
      rdf::Triple tr{t, t, t};
      rdf::Term* slots[3] = {&tr.s, &tr.p, &tr.o};
      for (int k = 0; k < 3; ++k) {
        if (cols[k] == kNoColumn) continue;
        const rdf::TermId cell = part.set.row(r)[cols[k]];
        if (cell != rdf::kInvalidTermId) *slots[k] = part.set.dict->term(cell);
      }
      triples.insert(tr);
    }
  }
  run.result.form = sparql::QueryForm::kDescribe;
  run.result.graph.assign(triples.begin(), triples.end());
  run.rep.response_time = ready;
  complete(run, id, ready);
  return ready;
}

// ---------------------------------------------------------------------------

BatchResult DagExecutor::run(const std::vector<BatchQuery>& batch) {
  return run(batch, {});
}

BatchResult DagExecutor::run(const std::vector<BatchQuery>& batch,
                             const std::vector<std::uint32_t>& qids) {
  assert((qids.empty() || qids.size() == batch.size()) &&
         "qids must be empty (identity) or match the batch");
  runs_.clear();
  std::uint32_t max_qid = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    QueryRun& run = runs_.emplace_back();
    run.qid = qids.empty() ? static_cast<std::uint32_t>(i) : qids[i];
    run.query = batch[i].query;
    run.initiator = batch[i].initiator;
    max_qid = std::max(max_qid, run.qid);
  }
  run_of_qid_.assign(static_cast<std::size_t>(max_qid) + 1, 0);
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    run_of_qid_[runs_[i].qid] = static_cast<std::uint32_t>(i);
    setup_query(runs_[i]);
  }

  // Injected (fault-schedule) events share the queue under the reserved
  // query id, so they interleave with query tasks in one deterministic
  // (time, query, task) order — and still apply when stamped after the last
  // query task, so late recoveries are not silently dropped.
  for (std::size_t i = 0; i < opts_.injections.size(); ++i) {
    queue_.push(net::ReadyEvent{opts_.injections[i].at, net::kInjectionQueryId,
                                static_cast<std::uint32_t>(i)});
  }

  while (!queue_.empty()) {
    const net::ReadyEvent ev = queue_.pop();
    if (ev.query == net::kInjectionQueryId) {
      const InjectedEvent& inj = opts_.injections[ev.task];
      if (inj.apply) inj.apply(ev.at);
      continue;
    }
    overlay_.enter_fire(ev);
    fire(runs_[run_of_qid_[ev.query]], ev.task);
  }

  BatchResult out;
  out.results.reserve(runs_.size());
  out.reports.reserve(runs_.size());
  for (QueryRun& run : runs_) {
    assert(run.final_task != kNoTask && run.tasks[run.final_task].done &&
           "batch drained with an incomplete query");
    // Traced executions carry their EXPLAIN tree in the plan notes, so any
    // consumer of the report can see the per-phase cost without the trace.
    if (trace_ != nullptr && run.root_span != obs::kNoSpan) {
      for (std::string& line : obs::explain_lines(*trace_, run.root_span)) {
        run.rep.plan_notes.push_back(std::move(line));
      }
    }
    out.makespan = std::max(out.makespan, run.rep.response_time);
    out.root_spans.push_back(run.root_span);
    out.results.push_back(std::move(run.result));
    out.reports.push_back(std::move(run.rep));
  }
  return out;
}

}  // namespace ahsw::dqp
