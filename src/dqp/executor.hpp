// Deterministic event-driven executor for physical plans.
//
// Runs N queries concurrently through one scheduler: every operator of
// every plan becomes a task; a task becomes ready when all of its inputs
// (data and control) have finished; ready events pop in (time, query, task)
// order from net::EventQueue, so a batch replays bit-for-bit.
//
// Two contracts fix what a query observes; the golden digests
// (tests/dqp/golden_digest_test.cpp) pin both:
//
//   1. *Value contract.* A task's output and charges depend only on its
//      inputs and logical start time, never on event order: all subtrees
//      of one query start at t=0 and DESCRIBE parts at the result's
//      arrival; every in-network merge (scatter gather, chain hop) folds
//      deduplicated(set_union(acc, next)) in id space through one
//      sparql::MergeAccumulator per scan, fed the providers' store ids
//      without interning, and yields canonical order; every shipped set is
//      charged its wire-encoded size, computed analytically. Event order
//      only decides *when* a charge is booked, never how large it is.
//
//   2. *Repair order.* Lazy index repairs mutate shared overlay state; the
//      plan's control edges serialize each query's fires left-to-right
//      (left operand before right, DESCRIBE parts in target order), so a
//      lookup always sees the repairs its predecessors triggered.
//
// Every intermediate set is a sparql::IdRows in the ids of the overlay's
// dictionary, from the provider scan through the join sites to the
// post-processing step, which materializes the delivered rows once.
//
// Dynamic expansion: chain hops, scatter legs and DESCRIBE part queries
// depend on runtime information (provider lists, join order, result
// bindings), so those tasks are spawned at fire time; their ids are
// assigned in deterministic creation order.
//
// Contention: with BatchOptions::service.service_ms > 0, a provider node
// serving one query delays work arriving from *other* queries until it is
// free (per-node busy-until bookkeeping). The default 0 disables the model,
// keeping single-query execution byte-identical.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dqp/processor.hpp"
#include "net/event_queue.hpp"
#include "sparql/columnar.hpp"

namespace ahsw::dqp {

/// One shared-overlay mutation performed by the executor on behalf of a
/// query, recorded so the parallel batch driver can replay worker-shard
/// side effects onto the master overlay in the serial driver's global
/// (time, query, task) order. The ordering key is the *enclosing fire's*
/// event key — the serial scheduler orders whole fires, and mutations
/// within one fire happen in program order (`seq` preserves it across the
/// merge). `when` is the simulated time the mutation itself used.
struct StateAction {
  enum class Kind : std::uint8_t {
    kCacheLookup,      // cache_for(initiator).lookup(key, when)
    kCacheInsert,      // cache_for(initiator).insert(key, providers, ...)
    kSubscribe,        // subscribe_invalidations(key, initiator)
    kCacheInvalidate,  // cache_for(initiator).invalidate(key)
    kReportDead,       // report_dead_provider(initiator, pattern, dead, when)
  };
  Kind kind = Kind::kCacheLookup;
  net::SimTime at = 0;        // enclosing fire's event time
  std::uint32_t qid = 0;      // enclosing fire's query id
  std::uint32_t task = 0;     // enclosing fire's task id
  std::uint32_t seq = 0;      // program order within the fire / worker log
  net::SimTime when = 0;      // sim time the mutation was issued at
  net::NodeAddress initiator = net::kNoAddress;
  net::NodeAddress dead = net::kNoAddress;  // kReportDead: the dead provider
  rdf::TriplePattern pattern;               // kReportDead: reported pattern
  chord::Key key = 0;                       // cache row key
  chord::Key index_node = 0;                // kCacheInsert: serving owner
  net::SimTime fetched_at = 0;              // kCacheInsert: snapshot time
  std::vector<overlay::Provider> providers; // kCacheInsert: row snapshot
};

/// Ordered per-worker log of shared-state mutations (append-only; already
/// sorted by (at, qid, task, seq) because the worker's event loop is).
using StateLog = std::vector<StateAction>;

class DagExecutor {
 public:
  DagExecutor(overlay::HybridOverlay& ov, ExecutionPolicy policy,
              obs::QueryTrace* trace, BatchOptions opts = {})
      : overlay_(&ov), policy_(policy), trace_(trace),
        opts_(std::move(opts)) {}

  /// Execute the batch to completion; returns per-query results/reports in
  /// batch order plus the batch makespan.
  [[nodiscard]] BatchResult run(const std::vector<BatchQuery>& batch);

  /// Worker-shard entry point: run `batch` with externally assigned query
  /// ids (`qids[i]` is batch[i]'s id in the full batch; sizes must match).
  /// Event ordering, claim() bookkeeping and span labels all use the
  /// original ids, so a shard interleaves exactly as its queries would in
  /// the full serial batch.
  [[nodiscard]] BatchResult run(const std::vector<BatchQuery>& batch,
                                const std::vector<std::uint32_t>& qids);

  /// Record every shared-overlay mutation into `log` (nullptr disables).
  /// The parallel driver replays the log on the master overlay.
  void set_state_log(StateLog* log) noexcept { state_log_ = log; }

 private:
  /// What shipping a set charges: its wire-encoded size and the raw
  /// (uncompressed) counterpart.
  struct SetSize {
    std::size_t wire = 0;
    std::size_t raw = 0;
  };

  /// An intermediate solution set living at a node of the overlay, in the
  /// ids of the overlay's dictionary.
  struct Located {
    sparql::IdRows set;
    net::NodeAddress site = net::kNoAddress;
    net::SimTime ready_at = 0;
    /// The size of `set`, filled by the first sized() call; every new set
    /// starts a new Located.
    std::optional<SetSize> size;
  };

  using TaskId = std::uint32_t;
  static constexpr TaskId kNoTask = 0xffffffffu;

  enum class TaskKind : std::uint8_t {
    kConst,
    kLookup,
    kScan,         // one pattern under its strategy (static or DESCRIBE part)
    kScatterLeg,   // dynamic: one provider of a scatter/gather pattern
    kChainHop,     // dynamic: one provider visit of a chain
    kRelookup,     // dynamic: lazy-repair re-lookup after provider exhaustion
    kShip,
    kJoin,
    kLeftJoin,
    kUnion,
    kFilter,
    kPostProcess,
    kDescribeGather,  // dynamic: assemble DESCRIBE part results
  };

  /// Runtime state shared by the slots of one conjunction (owned by slot 0).
  struct GroupState {
    std::vector<std::size_t> order;  // join order over bgp positions
  };

  /// One schedulable unit. Static tasks mirror plan ops one-to-one (task id
  /// == op id); dynamic tasks carry their payload inline (op == kNoOp).
  struct Task {
    TaskKind kind = TaskKind::kConst;
    OpId op = kNoOp;
    std::vector<TaskId> deps;
    std::vector<TaskId> dependents;
    std::uint32_t pending = 0;
    bool done = false;
    net::SimTime base = 0;     // earliest logical start (0 / DESCRIBE t0)
    net::SimTime finish = 0;   // when done: drives dependents' event times
    obs::SpanId parent_span = obs::kNoSpan;  // reopened around this fire

    Located out;
    overlay::HybridOverlay::Located loc;  // kLookup output

    // Dynamic payloads / runtime scan state.
    sparql::BgpPattern pattern;
    TaskId scan = kNoTask;      // kScatterLeg / kChainHop / kRelookup: owner
    std::size_t position = 0;   // provider index within the scan
    int attempt = 0;            // leg/hop: earlier contacts of this slot
    bool quiet_ship = false;    // kShip without a span (DESCRIBE parts)
    net::Category ship_category = net::Category::kResult;
    net::NodeAddress ship_target = net::kNoAddress;

    std::unique_ptr<GroupState> group;  // kScan slot 0 of a conjunction
    obs::SpanId pattern_span = obs::kNoSpan;
    bool has_carry = false;
    Located carry;
    net::NodeAddress assembly = net::kNoAddress;
    std::size_t remaining = 0;               // outstanding scatter legs
    net::SimTime done_at = 0;                // scatter completion max
    std::vector<overlay::Provider> chain;    // providers in visit order
    /// Scan: the scatter / chain merge (heap-held: only scans use it).
    std::unique_ptr<sparql::MergeAccumulator> acc;
    /// Chain: where the travelling set is (the index node, then the last
    /// provider that answered).
    net::NodeAddress site = net::kNoAddress;
    std::size_t failed_contacts = 0;  // scan: providers given up on
    bool relooked = false;            // scan: lazy re-lookup already spent
    optimizer::PrimitiveStrategy strategy =
        optimizer::PrimitiveStrategy::kBasic;  // scan: chosen at fire time

    std::vector<TaskId> parts;       // kDescribeGather: part ships in order
    std::vector<rdf::Term> targets;  // kDescribeGather: described terms
  };

  struct QueryRun {
    std::uint32_t qid = 0;
    sparql::Query query;
    net::NodeAddress initiator = net::kNoAddress;
    PhysicalPlan plan;
    std::deque<Task> tasks;  // deque: fires append while holding references
    ExecutionReport rep;
    obs::SpanId root_span = obs::kNoSpan;
    sparql::QueryResult result;
    TaskId final_task = kNoTask;
  };

  // Setup.
  void setup_query(QueryRun& run);
  TaskId add_task(QueryRun& run, Task t);
  void schedule(QueryRun& run, TaskId id);
  void complete(QueryRun& run, TaskId id, net::SimTime finish);

  // Firing. Each fire_* returns the end hint folded into the parent span's
  // close (0 when children already extended it).
  void fire(QueryRun& run, TaskId id);
  net::SimTime fire_lookup(QueryRun& run, TaskId id);
  net::SimTime fire_scan(QueryRun& run, TaskId id);
  /// One contact of a provider slot, a scatter leg or a chain hop: claims
  /// the provider, runs the pattern there and, when it is dead, retries the
  /// slot after the backoff or gives up on it. The scan's last contact
  /// completes the scan, or spawns the re-lookup when every provider was
  /// given up on.
  net::SimTime fire_contact(QueryRun& run, TaskId id);
  net::SimTime fire_relookup(QueryRun& run, TaskId id);
  net::SimTime fire_ship(QueryRun& run, TaskId id);
  net::SimTime fire_binary(QueryRun& run, TaskId id);
  net::SimTime fire_filter(QueryRun& run, TaskId id);
  net::SimTime fire_post(QueryRun& run, TaskId id);
  net::SimTime fire_describe_gather(QueryRun& run, TaskId id);

  // Primitives shared by every task kind.
  overlay::HybridOverlay::Located locate(const rdf::TriplePattern& p,
                                         net::NodeAddress initiator,
                                         net::SimTime now,
                                         ExecutionReport& rep);
  /// The size of `l.set`, computed on the first call and kept beside it.
  static const SetSize& sized(Located& l);
  Located ship(Located from, net::NodeAddress target, net::Category category);
  /// What a chain hop ships: the sub-query, the travelling merge and the
  /// carry (a chain with a carry ships it along at every hop).
  SetSize hop_payload(Task& scan);
  /// Contact a provider: charges a timeout and returns nullopt when it is
  /// dead, without giving up on it — the caller decides between a retry
  /// (RetryPolicy) and `give_up_on_provider`.
  std::optional<sparql::IdRows> run_at_provider(
      net::NodeAddress provider, const sparql::BgpPattern& p,
      net::SimTime& now, net::NodeAddress initiator, ExecutionReport& rep);
  /// Final failure handling for a dead provider: count the skip and trigger
  /// the paper's lazy index repair. With retries off, every contact failure
  /// is final, reproducing the pre-retry behavior exactly.
  void give_up_on_provider(net::NodeAddress provider,
                           const sparql::BgpPattern& p, net::SimTime now,
                           net::NodeAddress initiator, ExecutionReport& rep);
  /// Start `scan_id`'s strategy over the providers of `loc` (Sect. IV-C):
  /// one scatter leg per provider from the assembly site, or the sub-query
  /// and any carry shipped to the first hop of the chain, which `end` (when
  /// set) moves to the back. The carry ship starts no earlier than
  /// `carry_from`. Returns when the dispatch is done. fire_scan and the
  /// lazy-repair re-lookup both start a scan here.
  net::SimTime dispatch(QueryRun& run, TaskId scan_id,
                        const overlay::HybridOverlay::Located& loc,
                        std::optional<net::NodeAddress> end,
                        net::SimTime carry_from);
  /// Spawn contact `attempt` (0 = first) of provider slot `position` of
  /// `scan_id` at `base`.
  void spawn_contact(QueryRun& run, TaskKind kind, TaskId scan_id,
                     std::size_t position, int attempt, net::SimTime base);
  std::pair<Located, Located> colocate(Located a, Located b,
                                       net::NodeAddress initiator,
                                       ExecutionReport& rep);

  /// Service model: delay `at` until `node` is free of other queries' work,
  /// then occupy it for service_ms. Identity when the model is disabled.
  net::SimTime claim(net::NodeAddress node, std::uint32_t qid,
                     net::SimTime at);

  // Span plumbing for the interleaved DAG: firings of different queries
  // interleave arbitrarily, so a task's enclosing span is re-entered around
  // each fire instead of being held open by one RAII scope. These three
  // helpers are the only sanctioned manual QueryTrace calls outside
  // SpanScope (rule O1); each is a no-op without a bound trace, and fire()
  // balances every open/reopen with a close.
  obs::SpanId open_span(obs::SpanKind kind, std::string label,
                        net::SimTime at, net::NodeAddress site);
  void close_span(obs::SpanId span, net::SimTime end);
  void reopen_span(obs::SpanId span);

  [[nodiscard]] net::Network& net() { return overlay_->network(); }

  /// Append `a` to the state log (no-op without one), stamping the
  /// enclosing fire's (at, qid, task) ordering key and the next seq.
  void record(StateAction a);

  overlay::HybridOverlay* overlay_;
  ExecutionPolicy policy_;
  obs::QueryTrace* trace_;
  BatchOptions opts_;
  net::EventQueue queue_;
  std::deque<QueryRun> runs_;  // deque: QueryRun is pinned (not movable)
  /// Dense map query id -> index into runs_ (identity for plain batches;
  /// sparse shard ids for worker runs).
  std::vector<std::uint32_t> run_of_qid_;
  StateLog* state_log_ = nullptr;
  net::SimTime fire_at_ = 0;       // event time of the fire in progress
  std::uint32_t fire_qid_ = 0;     // query id of the fire in progress
  std::uint32_t fire_task_ = 0;    // task id of the fire in progress
  std::uint32_t fire_seq_ = 0;     // next StateAction seq
  /// node -> (busy until, last claimant qid + 1). Ordered map for
  /// deterministic bookkeeping.
  std::map<net::NodeAddress, std::pair<net::SimTime, std::uint32_t>> busy_;
};

}  // namespace ahsw::dqp
