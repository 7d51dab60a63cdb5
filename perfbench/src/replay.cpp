// Layer replay: re-run sample queries stage by stage through each module's
// public functions, timing every call, so host time can be attributed to
// layers without instrumenting src/. The stages mirror the executor's path:
//
//   1. sparql::parse_query
//   2. sparql::translate_pattern + optimizer::push_filters
//   3. dqp::compile_physical_plan
//   4. per pattern: Ring::find_successor on the row key, HybridOverlay::locate
//   5. per provider: TripleStore::match and LocalEngine::evaluate_bgp
//   6. the columnar vec_* kernels combining those sets along the algebra
//   7. net::wire::charged_bytes on fresh copies of every set
//
// find_successor and locate charge traffic, so the replay runs on a clone
// of the measured overlay bound to its own scratch network; the measured
// network's counters must not move.
#include <string>

#include "bench.hpp"
#include "chord/ring.hpp"
#include "dqp/physical_plan.hpp"
#include "net/wire.hpp"
#include "optimizer/rewriter.hpp"
#include "sparql/algebra.hpp"
#include "sparql/ast.hpp"
#include "sparql/columnar.hpp"

namespace perfbench {

using namespace ahsw;

namespace {

struct Stage {
  double s = 0;
  std::uint64_t calls = 0;

  template <typename F>
  auto time(F&& f) {
    const Clock::time_point t0 = Clock::now();
    auto r = f();
    s += seconds_since(t0);
    ++calls;
    return r;
  }
  [[nodiscard]] double us_per(double n) const { return n > 0 ? s * 1e6 / n : 0; }
  [[nodiscard]] double us_per_call() const {
    return us_per(static_cast<double>(calls));
  }
};

bool same_traffic(const net::TrafficStats& a, const net::TrafficStats& b) {
  for (int k = 0; k < net::kCategoryCount; ++k) {
    const auto i = static_cast<std::size_t>(k);
    if (a.messages_by[i] != b.messages_by[i] || a.bytes_by[i] != b.bytes_by[i] ||
        a.timeouts_by[i] != b.timeouts_by[i]) {
      return false;
    }
  }
  return a.messages == b.messages && a.bytes == b.bytes &&
         a.raw_bytes == b.raw_bytes && a.timeouts == b.timeouts;
}

class Replayer {
 public:
  Replayer(overlay::HybridOverlay& ov, const dqp::ExecutionPolicy& policy)
      : ov_(ov), policy_(policy) {}

  void run(const ReplayQuery& rq) {
    initiator_ = rq.initiator;
    const sparql::Query q = parse.time([&] { return sparql::parse_query(rq.text); });
    const sparql::AlgebraPtr pattern = plan.time([&] {
      sparql::AlgebraPtr a = sparql::translate_pattern(q.where);
      if (policy_.push_filters) a = optimizer::push_filters(a);
      return a;
    });
    (void)compile.time(
        [&] { return dqp::compile_physical_plan(*pattern, policy_, q.form); });
    const sparql::SolutionSet result = eval(*pattern);
    size_on_wire(kernel([&] { return sparql::vec_deduplicated(result); },
                        result.size()));
  }

  Stage parse, plan, compile, route, locate, match, local_eval, kernels, wire;
  std::uint64_t hops = 0, providers = 0, rows_matched = 0;
  std::uint64_t rows_in = 0, rows_out = 0;
  std::uint64_t raw_bytes = 0, wire_bytes = 0;

  [[nodiscard]] double total_s() const {
    return parse.s + plan.s + compile.s + route.s + locate.s + match.s +
           local_eval.s + kernels.s + wire.s;
  }

 private:
  template <typename F>
  sparql::SolutionSet kernel(F&& f, std::size_t in) {
    sparql::SolutionSet out = kernels.time(f);
    rows_in += in;
    rows_out += out.size();
    return out;
  }

  /// Size a fresh copy: charged_bytes memoizes on the set, so timing the
  /// same set twice would measure a memo hit.
  void size_on_wire(const sparql::SolutionSet& s) {
    const sparql::SolutionSet copy(std::vector<sparql::Binding>(s.rows()));
    wire_bytes += wire.time([&] { return net::wire::charged_bytes(copy); });
    raw_bytes += copy.byte_size();
  }

  sparql::SolutionSet scan(const sparql::BgpPattern& bp) {
    if (const std::optional<chord::Key> key = ov_.row_key(bp.pattern)) {
      const chord::Key entry = ov_.entry_ring_node(initiator_);
      const chord::Ring::LookupResult lr =
          route.time([&] { return ov_.ring().find_successor(entry, *key, 0); });
      hops += static_cast<std::uint64_t>(lr.hops);
    }
    const overlay::HybridOverlay::Located loc =
        locate.time([&] { return ov_.locate(initiator_, bp.pattern, 0); });
    providers += loc.providers.size();
    sparql::SolutionSet all;
    for (const overlay::Provider& pv : loc.providers) {
      if (!ov_.is_storage_node(pv.address) ||
          ov_.network().is_failed(pv.address)) {
        continue;
      }
      const rdf::TripleStore& store = ov_.store_of(pv.address);
      rows_matched += match.time([&] {
        std::uint64_t n = 0;
        store.match(bp.pattern, [&n](const rdf::Triple&) { ++n; });
        return n;
      });
      const sparql::SolutionSet s = local_eval.time(
          [&] { return sparql::LocalEngine(store).evaluate_bgp({bp}); });
      size_on_wire(s);
      all = sparql::set_union(all, s);
    }
    return all;
  }

  sparql::SolutionSet eval(const sparql::Algebra& a) {
    using K = sparql::AlgebraKind;
    switch (a.kind) {
      case K::kBgp: {
        if (a.bgp.empty()) return sparql::SolutionSet({sparql::Binding{}});
        sparql::SolutionSet acc = scan(a.bgp.front());
        for (std::size_t i = 1; i < a.bgp.size(); ++i) {
          const sparql::SolutionSet next = scan(a.bgp[i]);
          acc = kernel([&] { return sparql::vec_join(acc, next); },
                       acc.size() + next.size());
        }
        return acc;
      }
      case K::kJoin: {
        const sparql::SolutionSet l = eval(*a.left), r = eval(*a.right);
        return kernel([&] { return sparql::vec_join(l, r); }, l.size() + r.size());
      }
      case K::kLeftJoin: {
        const sparql::SolutionSet l = eval(*a.left), r = eval(*a.right);
        return kernel(
            [&] { return sparql::vec_left_join_conditioned(l, r, a.expr); },
            l.size() + r.size());
      }
      case K::kUnion:
        return sparql::set_union(eval(*a.left), eval(*a.right));
      case K::kFilter: {
        const sparql::SolutionSet in = eval(*a.left);
        return kernel([&] { return sparql::vec_filter_set(in, *a.expr); },
                      in.size());
      }
      default:  // solution modifiers sit outside the pattern part
        return a.left != nullptr ? eval(*a.left) : sparql::SolutionSet{};
    }
  }

  overlay::HybridOverlay& ov_;
  const dqp::ExecutionPolicy& policy_;
  net::NodeAddress initiator_ = net::kNoAddress;
};

}  // namespace

void replay_layers(const overlay::HybridOverlay& master,
                   const std::vector<ReplayQuery>& queries,
                   const dqp::ExecutionPolicy& policy,
                   double traced_us_per_query, RunResult& out) {
  const net::TrafficStats before = master.network().stats();
  net::Network scratch = master.network();
  scratch.set_tracer(nullptr);
  scratch.set_timeout_tracer(nullptr);
  const Clock::time_point t0 = Clock::now();
  const std::unique_ptr<overlay::HybridOverlay> clone =
      master.clone_for_worker(scratch);
  const double clone_ms = seconds_since(t0) * 1e3;

  Replayer r(*clone, policy);
  for (const ReplayQuery& rq : queries) {
    try {
      r.run(rq);
    } catch (const std::exception& e) {
      out.fail(std::string("layer replay threw: ") + e.what());
    }
  }
  if (!same_traffic(master.network().stats(), before)) {
    out.fail("layer replay moved the measured network's counters");
  }

  const auto n = static_cast<double>(queries.size());
  const double per_q = n > 0 ? 1.0 / n : 0.0;
  const double stages_us = r.total_s() * 1e6 * per_q;
  const double residual = traced_us_per_query - stages_us;
  Metrics& x = out.metrics;
  const std::string base = "replay of " + std::to_string(queries.size()) + " queries";
  set_metric(x, "sparql.parse_us", r.parse.us_per(n), "us", "per query, " + base);
  set_metric(x, "sparql.local_eval_us", r.local_eval.us_per_call(), "us",
             "per provider scan");
  set_metric(x, "sparql.kernel_us", r.kernels.us_per(n), "us", "per query");
  set_metric(x, "sparql.kernel_calls_per_q",
             static_cast<double>(r.kernels.calls) * per_q, "count");
  set_metric(x, "sparql.kernel_rows_in", static_cast<double>(r.rows_in) * per_q,
             "count", "per query");
  set_metric(x, "sparql.kernel_rows_out", static_cast<double>(r.rows_out) * per_q,
             "count", "per query");
  set_metric(x, "optimizer.plan_us", r.plan.us_per(n), "us", "per query");
  set_metric(x, "dqp.compile_us", r.compile.us_per(n), "us", "per query");
  set_metric(x, "dqp.residual_us", residual, "us",
             "traced " + std::to_string(traced_us_per_query) +
                 " us/q minus replayed " + std::to_string(stages_us) + " us/q" +
                 (residual < 0 ? "; FLAG: replayed layers exceed the traced wall"
                               : ""));
  set_metric(x, "chord.route_us", r.route.us_per_call(), "us", "per lookup");
  set_metric(x, "chord.hops",
             r.route.calls > 0 ? static_cast<double>(r.hops) /
                                     static_cast<double>(r.route.calls)
                               : 0,
             "count", "per lookup");
  set_metric(x, "overlay.locate_us", r.locate.us_per_call(), "us", "per lookup");
  set_metric(x, "overlay.providers",
             r.locate.calls > 0 ? static_cast<double>(r.providers) /
                                      static_cast<double>(r.locate.calls)
                                : 0,
             "count", "per lookup");
  set_metric(x, "overlay.clone_ms", clone_ms, "ms", "one clone_for_worker");
  set_metric(x, "rdf.match_us", r.match.us_per_call(), "us", "per provider scan");
  set_metric(x, "rdf.rows_matched",
             r.match.calls > 0 ? static_cast<double>(r.rows_matched) /
                                     static_cast<double>(r.match.calls)
                               : 0,
             "count", "per provider scan");
  set_metric(x, "net.wire_size_us", r.wire.us_per_call(), "us",
             "per sized set, n=" + std::to_string(r.wire.calls));
  set_metric(x, "net.wire_ratio",
             r.wire_bytes > 0 ? static_cast<double>(r.raw_bytes) /
                                    static_cast<double>(r.wire_bytes)
                              : 0,
             "ratio", "base: " + std::to_string(r.wire_bytes) + " wire bytes");
  if (residual < 0) {
    out.flags.push_back("replayed layer times exceed the traced per-query wall");
  }
}

}  // namespace perfbench
