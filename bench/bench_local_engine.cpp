// E10 — local-engine micro-costs: the solution-set algebra every node runs
// (join, left join, union, filter) and BGP matching against a local
// store. These are real wall-clock benchmarks (the only ones in the suite),
// establishing that local evaluation is cheap relative to the simulated
// communication the other experiments measure.
#include <benchmark/benchmark.h>

// ahsw-lint: allow(D1) E10 measures real wall-clock micro-costs by design;
// no simulated-time result depends on these readings.
#include <chrono>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "rdf/store.hpp"
#include "sparql/eval.hpp"

namespace {

using namespace ahsw;
using sparql::Binding;
using sparql::SolutionSet;

/// These benchmarks measure wall clock, not simulated traffic; the JSON
/// record carries the mean per-iteration time and zero traffic.
template <typename Body>
void run_timed(benchmark::State& state, const std::string& name, Body body) {
  std::uint64_t iters = 0;
  // ahsw-lint: allow(D1) wall-clock is the measurand here, not an input to
  // any simulated result.
  auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    body();
    ++iters;
  }
  // ahsw-lint: allow(D1) second wall-clock read closing the measurement.
  auto t1 = std::chrono::steady_clock::now();
  double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  benchutil::record_raw_json(name, net::TrafficStats{},
                             iters > 0 ? ms / static_cast<double>(iters) : 0.0,
                             iters > 0 ? iters : 1);
}

SolutionSet make_set(std::size_t rows, std::size_t domain,
                     const std::string& shared_var,
                     const std::string& own_var, std::uint64_t seed) {
  common::Rng rng(seed);
  SolutionSet out;
  for (std::size_t i = 0; i < rows; ++i) {
    Binding b;
    b.set(shared_var, rdf::Term::iri("http://v" + std::to_string(
                                                      rng.below(domain))));
    b.set(own_var, rdf::Term::integer(static_cast<long long>(i)));
    out.add(std::move(b));
  }
  return out;
}

void BM_SolutionJoin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  SolutionSet a = make_set(n, n / 4 + 1, "x", "a", 1);
  SolutionSet b = make_set(n, n / 4 + 1, "x", "b", 2);
  run_timed(state, "join/n=" + std::to_string(n),
            [&] { benchmark::DoNotOptimize(sparql::vec_join(a, b)); });
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SolutionJoin)->Range(64, 4096)->Complexity();

void BM_SolutionLeftJoin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  SolutionSet a = make_set(n, n / 4 + 1, "x", "a", 3);
  SolutionSet b = make_set(n / 2, n / 4 + 1, "x", "b", 4);
  run_timed(state, "left-join/n=" + std::to_string(n), [&] {
    benchmark::DoNotOptimize(
        sparql::vec_left_join_conditioned(a, b, nullptr));
  });
}
BENCHMARK(BM_SolutionLeftJoin)->Range(64, 1024);

void BM_SolutionDedup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  SolutionSet a = make_set(n, 16, "x", "a", 7);
  run_timed(state, "dedup/n=" + std::to_string(n), [&] {
    SolutionSet copy = a;
    benchmark::DoNotOptimize(sparql::vec_deduplicated(std::move(copy)));
  });
}
BENCHMARK(BM_SolutionDedup)->Range(64, 4096);

void BM_FilterEvaluation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  SolutionSet a = make_set(n, n, "x", "a", 8);
  sparql::ExprPtr cond = sparql::Expr::binary(
      sparql::ExprKind::kGt, sparql::Expr::variable("a"),
      sparql::Expr::constant_term(
          rdf::Term::integer(static_cast<long long>(n / 2))));
  run_timed(state, "filter/n=" + std::to_string(n),
            [&] {
              benchmark::DoNotOptimize(sparql::vec_filter_set(a, *cond));
            });
}
BENCHMARK(BM_FilterEvaluation)->Range(64, 4096);

rdf::TripleStore make_store(std::size_t triples) {
  common::Rng rng(9);
  rdf::TripleStore store;
  while (store.size() < triples) {
    store.insert(
        {rdf::Term::iri("http://s" + std::to_string(rng.below(triples / 4 + 1))),
         rdf::Term::iri("http://p" + std::to_string(rng.below(8))),
         rdf::Term::iri("http://o" + std::to_string(rng.below(triples / 2 + 1)))});
  }
  return store;
}

void BM_StorePatternMatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rdf::TripleStore store = make_store(n);
  rdf::TriplePattern pattern{rdf::Variable{"s"}, rdf::Term::iri("http://p3"),
                             rdf::Variable{"o"}};
  run_timed(state, "store-match/n=" + std::to_string(n),
            [&] { benchmark::DoNotOptimize(store.count_matches(pattern)); });
}
BENCHMARK(BM_StorePatternMatch)->Range(256, 16384);

void BM_LocalBgpEvaluation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rdf::TripleStore store = make_store(n);
  sparql::LocalEngine engine(store);
  std::vector<sparql::BgpPattern> bgp = {
      {rdf::TriplePattern{rdf::Variable{"x"}, rdf::Term::iri("http://p1"),
                          rdf::Variable{"y"}},
       nullptr},
      {rdf::TriplePattern{rdf::Variable{"y"}, rdf::Term::iri("http://p2"),
                          rdf::Variable{"z"}},
       nullptr}};
  run_timed(state, "local-bgp/n=" + std::to_string(n),
            [&] { benchmark::DoNotOptimize(engine.evaluate_bgp(bgp)); });
}
BENCHMARK(BM_LocalBgpEvaluation)->Range(256, 8192);

}  // namespace
