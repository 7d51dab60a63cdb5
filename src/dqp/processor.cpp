#include "dqp/processor.hpp"

#include <cassert>
#include <optional>

#include "dqp/executor.hpp"
#include "dqp/parallel.hpp"
#include "sparql/ast.hpp"

namespace ahsw::dqp {

sparql::AlgebraPtr DistributedQueryProcessor::plan(
    std::string_view query_text) const {
  sparql::Query q = sparql::parse_query(query_text);
  sparql::AlgebraPtr a = sparql::translate_pattern(q.where);
  if (policy_.push_filters) a = optimizer::push_filters(a);
  return a;
}

sparql::QueryResult DistributedQueryProcessor::execute(
    std::string_view query_text, net::NodeAddress initiator,
    ExecutionReport* report) {
  return execute(sparql::parse_query(query_text), initiator, report);
}

sparql::QueryResult DistributedQueryProcessor::execute(
    const sparql::Query& q, net::NodeAddress initiator,
    ExecutionReport* report) {
  // A single query is a batch of one. Root spans keep their plain labels
  // (no query-id prefix).
  BatchOptions opts;
  opts.label_query_ids = false;
  DagExecutor exec(*overlay_, policy_, trace_, opts);
  BatchResult r = exec.run({BatchQuery{q, initiator}});
  if (report != nullptr) *report = std::move(r.reports.front());
  return std::move(r.results.front());
}

BatchResult DistributedQueryProcessor::execute_batch(
    const std::vector<BatchQuery>& batch, const BatchOptions& opts) {
  std::string reason;
  if (parallel_batch_eligible(opts, batch.size(), &reason)) {
    if (std::optional<BatchResult> out = run_parallel_batch(
            *overlay_, policy_, batch, opts, trace_, &reason)) {
      return std::move(*out);
    }
  }
  DagExecutor exec(*overlay_, policy_, trace_, opts);
  BatchResult out = exec.run(batch);
  // A batch that asked for workers but ran on the serial scheduler, because
  // it was ineligible or the parallel driver handed it back, says why, so
  // sweeps and tests can tell "parallel ran" from "parallel was refused"
  // without diffing timings.
  if (opts.workers > 1) {
    for (ExecutionReport& rep : out.reports) {
      rep.plan_notes.push_back("parallel: serial fallback (" + reason + ")");
    }
  }
  return out;
}

BatchResult DistributedQueryProcessor::execute_batch(
    const std::vector<std::string>& query_texts,
    const std::vector<net::NodeAddress>& initiators,
    const BatchOptions& opts) {
  assert(query_texts.size() == initiators.size() &&
         "execute_batch: one initiator per query");
  std::vector<BatchQuery> batch;
  batch.reserve(query_texts.size());
  for (std::size_t i = 0; i < query_texts.size(); ++i) {
    batch.push_back(
        BatchQuery{sparql::parse_query(query_texts[i]), initiators[i]});
  }
  return execute_batch(batch, opts);
}

}  // namespace ahsw::dqp
