// Shared fixture for distributed-query-processor tests: a testbed system
// plus the single-site oracle that distributed answers must match.
#pragma once

#include <gtest/gtest.h>

#include "dqp/processor.hpp"
#include "sparql/eval.hpp"
#include "workload/testbed.hpp"

namespace ahsw::dqp::testing {

inline constexpr std::string_view kPrologue =
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
    "PREFIX ns: <http://example.org/ns#>\n";

/// Distinct, canonically ordered rows of a solution set (distributed
/// execution merges with set semantics, so comparisons are as sets).
inline sparql::SolutionSet canon(const sparql::SolutionSet& s) {
  return sparql::vec_deduplicated(s);
}

/// Run `query` distributed from `initiator` and against the merged-store
/// oracle; EXPECT equality of the distinct solution sets.
inline void expect_matches_oracle(workload::Testbed& bed,
                                  DistributedQueryProcessor& proc,
                                  const std::string& query,
                                  net::NodeAddress initiator,
                                  ExecutionReport* report = nullptr) {
  sparql::Query q = sparql::parse_query(query);
  ExecutionReport local_report;
  sparql::QueryResult dist =
      proc.execute(q, initiator, report != nullptr ? report : &local_report);
  rdf::TripleStore merged = bed.overlay().merged_store();
  sparql::QueryResult oracle = sparql::execute_local(q, merged);

  switch (q.form) {
    case sparql::QueryForm::kAsk:
      EXPECT_EQ(dist.ask_answer, oracle.ask_answer) << query;
      break;
    case sparql::QueryForm::kConstruct:
    case sparql::QueryForm::kDescribe:
      EXPECT_EQ(dist.graph, oracle.graph) << query;
      break;
    case sparql::QueryForm::kSelect:
      EXPECT_EQ(canon(dist.solutions).rows(), canon(oracle.solutions).rows())
          << query;
      break;
  }
}

}  // namespace ahsw::dqp::testing
