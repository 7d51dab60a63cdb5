// System-level property test: for randomized testbeds and the generated
// query mix, every policy combination must produce the single-site oracle
// answer. This is the strongest correctness statement in the suite: the
// distributed machinery (two-level index, chains, site selection, filter
// pushing) is pure optimization and never changes semantics.
#include <gtest/gtest.h>

#include "dqp_test_util.hpp"
#include "../support/param_names.hpp"
#include "workload/queries.hpp"

namespace ahsw::dqp {
namespace {

using optimizer::JoinSitePolicy;
using optimizer::PrimitiveStrategy;
using testing::expect_matches_oracle;

struct Scenario {
  std::uint64_t seed;
  PrimitiveStrategy strategy;
  JoinSitePolicy site;
  bool push_filters;
};

class MixEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(MixEquivalence, TwentyQueriesMatchOracle) {
  const Scenario& sc = GetParam();
  workload::TestbedConfig cfg;
  cfg.index_nodes = 4 + sc.seed % 3;
  cfg.storage_nodes = 5 + sc.seed % 4;
  cfg.foaf.persons = 60;
  cfg.foaf.seed = sc.seed;
  cfg.partition.seed = sc.seed + 1;
  cfg.partition.overlap = 0.2;
  cfg.overlay.seed = sc.seed + 2;
  workload::Testbed bed(cfg);

  ExecutionPolicy policy;
  policy.primitive = sc.strategy;
  policy.join_site = sc.site;
  policy.push_filters = sc.push_filters;
  DistributedQueryProcessor proc(bed.overlay(), policy);

  workload::QueryMixConfig mix;
  mix.seed = sc.seed + 3;
  std::vector<std::string> queries =
      workload::generate_query_mix(20, cfg.foaf, mix);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    net::NodeAddress initiator =
        bed.storage_addrs()[i % bed.storage_addrs().size()];
    expect_matches_oracle(bed, proc, queries[i], initiator);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, MixEquivalence,
    ::testing::Values(
        Scenario{1, PrimitiveStrategy::kBasic, JoinSitePolicy::kMoveSmall,
                 true},
        Scenario{2, PrimitiveStrategy::kChain, JoinSitePolicy::kQuerySite,
                 true},
        Scenario{3, PrimitiveStrategy::kFrequencyChain,
                 JoinSitePolicy::kThirdSite, true},
        Scenario{4, PrimitiveStrategy::kFrequencyChain,
                 JoinSitePolicy::kMoveSmall, false},
        Scenario{5, PrimitiveStrategy::kBasic, JoinSitePolicy::kThirdSite,
                 false},
        Scenario{6, PrimitiveStrategy::kChain, JoinSitePolicy::kMoveSmall,
                 true}),
    [](const ::testing::TestParamInfo<Scenario>& instance) {
      const Scenario& sc = instance.param;
      return "seed" + std::to_string(sc.seed) + "_" +
             test_names::param_name(
                 optimizer::primitive_strategy_name(sc.strategy)) +
             "_" +
             test_names::param_name(optimizer::join_site_policy_name(sc.site)) +
             (sc.push_filters ? "_push_filters" : "_no_push");
    });

}  // namespace
}  // namespace ahsw::dqp
