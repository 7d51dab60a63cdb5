// Whole-system stress: interleaved data churn (share/unshare), node churn
// (storage and index joins, leaves, crashes) and queries, with the
// distributed answer checked against the live-data oracle after every
// phase. This is the "everything at once" property behind the paper's
// ad-hoc scenario: devices come and go, data changes hands, queries keep
// working.
#include <gtest/gtest.h>

#include "check/audit.hpp"
#include "common/audit_switch.hpp"
#include "dqp_test_util.hpp"
#include "workload/generators.hpp"
#include "workload/queries.hpp"

namespace ahsw::dqp {
namespace {

using testing::canon;

class SystemStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SystemStress, QueriesStayOracleCorrectThroughChurn) {
  const std::uint64_t seed = GetParam();
  common::Rng rng(seed);

  workload::TestbedConfig cfg;
  cfg.index_nodes = 8;
  cfg.storage_nodes = 8;
  cfg.overlay.replication_factor = 3;
  cfg.foaf.persons = 60;
  cfg.foaf.seed = seed;
  cfg.partition.seed = seed + 1;
  workload::Testbed bed(cfg);
  ExecutionPolicy policy;
  policy.adaptive = rng.chance(0.5);
  DistributedQueryProcessor proc(bed.overlay(), policy);

  // Extra data that churns in and out during the run.
  workload::FoafConfig extra_cfg;
  extra_cfg.persons = 30;
  extra_cfg.seed = seed + 2;
  std::vector<rdf::Triple> extra = workload::generate_foaf(extra_cfg);

  std::vector<net::NodeAddress> storages = bed.storage_addrs();
  workload::QueryMixConfig mix;
  mix.seed = seed + 3;
  std::vector<std::string> queries =
      workload::generate_query_mix(24, cfg.foaf, mix);

  // AHSW_AUDIT=1: trace every query and check the I5 conservation invariant
  // (span self-counters must sum exactly to the query's traffic delta).
  obs::QueryTrace trace;
  if (common::audit_enabled()) proc.set_trace(&trace);

  auto check = [&](const std::string& q) {
    net::NodeAddress initiator = storages[rng.below(storages.size())];
    while (bed.network().is_failed(initiator)) {
      initiator = storages[rng.below(storages.size())];
    }
    sparql::Query parsed = sparql::parse_query(q);
    trace.clear();
    net::TrafficStats before = bed.network().stats();
    sparql::QueryResult dist = proc.execute(parsed, initiator, nullptr);
    if (common::audit_enabled()) {
      net::TrafficStats delta = bed.network().stats().delta_since(before);
      check::AuditReport rep;
      check::audit_conservation(trace, delta, rep);
      ASSERT_TRUE(rep.clean()) << q << "\n" << rep.to_string();
    }
    sparql::QueryResult oracle =
        sparql::execute_local(parsed, bed.overlay().merged_store());
    ASSERT_EQ(canon(dist.solutions).rows(), canon(oracle.solutions).rows())
        << q;
  };

  // AHSW_AUDIT=1: full-overlay audit after every mutation phase. The system
  // is mid-churn (stale provider pointers, replica drift), so the lenient
  // severity model applies — but nothing may ever be corrupt.
  auto audit_overlay_state = [&](int phase) {
    if (!common::audit_enabled()) return;
    check::AuditOptions opt;
    opt.churned = true;
    check::AuditReport rep = check::audit(bed.overlay(), opt);
    ASSERT_TRUE(rep.clean()) << "phase " << phase << "\n" << rep.to_string();
  };
  audit_overlay_state(-1);  // freshly built system

  std::size_t next_query = 0;
  std::size_t extra_cursor = 0;
  for (int phase = 0; phase < 8; ++phase) {
    // -- mutate the system ------------------------------------------------
    switch (rng.below(5)) {
      case 0: {  // share a slice of extra data at a random live node
        std::vector<rdf::Triple> slice;
        for (int i = 0; i < 20 && extra_cursor < extra.size(); ++i) {
          slice.push_back(extra[extra_cursor++]);
        }
        net::NodeAddress node = storages[rng.below(storages.size())];
        if (!bed.network().is_failed(node)) {
          bed.overlay().share_triples(node, slice, 0);
        }
        break;
      }
      case 1: {  // unshare a random prefix of a node's data
        net::NodeAddress node = storages[rng.below(storages.size())];
        if (!bed.network().is_failed(node)) {
          std::vector<rdf::Triple> victimised;
          bed.overlay().store_of(node).for_each(
              [&](const rdf::Triple& t) {
                if (victimised.size() < 10) victimised.push_back(t);
              });
          bed.overlay().unshare_triples(node, victimised, 0);
        }
        break;
      }
      case 2: {  // a new storage device arrives with data
        net::NodeAddress fresh = bed.overlay().add_storage_node();
        storages.push_back(fresh);
        std::vector<rdf::Triple> slice;
        for (int i = 0; i < 15 && extra_cursor < extra.size(); ++i) {
          slice.push_back(extra[extra_cursor++]);
        }
        bed.overlay().share_triples(fresh, slice, 0);
        break;
      }
      case 3: {  // index-node churn: one joins, one crashes
        bed.overlay().add_index_node(0);
        if (bed.overlay().index_nodes().size() > 4) {
          auto it = bed.overlay().index_nodes().begin();
          std::advance(it, static_cast<std::ptrdiff_t>(
                               rng.below(bed.overlay().index_nodes().size())));
          bed.overlay().index_node_fail(it->first);
          bed.overlay().repair(0);
        }
        bed.overlay().ring().fix_all_fingers_oracle();
        break;
      }
      default: {  // a storage device crashes (stale entries linger)
        std::size_t live_count = 0;
        for (net::NodeAddress s : storages) {
          if (!bed.network().is_failed(s)) ++live_count;
        }
        if (live_count > 4) {
          net::NodeAddress victim = storages[rng.below(storages.size())];
          if (!bed.network().is_failed(victim)) {
            bed.overlay().storage_node_fail(victim);
          }
        }
        break;
      }
    }

    audit_overlay_state(phase);

    // -- queries must still match the live oracle -------------------------
    for (int q = 0; q < 3; ++q) {
      check(queries[next_query++ % queries.size()]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SystemStress, ::testing::Values(101u, 202u, 303u),
    [](const ::testing::TestParamInfo<std::uint64_t>& instance) {
      return std::to_string(instance.param);
    });

}  // namespace
}  // namespace ahsw::dqp
