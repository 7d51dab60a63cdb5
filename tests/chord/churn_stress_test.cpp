// Randomized churn stress: long sequences of joins, graceful leaves and
// crashes with periodic repair. Invariants checked after every batch:
// ring-pointer consistency and lookup-vs-oracle agreement from every live
// node. This is the property backing Sect. III-C/III-D's claim that the
// ring "eventually recovers" from arbitrary membership change.
#include <gtest/gtest.h>

#include "check/audit.hpp"
#include "common/audit_switch.hpp"
#include "chord/ring.hpp"
#include "common/rng.hpp"

namespace ahsw::chord {
namespace {

class ChurnStress : public ::testing::TestWithParam<std::uint64_t> {};

/// AHSW_AUDIT=1 hook: run the invariant auditor over the ring and assert
/// nothing corrupt surfaced. `churned` selects the lenient severity model
/// for audits taken while membership events are still unrepaired.
void maybe_audit(const Ring& ring, const net::Network& net, bool churned,
                 const char* where) {
  if (!common::audit_enabled()) return;
  check::AuditOptions opt;
  opt.churned = churned;
  check::AuditReport rep;
  check::audit_ring(ring, net, rep, opt);
  ASSERT_TRUE(rep.clean()) << where << "\n" << rep.to_string();
}

TEST_P(ChurnStress, RingStaysConsistentUnderRandomChurn) {
  net::Network network;
  Ring ring(network, RingConfig{24, 4});
  common::Rng rng(GetParam());

  std::vector<Key> live;
  auto fresh_id = [&] {
    Key id = ring.truncate(rng.next());
    while (ring.contains(id)) id = ring.truncate(rng.next());
    return id;
  };

  // Bootstrap.
  live.push_back(ring.create(network.allocate_address(), fresh_id()));
  for (int i = 0; i < 24; ++i) {
    Key id = fresh_id();
    ring.join(network.allocate_address(), id, live.front(), 0);
    live.push_back(id);
  }
  ring.fix_all_fingers_oracle();

  for (int batch = 0; batch < 12; ++batch) {
    // A batch of random membership events.
    int failures_this_batch = 0;
    for (int ev = 0; ev < 4; ++ev) {
      double u = rng.uniform();
      if (u < 0.4 || live.size() < 8) {
        Key id = fresh_id();
        ring.join(network.allocate_address(), id, live.front(), 0);
        live.push_back(id);
        maybe_audit(ring, network, /*churned=*/true, "after join");
      } else if (u < 0.7) {
        std::size_t victim = 1 + rng.below(live.size() - 1);
        ring.leave(live[victim], 0);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        maybe_audit(ring, network, /*churned=*/true, "after leave");
      } else if (failures_this_batch < 3) {
        // Cap concurrent crashes below the successor-list length so the
        // ring is guaranteed repairable.
        std::size_t victim = 1 + rng.below(live.size() - 1);
        ring.fail(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        ++failures_this_batch;
        maybe_audit(ring, network, /*churned=*/true, "after fail");
      }
    }
    ring.repair(0);
    ring.stabilize_all(0);
    // Repair + stabilization settles pointers again, so the strict
    // severity model applies: any remaining drift would be corrupt.
    maybe_audit(ring, network, /*churned=*/false, "after batch repair");
    // fix_fingers for a few random nodes (incremental maintenance, as the
    // protocol would do over time); oracle for the rest every few batches
    // to model convergence.
    for (int i = 0; i < 3 && !live.empty(); ++i) {
      Key node = live[rng.below(live.size())];
      if (ring.contains(node)) ring.fix_fingers(node, 0);
    }
    if (batch % 4 == 3) ring.fix_all_fingers_oracle();

    // Invariant 1: successor/predecessor pointers form the sorted ring.
    ASSERT_EQ(ring.size(), live.size());
    for (const auto& [id, n] : ring.nodes()) {
      ASSERT_FALSE(n.successors.empty());
      EXPECT_EQ(n.successors.front(),
                ring.oracle_successor(ring.truncate(id + 1)))
          << "batch " << batch;
    }
    // Invariant 2: lookups from random nodes agree with the oracle.
    for (int probe = 0; probe < 20; ++probe) {
      Key from = live[rng.below(live.size())];
      Key key = ring.truncate(rng.next());
      Ring::LookupResult r = ring.find_successor(from, key, 0);
      ASSERT_TRUE(r.ok) << "batch " << batch;
      EXPECT_EQ(r.owner, ring.oracle_successor(key)) << "batch " << batch;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChurnStress, ::testing::Values(11u, 22u, 33u, 44u, 55u),
    [](const ::testing::TestParamInfo<std::uint64_t>& instance) {
      return std::to_string(instance.param);
    });

}  // namespace
}  // namespace ahsw::chord
