#include "chord/ring.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "common/rng.hpp"

namespace ahsw::chord {
namespace {

/// Ring of `n` nodes with pseudo-random ids, oracle-converged fingers.
struct Fixture {
  net::Network network;
  Ring ring;

  explicit Fixture(int bits = 16, int successor_list = 4)
      : ring(network, RingConfig{bits, successor_list}) {}

  std::vector<Key> populate(std::size_t n, std::uint64_t seed = 1) {
    common::Rng rng(seed);
    std::vector<Key> ids;
    for (std::size_t i = 0; i < n; ++i) {
      Key id = ring.truncate(rng.next());
      while (ring.contains(id)) id = ring.truncate(rng.next());
      if (ring.size() == 0) {
        ring.create(network.allocate_address(), id);
      } else {
        ring.join(network.allocate_address(), id, ids.front(), 0);
      }
      ids.push_back(id);
    }
    ring.fix_all_fingers_oracle();
    return ids;
  }
};

TEST(Ring, CreateSingleNodeOwnsWholeRing) {
  Fixture f;
  Key id = f.ring.create(f.network.allocate_address(), 100);
  EXPECT_EQ(f.ring.size(), 1u);
  EXPECT_EQ(f.ring.oracle_successor(0), id);
  EXPECT_EQ(f.ring.oracle_successor(65535), id);
  Ring::LookupResult r = f.ring.find_successor(id, 42, 0);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.owner, id);
  EXPECT_EQ(r.hops, 0);
}

TEST(Ring, TruncateMasksToBits) {
  Fixture f(8);
  EXPECT_EQ(f.ring.truncate(0x1FF), 0xFFu);
  EXPECT_EQ(f.ring.truncate(0x100), 0u);
}

TEST(Ring, JoinSplicesNeighbors) {
  Fixture f(4);
  f.ring.create(f.network.allocate_address(), 1);
  f.ring.join(f.network.allocate_address(), 7, 1, 0);
  f.ring.join(f.network.allocate_address(), 12, 1, 0);
  ASSERT_EQ(f.ring.size(), 3u);
  EXPECT_EQ(f.ring.state(1).successors.front(), 7u);
  EXPECT_EQ(f.ring.state(7).successors.front(), 12u);
  EXPECT_EQ(f.ring.state(12).successors.front(), 1u);
  EXPECT_EQ(f.ring.state(1).predecessor.value(), 12u);
  EXPECT_EQ(f.ring.state(7).predecessor.value(), 1u);
}

TEST(Ring, LookupMatchesOracleEverywhere) {
  Fixture f;
  std::vector<Key> ids = f.populate(32);
  common::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Key key = f.ring.truncate(rng.next());
    Key from = ids[rng.below(ids.size())];
    Ring::LookupResult r = f.ring.find_successor(from, key, 0);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.owner, f.ring.oracle_successor(key)) << "key=" << key;
  }
}

TEST(Ring, LookupHopsAreLogarithmic) {
  Fixture f(32);
  std::vector<Key> ids = f.populate(256);
  common::Rng rng(6);
  int total_hops = 0;
  const int lookups = 300;
  for (int i = 0; i < lookups; ++i) {
    Ring::LookupResult r = f.ring.find_successor(
        ids[rng.below(ids.size())], f.ring.truncate(rng.next()), 0);
    ASSERT_TRUE(r.ok);
    total_hops += r.hops;
    EXPECT_LE(r.hops, 2 * 8);  // 2*log2(256)
  }
  double avg = static_cast<double>(total_hops) / lookups;
  // Chord's expected (1/2) log2 N = 4; allow generous slack.
  EXPECT_LT(avg, 8.0);
  EXPECT_GT(avg, 1.0);
}

TEST(Ring, LookupChargesRoutingTraffic) {
  Fixture f;
  std::vector<Key> ids = f.populate(16);
  f.network.reset_stats();
  Ring::LookupResult r = f.ring.find_successor(ids[0], 12345, 0);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(f.network.stats().messages,
            static_cast<std::uint64_t>(r.hops) + 1);  // hops + answer
  EXPECT_GT(r.completed_at, 0.0);
}

TEST(Ring, JoinTransferHookReportsTakenRange) {
  Fixture f(8);
  f.ring.create(f.network.allocate_address(), 10);
  f.ring.join(f.network.allocate_address(), 200, 10, 0);

  Key hook_old = 0, hook_new = 0, hook_lo = 0, hook_hi = 0;
  f.ring.set_transfer_hook([&](Key o, Key n, Key lo, Key hi, net::SimTime) {
    hook_old = o;
    hook_new = n;
    hook_lo = lo;
    hook_hi = hi;
  });
  // 100 lands between 10 and 200: its successor was 200; after the join
  // node 100 takes (10, 100] from 200.
  f.ring.join(f.network.allocate_address(), 100, 10, 0);
  EXPECT_EQ(hook_old, 200u);
  EXPECT_EQ(hook_new, 100u);
  EXPECT_EQ(hook_lo, 10u);
  EXPECT_EQ(hook_hi, 100u);
}

TEST(Ring, GracefulLeaveHandsRangeToSuccessor) {
  Fixture f(8);
  f.ring.create(f.network.allocate_address(), 10);
  f.ring.join(f.network.allocate_address(), 100, 10, 0);
  f.ring.join(f.network.allocate_address(), 200, 10, 0);

  Key hook_old = 0, hook_new = 0;
  f.ring.set_transfer_hook([&](Key o, Key n, Key, Key, net::SimTime) {
    hook_old = o;
    hook_new = n;
  });
  f.ring.leave(100, 0);
  EXPECT_EQ(hook_old, 100u);
  EXPECT_EQ(hook_new, 200u);
  EXPECT_EQ(f.ring.size(), 2u);
  EXPECT_EQ(f.ring.state(10).successors.front(), 200u);
  EXPECT_EQ(f.ring.state(200).predecessor.value(), 10u);
}

TEST(Ring, LookupRoutesAroundFailedNode) {
  Fixture f;
  std::vector<Key> ids = f.populate(32);
  // Fail a node; lookups from others should still succeed via successor
  // lists, never returning the corpse.
  Key victim = ids[10];
  f.ring.fail(victim);
  common::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    Key from = ids[rng.below(ids.size())];
    if (from == victim) continue;
    Key key = f.ring.truncate(rng.next());
    Ring::LookupResult r = f.ring.find_successor(from, key, 0);
    ASSERT_TRUE(r.ok);
    EXPECT_NE(r.owner, victim);
  }
}

TEST(Ring, RepairRemovesFailedAndRelinksSuccessors) {
  Fixture f;
  std::vector<Key> ids = f.populate(16);
  Key victim = ids[3];
  const std::optional<Key> victim_pred = f.ring.state(victim).predecessor;
  f.ring.fail(victim);
  f.ring.repair(0);
  EXPECT_EQ(f.ring.size(), 15u);
  EXPECT_FALSE(f.ring.contains(victim));
  // Ring is consistent again: successors point at live nodes, and the
  // first live node after the victim inherits its arc.
  for (const auto& [id, n] : f.ring.nodes()) {
    EXPECT_TRUE(f.ring.contains(n.successors.front()));
    EXPECT_EQ(n.successors.front(),
              f.ring.oracle_successor(f.ring.truncate(id + 1)));
  }
  EXPECT_EQ(f.ring.state(f.ring.oracle_successor(victim)).predecessor,
            victim_pred);
}

TEST(Ring, RepairSurvivesConsecutiveFailures) {
  Fixture f(16, 4);
  std::vector<Key> ids = f.populate(32);
  // Fail three consecutive nodes (within the successor-list budget).
  std::vector<Key> live = f.ring.live_ids();
  f.ring.fail(live[5]);
  f.ring.fail(live[6]);
  f.ring.fail(live[7]);
  f.ring.repair(0);
  EXPECT_EQ(f.ring.size(), 29u);
  // Lookups work from every survivor.
  common::Rng rng(8);
  for (Key from : f.ring.live_ids()) {
    Ring::LookupResult r =
        f.ring.find_successor(from, f.ring.truncate(rng.next()), 0);
    EXPECT_TRUE(r.ok);
  }
}

TEST(Ring, LiveIdsExcludesFailed) {
  Fixture f;
  std::vector<Key> ids = f.populate(8);
  f.ring.fail(ids[2]);
  std::vector<Key> live = f.ring.live_ids();
  EXPECT_EQ(live.size(), 7u);
  EXPECT_EQ(std::count(live.begin(), live.end(), ids[2]), 0);
}

}  // namespace
}  // namespace ahsw::chord
