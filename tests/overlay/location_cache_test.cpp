// LocationCache unit semantics: TTL expiry, hot-threshold leasing,
// deterministic capacity eviction, access-count persistence across
// invalidations, and the CacheStats snapshot/delta discipline.
#include <gtest/gtest.h>

#include "overlay/location_cache.hpp"

namespace ahsw::overlay {
namespace {

std::vector<Provider> row(net::NodeAddress addr, std::uint32_t freq) {
  return {Provider{addr, freq, /*version=*/1}};
}

TEST(LocationCache, HitWithinTtlThenExpires) {
  CacheConfig cfg;
  cfg.ttl_ms = 400.0;
  LocationCache cache(cfg);

  EXPECT_EQ(cache.lookup(7, 0), nullptr);  // cold: miss
  EXPECT_FALSE(cache.insert(7, row(3, 10), /*index_node=*/99, /*now=*/0));

  const CachedRow* hit = cache.lookup(7, 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->index_node, 99u);
  EXPECT_EQ(hit->inserted_at, 0);
  EXPECT_EQ(hit->expires_at, 400);
  EXPECT_FALSE(hit->leased);

  // The TTL horizon is exclusive: at expires_at the row no longer serves.
  EXPECT_EQ(cache.lookup(7, 400), nullptr);
  EXPECT_TRUE(cache.rows().empty());

  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(LocationCache, HotThresholdLeasesAndExtendsTtl) {
  CacheConfig cfg;
  cfg.ttl_ms = 100.0;
  cfg.hot_threshold = 3;
  cfg.hot_ttl_ms = 1000.0;
  LocationCache cache(cfg);

  // Two lookups (both misses) leave the key below the threshold.
  (void)cache.lookup(5, 0);
  (void)cache.lookup(5, 0);
  EXPECT_FALSE(cache.insert(5, row(1, 2), 0, /*now=*/0));
  EXPECT_FALSE(cache.rows().at(5).leased);
  EXPECT_EQ(cache.rows().at(5).expires_at, 100);

  // The third lookup crosses the threshold: the next insert is leased and
  // earns the hot TTL.
  (void)cache.lookup(5, 10);  // hit; access count now 3
  EXPECT_TRUE(cache.invalidate(5));
  EXPECT_TRUE(cache.insert(5, row(1, 2), 0, /*now=*/20));
  EXPECT_TRUE(cache.rows().at(5).leased);
  EXPECT_EQ(cache.rows().at(5).expires_at, 1020);
  EXPECT_EQ(cache.stats().leases, 1u);
}

TEST(LocationCache, AccessCountsPersistAcrossInvalidation) {
  CacheConfig cfg;
  cfg.hot_threshold = 2;
  LocationCache cache(cfg);

  (void)cache.lookup(9, 0);
  EXPECT_FALSE(cache.insert(9, row(2, 1), 0, 0));
  EXPECT_TRUE(cache.invalidate(9));
  EXPECT_EQ(cache.access_count(9), 1u);

  // Heat survived the invalidation: one more lookup reaches the threshold.
  (void)cache.lookup(9, 1);
  EXPECT_TRUE(cache.insert(9, row(2, 1), 0, 1));
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(LocationCache, EvictionDropsEarliestExpiryDeterministically) {
  CacheConfig cfg;
  cfg.ttl_ms = 100.0;
  cfg.max_rows = 2;
  LocationCache cache(cfg);

  (void)cache.insert(1, row(1, 1), 0, /*now=*/50);  // expires 150
  (void)cache.insert(2, row(2, 1), 0, /*now=*/10);  // expires 110  <- victim
  (void)cache.insert(3, row(3, 1), 0, /*now=*/30);  // expires 130
  EXPECT_EQ(cache.rows().size(), 2u);
  EXPECT_EQ(cache.rows().count(2), 0u);
  EXPECT_EQ(cache.rows().count(1), 1u);
  EXPECT_EQ(cache.rows().count(3), 1u);

  // Equal expiry: the smallest key loses (map order, no randomness).
  LocationCache tie(cfg);
  (void)tie.insert(8, row(1, 1), 0, 0);
  (void)tie.insert(4, row(2, 1), 0, 0);
  (void)tie.insert(6, row(3, 1), 0, 0);
  EXPECT_EQ(tie.rows().count(4), 0u);
  EXPECT_EQ(tie.rows().count(6), 1u);
  EXPECT_EQ(tie.rows().count(8), 1u);

  // Re-inserting a resident key is an overwrite, never an eviction.
  (void)cache.insert(1, row(9, 9), 0, /*now=*/60);
  EXPECT_EQ(cache.rows().size(), 2u);
  EXPECT_EQ(cache.rows().at(1).providers.front().frequency, 9u);
}

TEST(LocationCache, InvalidateProviderDropsEveryRowListingIt) {
  LocationCache cache;
  (void)cache.insert(1, row(7, 1), 0, 0);
  (void)cache.insert(2, {Provider{7, 1, 1}, Provider{8, 2, 1}}, 0, 0);
  (void)cache.insert(3, row(8, 1), 0, 0);

  EXPECT_EQ(cache.invalidate_provider(7), 2u);
  EXPECT_EQ(cache.rows().size(), 1u);
  EXPECT_EQ(cache.rows().count(3), 1u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.invalidate_provider(7), 0u);
}

TEST(LocationCache, StatsDeltaComposes) {
  LocationCache cache;
  (void)cache.lookup(1, 0);
  (void)cache.insert(1, row(1, 1), 0, 0);
  const CacheStats before = cache.stats();

  (void)cache.lookup(2, 0);  // miss after the snapshot
  CacheStats delta = cache.stats().delta_since(before);
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(delta.insertions, 0u);

  CacheStats total = before;
  total.accumulate(delta);
  EXPECT_EQ(total.misses, cache.stats().misses);
  EXPECT_EQ(total.hits, cache.stats().hits);
}

}  // namespace
}  // namespace ahsw::overlay
