#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <vector>

namespace ahsw::common {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> buckets(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[rng.below(10)];
  for (int count : buckets) {
    EXPECT_NEAR(count, n / 10, n / 100);  // within 10% relative
  }
}

TEST(Rng, BetweenIsInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t v = rng.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits, 2500, 200);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(19);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_FALSE(std::is_sorted(shuffled.begin(), shuffled.end()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(ZipfSampler, UniformWhenSkewZero) {
  ZipfSampler z(10, 0.0);
  Rng rng(23);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 1000);
}

TEST(ZipfSampler, SkewFavorsLowRanks) {
  ZipfSampler z(100, 1.0);
  Rng rng(29);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
  // Zipf s=1: rank 0 should take roughly 1/H(100) ~ 19% of the mass.
  EXPECT_GT(counts[0], 15000);
}

TEST(ZipfSampler, SamplesStayInUniverse) {
  ZipfSampler z(5, 1.2);
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(z.sample(rng), 5u);
}

TEST(ZipfSampler, UniverseOfOneAlwaysZero) {
  ZipfSampler z(1, 1.0);
  Rng rng(37);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(rng), 0u);
}

TEST(ZipfSampler, SeededDrawsArePinned) {
  // The CDF is built from std::pow, whose last bit is the libm's choice. The
  // workloads draw at these (n, s) points (FOAF popularity, perfbench's
  // point-zipf and churn-rw reads), so a libm or flag change that moves a
  // draw fails here by name rather than as a golden-digest drift. Pinned:
  // the first twelve ranks and an FNV-1a hash over 100000 ranks.
  struct Pin {
    std::size_t n;
    double s;
    std::uint64_t seed;
    std::vector<std::size_t> first;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {2000, 0.8, 41, {282, 2, 321, 1604, 467, 826, 3, 252, 11, 15, 617, 8},
       0x3207172f7363df5cull},
      {400, 1.0, 43, {30, 9, 131, 0, 0, 4, 185, 39, 1, 75, 0, 202},
       0x780a2edfc589c349ull},
      {600, 1.0, 47, {3, 3, 1, 4, 0, 0, 179, 31, 20, 24, 147, 121},
       0x43d46fd602e12649ull},
      {2000, 1.0, 53, {0, 8, 35, 180, 18, 3, 3, 852, 31, 33, 32, 52},
       0x9a915fc0c235ab04ull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE("n=" + std::to_string(pin.n) + " s=" + std::to_string(pin.s));
    ZipfSampler z(pin.n, pin.s);
    Rng rng(pin.seed);
    std::vector<std::size_t> first;
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 100000; ++i) {
      const std::size_t r = z.sample(rng);
      if (first.size() < pin.first.size()) first.push_back(r);
      for (int b = 0; b < 8; ++b) {
        h ^= (r >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
    EXPECT_EQ(first, pin.first);
    EXPECT_EQ(h, pin.hash);
  }
}

}  // namespace
}  // namespace ahsw::common
