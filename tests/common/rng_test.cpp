#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace simra {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    ASSERT_GE(u, -2.5);
    ASSERT_LT(u, 7.5);
  }
}

TEST(Rng, BelowStaysInBound) {
  Rng rng(11);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 2000; ++i) ASSERT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(13);
  constexpr int kBuckets = 10;
  int counts[kBuckets] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts)
    EXPECT_NEAR(static_cast<double>(c), kDraws / kBuckets, kDraws * 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double z = rng.normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.02);
}

TEST(Rng, NormalScaling) {
  Rng rng(19);
  double sum = 0.0;
  for (int i = 0; i < 50000; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / 50000.0, 10.0, 0.05);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceProbability) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Rng, CoinFlipsReplayChanceHalf) {
  // Each set bit of the mask takes one chance(0.5) draw, in ascending bit
  // order; clear bits take none.
  Rng positions_rng(37);
  Rng flips(41);
  Rng chances(41);
  for (int word = 0; word < 200; ++word) {
    std::uint64_t positions = positions_rng();
    if (word % 7 == 0) positions = 0;
    if (word % 11 == 0) positions = ~0ULL;
    const std::uint64_t heads = flips.coin_flips(positions);
    std::uint64_t want = 0;
    for (int b = 0; b < 64; ++b)
      if (((positions >> b) & 1) != 0 && chances.chance(0.5))
        want |= 1ULL << b;
    ASSERT_EQ(heads, want) << "word " << word;
  }
  EXPECT_EQ(flips(), chances());
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.fork();
  std::set<std::uint64_t> values;
  for (int i = 0; i < 100; ++i) {
    values.insert(parent());
    values.insert(child());
  }
  EXPECT_EQ(values.size(), 200u);  // no collisions expected.
}

TEST(Hash, SplitmixAdvancesState) {
  std::uint64_t s = 0;
  const std::uint64_t first = splitmix64(s);
  const std::uint64_t second = splitmix64(s);
  EXPECT_NE(first, second);
  EXPECT_NE(s, 0u);
}

TEST(Hash, Hash64Deterministic) {
  EXPECT_EQ(hash64(12345), hash64(12345));
  EXPECT_NE(hash64(12345), hash64(12346));
}

TEST(Hash, CombineOrderSensitive) {
  EXPECT_NE(hash_combine(hash64(1), 2), hash_combine(hash64(2), 1));
}

TEST(Rng, NormalFillPreservesDrawOrder) {
  // normal_fill must replay the exact normal() sequence — including the
  // cached Marsaglia spare — so bulk callers keep the scalar RNG stream.
  Rng a(99);
  Rng b(99);
  a.normal();  // leave a spare cached in both streams.
  b.normal();
  std::vector<double> filled(7);
  a.normal_fill(filled);
  for (double v : filled) EXPECT_DOUBLE_EQ(v, b.normal());
  // Streams stay aligned after the fill.
  EXPECT_DOUBLE_EQ(a.normal(), b.normal());
}

}  // namespace
}  // namespace simra
