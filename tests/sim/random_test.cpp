#include "sim/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace wormcast {
namespace {

TEST(RandomStream, ExpIntervalHasRequestedMean) {
  RandomStream rng(1);
  const double mean = 500.0;
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += static_cast<double>(rng.exp_interval(mean));
  EXPECT_NEAR(total / n, mean, mean * 0.05);
}

TEST(RandomStream, ExpIntervalNeverBelowOne) {
  RandomStream rng(2);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.exp_interval(1.5), 1);
}

TEST(RandomStream, GeometricLengthHasRequestedMeanAndFloor) {
  RandomStream rng(3);
  const double mean = 400.0;
  const std::int64_t min_len = 16;
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto len = rng.geometric_length(mean, min_len);
    EXPECT_GE(len, min_len);
    total += static_cast<double>(len);
  }
  EXPECT_NEAR(total / n, mean, mean * 0.05);
}

TEST(RandomStream, UniformCoversRangeInclusive) {
  RandomStream rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomStream, ChanceRespectsProbability) {
  RandomStream rng(5);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.1) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.1, 0.01);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(RandomStream, SameSeedSameSequence) {
  RandomStream a(77);
  RandomStream b(77);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
}

TEST(RandomStream, ForkedStreamsAreIndependentAndDeterministic) {
  RandomStream base(9);
  RandomStream f1 = base.fork(1);
  RandomStream f2 = base.fork(2);
  RandomStream f1_again = RandomStream(9).fork(1);
  bool all_equal = true;
  for (int i = 0; i < 50; ++i) {
    const auto a = f1.uniform(0, 1 << 30);
    const auto b = f2.uniform(0, 1 << 30);
    if (a != b) all_equal = false;
    EXPECT_EQ(a, f1_again.uniform(0, 1 << 30));
  }
  EXPECT_FALSE(all_equal);
}

TEST(RandomStream, ShuffleIsAPermutation) {
  RandomStream rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RandomStream, PickReturnsContainedElement) {
  RandomStream rng(12);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int x = rng.pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

// The engine is built on the first sequential draw, yet a stream draws
// exactly what an engine seeded up front draws, and a copy made before or
// after the first draw continues from the original's state at the copy.
TEST(RandomStream, LazyEngineDrawsTheEagerSequence) {
  constexpr std::uint64_t kSeed = 0x5EED;
  std::mt19937_64 eager(kSeed);
  std::vector<std::int64_t> expected;
  for (int i = 0; i < 100; ++i)
    expected.push_back(
        std::uniform_int_distribution<std::int64_t>(0, 1 << 20)(eager));

  RandomStream lazy(kSeed);
  (void)lazy.keyed_uniform(0, 9, 1, 2);  // keyed draws use the seed alone
  EXPECT_EQ(lazy.heap_bytes(), 0u);
  const RandomStream copied_before(lazy);
  RandomStream assigned_before(1);
  assigned_before = lazy;
  std::vector<std::int64_t> drawn;
  for (int i = 0; i < 50; ++i) drawn.push_back(lazy.uniform(0, 1 << 20));
  EXPECT_EQ(lazy.heap_bytes(), sizeof(std::mt19937_64));
  RandomStream copied_after(lazy);
  RandomStream assigned_after(2);
  assigned_after = lazy;
  for (int i = 50; i < 100; ++i) drawn.push_back(lazy.uniform(0, 1 << 20));
  EXPECT_EQ(drawn, expected);

  for (int i = 50; i < 100; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(copied_after.uniform(0, 1 << 20), expected[k]);
    EXPECT_EQ(assigned_after.uniform(0, 1 << 20), expected[k]);
  }
  RandomStream from_before(copied_before);
  EXPECT_EQ(from_before.heap_bytes(), 0u);
  for (int i = 0; i < 100; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(from_before.uniform(0, 1 << 20), expected[k]);
    EXPECT_EQ(assigned_before.uniform(0, 1 << 20), expected[k]);
  }
}

}  // namespace
}  // namespace wormcast
