#include "common/random.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace pas::common {
namespace {

TEST(RngTest, Deterministic) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r{7};
  for (int i = 0; i < 10'000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRange) {
  Rng r{9};
  RunningStats s;
  for (int i = 0; i < 20'000; ++i) {
    const double x = r.uniform(5.0, 15.0);
    EXPECT_GE(x, 5.0);
    EXPECT_LT(x, 15.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
}

TEST(RngTest, NextBelowCoversRange) {
  Rng r{11};
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50'000; ++i) ++counts[r.next_below(10)];
  for (int c : counts) {
    EXPECT_GT(c, 4000);
    EXPECT_LT(c, 6000);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng r{13};
  RunningStats s;
  for (int i = 0; i < 100'000; ++i) s.add(r.exponential(0.05));
  EXPECT_NEAR(s.mean(), 0.05, 0.002);
  EXPECT_GE(s.min(), 0.0);
}

TEST(RngTest, NormalMoments) {
  Rng r{17};
  RunningStats s;
  for (int i = 0; i < 100'000; ++i) s.add(r.normal(3.0, 0.5));
  EXPECT_NEAR(s.mean(), 3.0, 0.02);
  EXPECT_NEAR(s.stddev(), 0.5, 0.02);
}

TEST(RngTest, ChanceProbability) {
  Rng r{19};
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) {
    if (r.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

TEST(SubstreamTest, Deterministic) {
  Rng a = substream(101, "chaos");
  Rng b = substream(101, "chaos");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(SubstreamTest, TagsAreIndependent) {
  // Different tags under the same seed — and the same tag under different
  // seeds — must produce unrelated streams.
  Rng chaos = substream(101, "chaos");
  Rng fleet = substream(101, "fleet");
  Rng other_seed = substream(102, "chaos");
  int same_tagwise = 0, same_seedwise = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t c = chaos.next_u64();
    if (c == fleet.next_u64()) ++same_tagwise;
    if (c == other_seed.next_u64()) ++same_seedwise;
  }
  EXPECT_LT(same_tagwise, 2);
  EXPECT_LT(same_seedwise, 2);
}

TEST(SubstreamTest, DoesNotPerturbTheBaseStream) {
  // Prefix preservation — the property every scenario generator leans on: a
  // feature drawing from substream(seed, tag) leaves Rng{seed}'s sequence
  // untouched, so historical seeded scenarios replay byte-identically.
  Rng base{17};
  std::vector<std::uint64_t> before;
  for (int i = 0; i < 64; ++i) before.push_back(base.next_u64());

  Rng derived = substream(17, "chaos");
  for (int i = 0; i < 1000; ++i) (void)derived.next_u64();

  Rng replay{17};
  for (int i = 0; i < 64; ++i) EXPECT_EQ(replay.next_u64(), before[i]);
  // And the derived stream is not a delayed replay of the base either.
  Rng derived2 = substream(17, "chaos");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (derived2.next_u64() == before[i]) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(SubstreamTest, GoldenValuesPinTheDerivation) {
  // The derivation (splitmix64(seed) ^ FNV-1a-64(tag), fed to the Rng
  // seeder) is part of every seeded experiment's identity: changing it
  // would silently rename all of them. These constants are the first two
  // outputs of four (seed, tag) pairs under the current derivation — if
  // this test fails, the derivation changed, and every recorded chaos seed
  // in BENCHMARKS.md and CI is invalid.
  struct Golden {
    std::uint64_t seed;
    const char* tag;
    std::uint64_t first, second;
  };
  const Golden golden[] = {
      {17, "chaos", 0xA89567755FE8D79AULL, 0xC503AEB7E43EA080ULL},
      {17, "crash", 0x4B2164F9D4BDE095ULL, 0x6ABB96440963CDA2ULL},
      {0, "chaos", 0x36AE9370D8659417ULL, 0x24B2D116A8634061ULL},
      {42, "link", 0xFC6ABBF960BCF3ABULL, 0x1C95DA085492FD8EULL},
  };
  for (const Golden& g : golden) {
    Rng r = substream(g.seed, g.tag);
    EXPECT_EQ(r.next_u64(), g.first) << g.seed << " \"" << g.tag << "\"";
    EXPECT_EQ(r.next_u64(), g.second) << g.seed << " \"" << g.tag << "\"";
  }
}

}  // namespace
}  // namespace pas::common
