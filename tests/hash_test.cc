// Tests for the randomness substrate: mixers, Mersenne-61 arithmetic,
// Nisan's PRG, and the seeded RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "src/hash/kwise_hash.h"
#include "src/hash/nisan_prg.h"
#include "src/hash/random.h"
#include "src/hash/splitmix.h"
#include "tests/reference_layout.h"

namespace gsketch {
namespace {

TEST(SplitMix, DeterministicAndSensitive) {
  EXPECT_EQ(Mix64(1, 2), Mix64(1, 2));
  EXPECT_NE(Mix64(1, 2), Mix64(1, 3));
  EXPECT_NE(Mix64(1, 2), Mix64(2, 2));
  EXPECT_NE(Mix64(1, 2, 3), Mix64(1, 3, 2));
}

TEST(SplitMix, AvalancheRoughlyHalfBitsFlip) {
  int total = 0;
  for (uint64_t x = 0; x < 256; ++x) {
    total += __builtin_popcountll(SplitMix64(x) ^ SplitMix64(x + 1));
  }
  double avg = total / 256.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(SplitMix, GeometricCoinMatchesBitPrefix) {
  EXPECT_TRUE(GeometricCoin(0b1000, 3));
  EXPECT_FALSE(GeometricCoin(0b1000, 4));
  EXPECT_TRUE(GeometricCoin(0xffffffffffffffffULL, 0));
  EXPECT_TRUE(GeometricCoin(0, 64));
}

TEST(SplitMix, GeometricLevelCountsTrailingZeros) {
  EXPECT_EQ(GeometricLevel(0b1, 10), 0u);
  EXPECT_EQ(GeometricLevel(0b100, 10), 2u);
  EXPECT_EQ(GeometricLevel(0, 10), 10u);  // capped
}

// Against the coin-at-a-time definition it replaced
// (reference::LevelOf), for every cap the sketches can use (0..63), the
// cap ≥ 64 branch, and the words where a capped trailing-zero count can
// go wrong: zero, the extreme bits, random words, and the powers of two
// around the cap.
TEST(SplitMix, GeometricLevelMatchesBitAtATimeReference) {
  std::vector<uint64_t> common = {0, 1, uint64_t{1} << 63, ~uint64_t{0}};
  uint64_t x = 0;
  for (int i = 0; i < 256; ++i) common.push_back(SplitMix64(x++));
  std::vector<uint32_t> caps;
  for (uint32_t cap = 0; cap <= 64; ++cap) caps.push_back(cap);
  caps.push_back(65);
  caps.push_back(100);
  for (uint32_t cap : caps) {
    std::vector<uint64_t> words = common;
    if (cap < 64) {
      words.push_back((uint64_t{1} << cap) - 1);
      words.push_back(uint64_t{1} << cap);
    }
    if (cap + 1 < 64) words.push_back(uint64_t{1} << (cap + 1));
    for (uint64_t word : words) {
      ASSERT_EQ(GeometricLevel(word, cap), reference::LevelOf(word, cap))
          << "word=" << word << " cap=" << cap;
    }
  }
  static_assert(GeometricLevel(0, 7) == 7 && GeometricLevel(8, 7) == 3 &&
                    GeometricLevel(0, 64) == 64 &&
                    GeometricLevel(uint64_t{1} << 63, 100) == 63,
                "GeometricLevel must stay usable in constant expressions");
}

TEST(SplitMix, DeriveSeedSeparatesRoles) {
  EXPECT_NE(DeriveSeed(7, 0), DeriveSeed(7, 1));
  EXPECT_NE(DeriveSeed(7, 0), DeriveSeed(8, 0));
}

TEST(Mod61, MulModAgainstNaive) {
  EXPECT_EQ(MulMod61(0, 12345), 0u);
  EXPECT_EQ(MulMod61(1, kMersenne61 - 1), kMersenne61 - 1);
  // (p-1)^2 mod p == 1.
  EXPECT_EQ(MulMod61(kMersenne61 - 1, kMersenne61 - 1), 1u);
}

TEST(NisanPrg, WordAccessMatchesLevels) {
  NisanPrg prg(123, 10);
  EXPECT_EQ(prg.num_words(), 1024u);
  // Word 0 applies no hash at all; repeated calls agree.
  EXPECT_EQ(prg.Word(0), prg.Word(0));
  EXPECT_EQ(prg.Word(1023), prg.Word(1023));
}

TEST(NisanPrg, OutputLooksBalanced) {
  NisanPrg prg(7, 12);
  int ones = 0;
  constexpr int kBits = 1 << 14;
  for (int i = 0; i < kBits; ++i) ones += prg.Bit(static_cast<uint64_t>(i));
  double frac = static_cast<double>(ones) / kBits;
  EXPECT_NEAR(frac, 0.5, 0.05);
}

TEST(NisanPrg, DistinctWordsAcrossStream) {
  NisanPrg prg(99, 8);
  std::set<uint64_t> words;
  for (uint64_t i = 0; i < prg.num_words(); ++i) words.insert(prg.Word(i));
  // 256 words; collisions should be essentially absent.
  EXPECT_GE(words.size(), 250u);
}

TEST(PrgSeedBank, StableSeeds) {
  PrgSeedBank bank(3, 6);
  EXPECT_EQ(bank.Seed(5), bank.Seed(5));
  EXPECT_NE(bank.Seed(5), bank.Seed(6));
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, SampleDistinctReturnsSortedUnique) {
  Rng rng(13);
  auto s = rng.SampleDistinct(100, 20);
  ASSERT_EQ(s.size(), 20u);
  for (size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1], s[i]);
  for (uint64_t v : s) EXPECT_LT(v, 100u);
}

TEST(Rng, UnitMeanNearHalf) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) sum += rng.Unit();
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace gsketch
