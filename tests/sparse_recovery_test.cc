// Tests for k-RECOVERY (Theorem 2.2): exact recovery up to capacity, FAIL
// beyond it, linearity, and the subtraction path used by Fig. 3.
#include <gtest/gtest.h>

#include <map>

#include "src/hash/random.h"
#include "src/sketch/sparse_recovery.h"

namespace gsketch {
namespace {

TEST(SparseRecovery, EmptyDecodesToNothing) {
  SparseRecovery s(1 << 16, 8, 3, 1);
  auto r = s.Decode();
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.entries.empty());
  EXPECT_TRUE(s.IsZero());
}

TEST(SparseRecovery, RecoversExactVector) {
  SparseRecovery s(1 << 16, 8, 3, 2);
  std::map<uint64_t, int64_t> truth{{5, 2}, {1000, -7}, {60000, 1}, {31, 4}};
  for (const auto& [i, v] : truth) s.Update(i, v);
  auto r = s.Decode();
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.entries.size(), truth.size());
  for (const auto& [i, v] : r.entries) {
    EXPECT_EQ(truth.at(i), v);
  }
}

TEST(SparseRecovery, FailsBeyondCapacity) {
  int failed = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SparseRecovery s(1 << 18, 4, 3, seed);
    Rng rng(seed);
    for (int i = 0; i < 200; ++i) s.Update(rng.Below(1 << 18), 1);
    auto r = s.Decode();
    if (!r.ok) ++failed;
  }
  // 200 >> 2*4 buckets: peeling cannot complete.
  EXPECT_EQ(failed, 20);
}

TEST(SparseRecovery, DeletionsReduceToRecoverable) {
  SparseRecovery s(1 << 14, 4, 3, 7);
  for (uint64_t i = 0; i < 100; ++i) s.Update(i * 11, 1);
  for (uint64_t i = 0; i < 100; ++i) {
    if (i % 25 != 0) s.Update(i * 11, -1);  // leave 4 survivors
  }
  auto r = s.Decode();
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.entries.size(), 4u);
  for (const auto& [i, v] : r.entries) {
    EXPECT_EQ(i % (11 * 25), 0u);
    EXPECT_EQ(v, 1);
  }
}

TEST(SparseRecovery, MergeEqualsSingleStream) {
  SparseRecovery a(4096, 8, 3, 9), b(4096, 8, 3, 9), whole(4096, 8, 3, 9);
  for (uint64_t i = 0; i < 6; ++i) {
    a.Update(i * 5, 1);
    whole.Update(i * 5, 1);
  }
  for (uint64_t i = 0; i < 2; ++i) {
    b.Update(1000 + i, 3);
    whole.Update(1000 + i, 3);
  }
  a.Merge(b);
  auto ra = a.Decode(), rw = whole.Decode();
  ASSERT_TRUE(ra.ok);
  ASSERT_TRUE(rw.ok);
  EXPECT_EQ(ra.entries, rw.entries);
}

TEST(SparseRecovery, SubtractRemovesOtherStream) {
  SparseRecovery a(4096, 8, 3, 10), b(4096, 8, 3, 10);
  a.Update(1, 1);
  a.Update(2, 2);
  b.Update(2, 2);
  a.Subtract(b);
  auto r = a.Decode();
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(r.entries[0].first, 1u);
}

TEST(SparseRecovery, ZeroNetUpdatesDecodeEmpty) {
  SparseRecovery s(4096, 4, 3, 11);
  for (int rep = 0; rep < 10; ++rep) {
    s.Update(77, 1);
    s.Update(77, -1);
  }
  EXPECT_TRUE(s.IsZero());
  auto r = s.Decode();
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.entries.empty());
}

}  // namespace
}  // namespace gsketch
