// Tests for the 1-sparse decoding cell.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/hash/splitmix.h"
#include "src/sketch/cell_kernels.h"
#include "src/sketch/one_sparse.h"

namespace gsketch {
namespace {

constexpr uint64_t kSeed = 0xabcdef;

void Upd(OneSparseCell* c, uint64_t index, int64_t delta) {
  c->Update(index, delta, OneSparseCell::FingerOf(kSeed, index));
}

TEST(OneSparse, EmptyCellIsZeroAndUndecodable) {
  OneSparseCell c;
  EXPECT_TRUE(c.IsZero());
  EXPECT_FALSE(c.Decode(kSeed).has_value());
}

TEST(OneSparse, SingleEntryDecodes) {
  OneSparseCell c;
  Upd(&c, 42, 7);
  auto r = c.Decode(kSeed);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->index, 42u);
  EXPECT_EQ(r->value, 7);
}

TEST(OneSparse, NegativeValueDecodes) {
  OneSparseCell c;
  Upd(&c, 9, -3);
  auto r = c.Decode(kSeed);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->index, 9u);
  EXPECT_EQ(r->value, -3);
}

TEST(OneSparse, IndexZeroDecodes) {
  OneSparseCell c;
  Upd(&c, 0, 5);
  auto r = c.Decode(kSeed);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->index, 0u);
  EXPECT_EQ(r->value, 5);
}

TEST(OneSparse, InsertDeleteCancelsToZero) {
  OneSparseCell c;
  Upd(&c, 100, 1);
  Upd(&c, 100, -1);
  EXPECT_TRUE(c.IsZero());
  EXPECT_FALSE(c.Decode(kSeed).has_value());
}

TEST(OneSparse, TwoEntriesRejected) {
  OneSparseCell c;
  Upd(&c, 3, 1);
  Upd(&c, 8, 1);
  EXPECT_FALSE(c.Decode(kSeed).has_value());
  EXPECT_FALSE(c.IsZero());
}

TEST(OneSparse, TwoEntriesWithIntegerMeanRejected) {
  // index_weight/count = (4+8)/2 = 6: the division test alone would wrongly
  // report index 6; the fingerprint must catch it.
  OneSparseCell c;
  Upd(&c, 4, 1);
  Upd(&c, 8, 1);
  EXPECT_FALSE(c.Decode(kSeed).has_value());
}

TEST(OneSparse, CancellingValuesNotZeroVector) {
  // +1 at 5, -1 at 11: count == 0 but the vector is not zero.
  OneSparseCell c;
  Upd(&c, 5, 1);
  Upd(&c, 11, -1);
  EXPECT_FALSE(c.IsZero());
  EXPECT_FALSE(c.Decode(kSeed).has_value());
}

TEST(OneSparse, BecomesDecodableAfterPeeling) {
  OneSparseCell c;
  Upd(&c, 5, 2);
  Upd(&c, 11, 4);
  EXPECT_FALSE(c.Decode(kSeed).has_value());
  Upd(&c, 11, -4);  // peel the second entry
  auto r = c.Decode(kSeed);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->index, 5u);
  EXPECT_EQ(r->value, 2);
}

TEST(OneSparse, MergeActsLikeConcatenatedStream) {
  OneSparseCell a, b, whole;
  Upd(&a, 7, 3);
  Upd(&b, 7, -1);
  Upd(&whole, 7, 3);
  Upd(&whole, 7, -1);
  a.Merge(b);
  auto r1 = a.Decode(kSeed), r2 = whole.Decode(kSeed);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r1->index, r2->index);
  EXPECT_EQ(r1->value, r2->value);
}

TEST(OneSparse, SubtractInvertsMerge) {
  OneSparseCell a, b;
  Upd(&a, 1, 1);
  Upd(&b, 2, 5);
  a.Merge(b);
  a.Subtract(b);
  auto r = a.Decode(kSeed);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->index, 1u);
}

TEST(OneSparse, LargeIndicesAndValues) {
  OneSparseCell c;
  uint64_t big = (uint64_t{1} << 40) + 12345;
  Upd(&c, big, 1 << 20);
  auto r = c.Decode(kSeed);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->index, big);
  EXPECT_EQ(r->value, 1 << 20);
}

TEST(OneSparse, ManyEntriesNeverFalselyDecode) {
  // Property sweep: dense cells with varying contents must not decode.
  for (int trial = 0; trial < 50; ++trial) {
    OneSparseCell c;
    for (int i = 0; i < 10; ++i) {
      Upd(&c, static_cast<uint64_t>(trial * 100 + i * 3), 1 + (i % 3));
    }
    EXPECT_FALSE(c.Decode(kSeed).has_value()) << trial;
  }
}

// A hostile cell (a GSKC payload with a valid checksum can carry any
// bytes): count -1 with index weight INT64_MIN would divide INT64_MIN by
// -1, which traps. No 1-sparse vector sums to it, so it does not decode.
TEST(OneSparse, MinIndexWeightOverMinusOneDoesNotDecode) {
  OneSparseCell c;
  c.AddSums(-1, std::numeric_limits<int64_t>::min(), 1);
  EXPECT_FALSE(c.IsZero());
  EXPECT_FALSE(c.Decode(kSeed).has_value());
}

// index·delta past 2^63 (EdgeId(4094, 4095) times a delta of 2·10^12)
// wraps mod 2^64 the same way through OneSparseCell::Update and through
// every kernel backend, sums of overflowing terms included; the
// fingerprint then rejects the wrapped cell.
TEST(OneSparse, IndexWeightPastInt64WrapsAlikeInCellsAndKernels) {
  const uint64_t index = 8386559;
  const int64_t delta = 2000000000000;
  ASSERT_GT(static_cast<double>(index) * static_cast<double>(delta),
            9.3e18);
  const std::vector<uint64_t> ids = {index, index, 5, index};
  const std::vector<int64_t> deltas = {delta, delta, -delta, -1};
  const uint64_t finger_base = Mix64(kSeed, 0xf17eu);
  for (const uint32_t levels : {0u, 1u, 2u, 3u, 4u, 63u}) {
    // Level bases 0..7 put these updates at levels 0, 1, 2 and 13
    // (before the cap).
    for (uint64_t level_base = 0; level_base < 8; ++level_base) {
      std::vector<OneSparseCell> want(levels + 1);
      for (size_t i = 0; i < ids.size(); ++i) {
        const uint32_t z =
            GeometricLevel(SplitMix64(level_base + ids[i]), levels);
        const uint64_t finger =
            SplitMix64(finger_base + ids[i]) % kMersenne61;
        for (uint32_t l = 0; l <= z; ++l) {
          want[l].Update(ids[i], deltas[i], finger);
        }
      }
      for (const CellKernelTable& backend : SupportedCellKernels()) {
        SCOPED_TRACE(std::string(backend.name) + " levels=" +
                     std::to_string(levels) +
                     " level_base=" + std::to_string(level_base));
        std::vector<OneSparseCell> got(levels + 1);
        UpdateBatch batch;
        for (size_t i = 0; i < ids.size(); ++i) batch.Push(ids[i], deltas[i]);
        backend.l0_rep(level_base, finger_base, levels, batch, got.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(OneSparseCell)),
                  0);
      }
    }
  }
  OneSparseCell c;
  Upd(&c, index, delta);
  EXPECT_FALSE(c.Decode(kSeed).has_value());
}

}  // namespace
}  // namespace gsketch
