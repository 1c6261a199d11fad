// CPU-dispatch parity for the batched cell kernels (src/sketch/cell_kernels).
//
// Agreement, for every batch length across the vector-width boundaries:
// EVERY backend this CPU runs (avx512, avx2, scalar — not only the
// dispatched one, so the avx2 path stays tested on AVX-512 hosts) and the
// dispatched entry points == the scalar reference == the direct
// one-at-a-time formulas the rest of the library uses (SplitMix64 /
// OneSparseCell::FingerOf, and for the fused ℓ₀ repetition kernel the
// per-update, per-level cell updates with the parity tier's coin-at-a-time
// level). This doubles as the CI vectorization check: BackendMatchesCpu
// fails if a host that reports AVX-512 or AVX2 silently fell back to a
// narrower backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "src/hash/kwise_hash.h"
#include "src/hash/splitmix.h"
#include "src/sketch/cell_kernels.h"
#include "src/sketch/l0_sampler.h"
#include "src/sketch/one_sparse.h"
#include "tests/reference_layout.h"

namespace gsketch {
namespace {

// Deterministic "random" ids without <random>: SplitMix64 walk, with some
// extreme values spliced in so base + id wraps around 2^64 and the
// fingerprint fold sees inputs above the Mersenne prime.
std::vector<uint64_t> TestIds(size_t count, uint64_t seed) {
  std::vector<uint64_t> ids(count);
  uint64_t x = seed;
  for (size_t i = 0; i < count; ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    ids[i] = SplitMix64(x);
  }
  if (count > 0) ids[0] = 0;
  if (count > 1) ids[1] = ~0ULL;
  if (count > 2) ids[2] = kMersenne61;
  if (count > 3) ids[3] = kMersenne61 + 1;
  return ids;
}

// Lengths straddling the 4-lane AVX2 and 8-lane AVX-512 widths, the
// 64-update words of the AVX-512 ℓ₀ kernel's level-4 bitmask and the
// UpdateBatch::kMaxIds = 512 chunk of the ℓ₀ cores, plus 0 and 1.
const size_t kLengths[] = {0,  1,  2,   3,   4,   5,   7,   8,   9,   15, 16,
                           17, 31, 255, 256, 257, 511, 512, 513};

// The backends under test: every compiled one this CPU runs, plus the
// dispatched entry points themselves.
std::vector<CellKernelTable> BackendsUnderTest() {
  std::vector<CellKernelTable> backends = SupportedCellKernels();
  backends.push_back(
      {"dispatched", &SplitMix64Batch, &FingerBatch, Kernels().l0_rep});
  return backends;
}

TEST(CellKernels, EveryBackendMatchesScalarAndDirectFormula) {
  constexpr uint64_t kCanary = 0xabababababababABULL;
  for (const CellKernelTable& backend : BackendsUnderTest()) {
    for (uint64_t base : {uint64_t{0}, uint64_t{0x243f6a8885a308d3ULL},
                          Mix64(/*seed=*/9, 0xf17eu), ~uint64_t{0} - 2}) {
      for (size_t count : kLengths) {
        SCOPED_TRACE(std::string("backend=") + backend.name + " base=" +
                     std::to_string(base) + " count=" +
                     std::to_string(count));
        std::vector<uint64_t> ids = TestIds(count, base ^ count);
        std::vector<uint64_t> got(count + 1, kCanary);
        std::vector<uint64_t> scalar(count + 1, kCanary);

        backend.splitmix(base, ids.data(), count, got.data());
        SplitMix64BatchScalar(base, ids.data(), count, scalar.data());
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(got[i], scalar[i]) << "i=" << i;
          ASSERT_EQ(got[i], SplitMix64(base + ids[i])) << "i=" << i;
        }
        // No backend may write past count.
        EXPECT_EQ(got[count], kCanary);
        EXPECT_EQ(scalar[count], kCanary);

        backend.finger(base, ids.data(), count, got.data());
        FingerBatchScalar(base, ids.data(), count, scalar.data());
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(got[i], scalar[i]) << "i=" << i;
          ASSERT_EQ(got[i], SplitMix64(base + ids[i]) % kMersenne61)
              << "i=" << i;
          ASSERT_LT(got[i], kMersenne61);
        }
        EXPECT_EQ(got[count], kCanary);
        EXPECT_EQ(scalar[count], kCanary);
      }
    }
  }
}

// FingerBatch with the 0xf17e-chained base reproduces the library's
// canonical per-index fingerprint.
TEST(CellKernels, FingerBatchMatchesOneSparseFingerOf) {
  constexpr uint64_t kSeed = 1234567;
  const uint64_t base = Mix64(kSeed, 0xf17eu);
  std::vector<uint64_t> ids = TestIds(257, 42);
  std::vector<uint64_t> out(ids.size());
  FingerBatch(base, ids.data(), ids.size(), out.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(out[i], OneSparseCell::FingerOf(kSeed, ids[i])) << "i=" << i;
  }
}

// Deltas across every term path of the vector ℓ₀ kernel: zero, the ±1 of
// plain streams, the small coalesced counts of hot spots, both sides of
// the 2^32 bound of the lane-wise term, and deltas far past it.
constexpr int64_t kP32 = int64_t{1} << 32;
const int64_t kL0Deltas[] = {0,        1,        -1,       2,
                             -2,       7,        -7,       8,
                             -8,       kP32 / 2, -kP32 / 2, kP32 - 1,
                             1 - kP32, kP32,     -kP32,    kP32 + 1,
                             -kP32 - 1, kP32 << 8, -(kP32 << 8)};

// The all-unit batches of plain streams (the kernels' multiply-free
// term), with and without the zero deltas of coalesced cancellations.
const int64_t kUnitDeltas[] = {1, -1};
const int64_t kUnitOrZeroDeltas[] = {1, -1, 0, 1, -1};

// Updates with ids below 2^20 (below 2^12 for the ±2^40 deltas), so
// Σ|id·delta| stays far under the documented 2^63 for 513 updates.
struct L0Updates {
  std::vector<uint64_t> ids;
  std::vector<int64_t> deltas;
};

template <size_t kN = std::size(kL0Deltas)>
L0Updates TestL0Updates(size_t count, uint64_t domain, uint64_t seed,
                        const int64_t (&delta_set)[kN] = kL0Deltas) {
  L0Updates u;
  uint64_t x = seed;
  for (size_t i = 0; i < count; ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    const uint64_t h = SplitMix64(x);
    const int64_t d = delta_set[(h >> 32) % kN];
    const uint64_t id_bits = d > kP32 + 1 || d < -kP32 - 1 ? 0xfffu : 0xfffffu;
    u.ids.push_back((h & id_bits) % domain);
    u.deltas.push_back(d);
  }
  return u;
}

// The first `count` updates of ids/deltas as an l0_rep batch.
UpdateBatch BatchOf(const std::vector<uint64_t>& ids,
                    const std::vector<int64_t>& deltas, size_t count) {
  UpdateBatch batch;
  for (size_t i = 0; i < count; ++i) batch.Push(ids[i], deltas[i]);
  return batch;
}

// The contract of CellKernelTable::l0_rep, one update and one level at a
// time, with the parity tier's coin-at-a-time level.
void ReferenceL0Rep(uint64_t level_base, uint64_t finger_base,
                    uint32_t levels, const uint64_t* ids,
                    const int64_t* deltas, size_t count,
                    OneSparseCell* rep_cells) {
  for (size_t i = 0; i < count; ++i) {
    const uint32_t z =
        reference::LevelOf(SplitMix64(level_base + ids[i]), levels);
    const uint64_t finger = SplitMix64(finger_base + ids[i]) % kMersenne61;
    for (uint32_t l = 0; l <= z; ++l) {
      rep_cells[l].Update(ids[i], deltas[i], finger);
    }
  }
}

// A canary cell of 0xab bytes: its print is no residue, so even adding a
// zero cell to it changes its bytes.
OneSparseCell CanaryCell() {
  OneSparseCell canary;
  std::memset(static_cast<void*>(&canary), 0xab, sizeof(canary));
  return canary;
}

bool IsCanary(const OneSparseCell& cell) {
  const OneSparseCell canary = CanaryCell();
  return std::memcmp(&cell, &canary, sizeof(cell)) == 0;
}

// `levels + 1` cells with nonzero prior contents, then one canary cell.
std::vector<OneSparseCell> PriorCells(uint32_t levels) {
  std::vector<OneSparseCell> cells(levels + 1);
  for (size_t l = 0; l < cells.size(); ++l) {
    const uint64_t h = SplitMix64(0xce11 + l);
    cells[l].AddSums(static_cast<int64_t>(h >> 24) - (int64_t{1} << 39),
                     static_cast<int64_t>(h >> 4) - (int64_t{1} << 59),
                     h % kMersenne61);
  }
  cells.push_back(CanaryCell());
  return cells;
}

bool SameCells(const std::vector<OneSparseCell>& a,
               const std::vector<OneSparseCell>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(OneSparseCell)) ==
             0;
}

// Level caps on both sides of the AVX-512 kernel's boundary between the
// four register levels (0-3) and the scalar scatter (4 and up).
const uint32_t kL0Levels[] = {0, 1, 2, 3, 4, 5, 19, 63};

TEST(CellKernels, L0RepEveryBackendMatchesScalarAndPerUpdateReference) {
  const CellKernelTable scalar = SupportedCellKernels().back();
  ASSERT_STREQ(scalar.name, "scalar");
  const uint64_t level_base = Mix64(DeriveSeed(31, 2), 0x5e7eu);
  const uint64_t finger_base = Mix64(DeriveSeed(31, 2), 0xf17eu);
  for (const CellKernelTable& backend : BackendsUnderTest()) {
    for (uint32_t levels : kL0Levels) {
      for (size_t count : kLengths) {
        if (count > UpdateBatch::kMaxIds) continue;
        SCOPED_TRACE(std::string("backend=") + backend.name +
                     " levels=" + std::to_string(levels) +
                     " count=" + std::to_string(count));
        const L0Updates u = TestL0Updates(count, ~uint64_t{0}, levels ^ count);
        std::vector<OneSparseCell> got = PriorCells(levels);
        std::vector<OneSparseCell> want = got;
        std::vector<OneSparseCell> from_scalar = got;
        backend.l0_rep(level_base, finger_base, levels,
                       BatchOf(u.ids, u.deltas, count), got.data());
        scalar.l0_rep(level_base, finger_base, levels,
                      BatchOf(u.ids, u.deltas, count), from_scalar.data());
        ReferenceL0Rep(level_base, finger_base, levels, u.ids.data(),
                       u.deltas.data(), count, want.data());
        EXPECT_TRUE(SameCells(got, want));
        EXPECT_TRUE(SameCells(got, from_scalar));
        EXPECT_TRUE(IsCanary(got.back()));
      }
    }
  }
}

// All-unit batches, with and without zero deltas, through every backend:
// flagged unit (the AVX-512 multiply-free term) and, the same updates,
// unflagged (the general term). Both equal the per-update reference.
TEST(CellKernels, L0RepUnitBatchesMatchPerUpdateReference) {
  const uint64_t level_base = Mix64(DeriveSeed(47, 5), 0x5e7eu);
  const uint64_t finger_base = Mix64(DeriveSeed(47, 5), 0xf17eu);
  for (const CellKernelTable& backend : BackendsUnderTest()) {
    for (uint32_t levels : kL0Levels) {
      for (size_t count : kLengths) {
        if (count > UpdateBatch::kMaxIds) continue;
        for (const bool with_zeros : {false, true}) {
          SCOPED_TRACE(std::string("backend=") + backend.name +
                       " levels=" + std::to_string(levels) +
                       " count=" + std::to_string(count) +
                       " zeros=" + std::to_string(with_zeros));
          const uint64_t seed = levels * 1000 + count;
          const L0Updates u =
              with_zeros
                  ? TestL0Updates(count, ~uint64_t{0}, seed, kUnitOrZeroDeltas)
                  : TestL0Updates(count, ~uint64_t{0}, seed, kUnitDeltas);
          UpdateBatch batch = BatchOf(u.ids, u.deltas, count);
          ASSERT_TRUE(batch.unit);
          std::vector<OneSparseCell> want = PriorCells(levels);
          ReferenceL0Rep(level_base, finger_base, levels, u.ids.data(),
                         u.deltas.data(), count, want.data());
          std::vector<OneSparseCell> got = PriorCells(levels);
          backend.l0_rep(level_base, finger_base, levels, batch, got.data());
          EXPECT_TRUE(SameCells(got, want));
          batch.unit = false;
          got = PriorCells(levels);
          backend.l0_rep(level_base, finger_base, levels, batch, got.data());
          EXPECT_TRUE(SameCells(got, want));
          EXPECT_TRUE(IsCanary(got.back()));
        }
      }
    }
  }
}

// UpdateBatch::Push derives the per-batch fields the kernels read: the
// index weight wraps mod 2^64 and the unit flag clears on any |delta| > 1.
TEST(CellKernels, UpdateBatchDerivesWeightsAndUnitFlag) {
  UpdateBatch batch;
  batch.Clear();
  EXPECT_TRUE(batch.unit);
  batch.Push(7, -1);
  batch.Push(9, 0);
  batch.Push(~uint64_t{0}, 1);
  EXPECT_TRUE(batch.unit);
  EXPECT_EQ(batch.count, 3u);
  EXPECT_EQ(batch.weights[0], uint64_t{0} - 7);
  EXPECT_EQ(batch.weights[1], 0u);
  EXPECT_EQ(batch.weights[2], ~uint64_t{0});
  batch.Push(3, 2);
  EXPECT_FALSE(batch.unit);
  EXPECT_EQ(batch.weights[3], 6u);
  batch.Clear();
  batch.Push(3, std::numeric_limits<int64_t>::min());
  EXPECT_FALSE(batch.unit);
  EXPECT_EQ(batch.count, 1u);
}

// x with SplitMix64(x) == y: each step of the round undone in reverse.
uint64_t SplitMix64Inverse(uint64_t y) {
  auto inverse_odd = [](uint64_t c) {
    uint64_t inv = c;  // Newton: each step doubles the correct low bits.
    for (int i = 0; i < 5; ++i) inv *= 2 - c * inv;
    return inv;
  };
  y ^= (y >> 31) ^ (y >> 62);
  y *= inverse_odd(0x94d049bb133111ebULL);
  y ^= (y >> 27) ^ (y >> 54);
  y *= inverse_odd(0xbf58476d1ce4e5b9ULL);
  y ^= (y >> 30) ^ (y >> 60);
  return y - 0x9e3779b97f4a7c15ULL;
}

// Edge cases of the term, for every backend and level cap: INT64_MIN has
// no lane-wise |d| and takes the scalar product (its id is 0 and every
// other delta positive, so no sum overflows), and an id whose
// fingerprint is exactly 0 keeps a 0 term under negative deltas.
TEST(CellKernels, L0RepTermEdgeCases) {
  const uint64_t zero_finger_id = 5;
  const uint64_t finger_base = SplitMix64Inverse(0) - zero_finger_id;
  ASSERT_EQ(SplitMix64(finger_base + zero_finger_id), 0u);
  const std::vector<uint64_t> min_ids = {0, 5, 9, 0, 17, 3, 2, 11, 4};
  std::vector<int64_t> min_deltas(min_ids.size(), 3);
  min_deltas[0] = std::numeric_limits<int64_t>::min();
  const std::vector<uint64_t> zero_ids = {5, 6, 5, 7, 5, 8, 5, 9, 5};
  const std::vector<int64_t> zero_deltas = {-1, 2, -3,      4, -kP32,
                                            6,  7, -kP32 - 1, 1};
  for (const CellKernelTable& backend : BackendsUnderTest()) {
    for (uint32_t levels : kL0Levels) {
      SCOPED_TRACE(std::string("backend=") + backend.name +
                   " levels=" + std::to_string(levels));
      for (const auto& [ids, deltas, base] :
           {std::tuple(min_ids, min_deltas, uint64_t{2}),
            std::tuple(zero_ids, zero_deltas, finger_base)}) {
        std::vector<OneSparseCell> got(levels + 1);
        got.push_back(CanaryCell());
        std::vector<OneSparseCell> want = got;
        backend.l0_rep(1, base, levels, BatchOf(ids, deltas, ids.size()),
                       got.data());
        ReferenceL0Rep(1, base, levels, ids.data(), deltas.data(),
                       ids.size(), want.data());
        EXPECT_TRUE(SameCells(got, want));
        EXPECT_TRUE(IsCanary(got.back()));
      }
    }
  }
}

// The dispatched L0CellsUpdateBatch, across its 512-id chunk boundary,
// == the historical per-update sampler of the parity tier, byte for byte
// on the wire, and it writes no cell past the sampler's slice.
TEST(CellKernels, L0CellsUpdateBatchMatchesPerUpdateSampler) {
  // Domains whose derived level caps are 0, 1, 2, 19 and 63.
  const uint64_t kDomains[] = {1, 2, 4, uint64_t{1} << 19,
                               (uint64_t{1} << 63) + 1};
  for (uint64_t domain : kDomains) {
    std::vector<size_t> lengths(std::begin(kLengths), std::end(kLengths));
    lengths.insert(lengths.end(), {1023, 1024, 1025});
    for (size_t count : lengths) {
      SCOPED_TRACE("domain=" + std::to_string(domain) +
                   " count=" + std::to_string(count));
      const L0Params p = L0Params::Make(domain, /*repetitions=*/3, 77);
      const L0Updates u = TestL0Updates(count, domain, domain + count);
      std::vector<OneSparseCell> cells(p.CellsPerSampler());
      cells.push_back(CanaryCell());
      L0CellsUpdateBatch(p, cells.data(), u.ids.data(), u.deltas.data(),
                         count);
      reference::RefL0Sampler ref(domain, p.repetitions, p.seed);
      for (size_t i = 0; i < count; ++i) ref.Update(u.ids[i], u.deltas[i]);
      std::string got;
      std::string want;
      L0CellsAppendTo(p, cells.data(), &got);
      ref.AppendTo(&want);
      EXPECT_EQ(got, want);
      EXPECT_TRUE(IsCanary(cells.back()));
    }
  }
}

// The dispatcher must pick the widest backend the CPU supports — a host
// that reports AVX-512 or AVX2 but runs a narrower backend means a vector
// path got dropped from the build (this is the CI regression tripwire for
// vectorization).
TEST(CellKernels, BackendMatchesCpu) {
  const std::string backend = CellKernelBackend();
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq")) {
    EXPECT_EQ(backend, "avx512");
  } else if (__builtin_cpu_supports("avx2")) {
    EXPECT_EQ(backend, "avx2");
  } else {
    EXPECT_EQ(backend, "scalar");
  }
#else
  EXPECT_EQ(backend, "scalar");
#endif
  EXPECT_EQ(backend, SupportedCellKernels().front().name);
}

}  // namespace
}  // namespace gsketch
