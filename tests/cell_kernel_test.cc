// CPU-dispatch parity for the batched hash kernels (src/sketch/cell_kernels).
//
// Agreement, for every batch length across the vector-width boundaries:
// EVERY backend this CPU runs (avx512, avx2, scalar — not only the
// dispatched one, so the avx2 path stays tested on AVX-512 hosts) and the
// dispatched entry points == the scalar reference == the direct
// one-at-a-time formulas the rest of the library uses (SplitMix64 /
// OneSparseCell::FingerOf). This doubles as the CI vectorization check:
// BackendMatchesCpu fails if a host that reports AVX-512 or AVX2 silently
// fell back to a narrower backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/hash/kwise_hash.h"
#include "src/hash/splitmix.h"
#include "src/sketch/cell_kernels.h"
#include "src/sketch/one_sparse.h"

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

// Lengths straddling the 4-lane AVX2 and 8-lane AVX-512 widths and the
// kChunk=256 tile used by the cell cores, plus 0 and 1.
const size_t kLengths[] = {0,  1,  2,  3,  4,   5,   7,  8,
                           9,  15, 16, 17, 31, 255, 256, 257};

// The backends under test: every compiled one this CPU runs, plus the
// dispatched entry points themselves.
std::vector<CellKernelTable> BackendsUnderTest() {
  std::vector<CellKernelTable> backends = SupportedCellKernels();
  backends.push_back({"dispatched", &SplitMix64Batch, &FingerBatch});
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
