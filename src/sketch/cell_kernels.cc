#include "src/sketch/cell_kernels.h"

#include <vector>

#include "src/hash/kwise_hash.h"
#include "src/hash/splitmix.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define GSKETCH_CELL_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace gsketch {
namespace {

// Exact x % (2^61 - 1) for any 64-bit x: since 2^61 ≡ 1 (mod M), folding
// the top 3 bits onto the low 61 gives y = (x >> 61) + (x & M) ≤ M + 7,
// so one conditional subtract finishes the reduction (y == M maps to 0,
// exactly as division would).
inline uint64_t FoldMersenne61(uint64_t x) {
  uint64_t y = (x >> 61) + (x & kMersenne61);
  return y >= kMersenne61 ? y - kMersenne61 : y;
}

}  // namespace

void SplitMix64BatchScalar(uint64_t base, const uint64_t* ids, size_t count,
                           uint64_t* out) {
  for (size_t i = 0; i < count; ++i) out[i] = SplitMix64(base + ids[i]);
}

void FingerBatchScalar(uint64_t base, const uint64_t* ids, size_t count,
                       uint64_t* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = FoldMersenne61(SplitMix64(base + ids[i]));
  }
}

#ifdef GSKETCH_CELL_KERNELS_X86
namespace {

// 64-bit lane-wise multiply from 32-bit partial products (AVX2 has no
// vpmullq): lo(a*b) = lo32(a)*lo32(b) + ((hi32(a)*lo32(b) +
// lo32(a)*hi32(b)) << 32).
__attribute__((target("avx2"))) inline __m256i Mul64(__m256i a, __m256i b) {
  __m256i lo = _mm256_mul_epu32(a, b);
  __m256i cross = _mm256_add_epi64(
      _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
      _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) inline __m256i SplitMix64Vec(__m256i x) {
  x = _mm256_add_epi64(x, _mm256_set1_epi64x(0x9e3779b97f4a7c15ULL));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 30));
  x = Mul64(x, _mm256_set1_epi64x(0xbf58476d1ce4e5b9ULL));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 27));
  x = Mul64(x, _mm256_set1_epi64x(0x94d049bb133111ebULL));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

__attribute__((target("avx2"))) void SplitMix64BatchAvx2(uint64_t base,
                                                         const uint64_t* ids,
                                                         size_t count,
                                                         uint64_t* out) {
  const __m256i vbase = _mm256_set1_epi64x(static_cast<int64_t>(base));
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ids + i));
    v = SplitMix64Vec(_mm256_add_epi64(vbase, v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
  }
  for (; i < count; ++i) out[i] = SplitMix64(base + ids[i]);
}

__attribute__((target("avx2"))) void FingerBatchAvx2(uint64_t base,
                                                     const uint64_t* ids,
                                                     size_t count,
                                                     uint64_t* out) {
  const __m256i vbase = _mm256_set1_epi64x(static_cast<int64_t>(base));
  const __m256i m = _mm256_set1_epi64x(
      static_cast<int64_t>(kMersenne61));
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ids + i));
    v = SplitMix64Vec(_mm256_add_epi64(vbase, v));
    // FoldMersenne61, lane-wise. y ≤ M + 7 < 2^62 stays positive as a
    // signed lane, so the signed compare y > M-1 tests y >= M exactly.
    __m256i y = _mm256_add_epi64(_mm256_srli_epi64(v, 61),
                                 _mm256_and_si256(v, m));
    __m256i ge = _mm256_cmpgt_epi64(
        y, _mm256_sub_epi64(m, _mm256_set1_epi64x(1)));
    y = _mm256_sub_epi64(y, _mm256_and_si256(ge, m));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), y);
  }
  for (; i < count; ++i) out[i] = FoldMersenne61(SplitMix64(base + ids[i]));
}

// x >> n in every lane. The all-lanes maskz form compiles to the same
// vpsrlq; the plain _mm512_srli_epi64 trips gcc 12's
// -Wmaybe-uninitialized false positive on its undefined pass-through
// operand.
__attribute__((target("avx512f"))) inline __m512i Srli64(__m512i x,
                                                         unsigned n) {
  return _mm512_maskz_srli_epi64(__mmask8{0xff}, x, n);
}

// AVX-512F/DQ: 8 lanes and a native 64-bit multiply (vpmullq), so the
// round is two multiplies instead of AVX2's six partial products. The
// batch loops run their tail masked (masked-off lanes neither load nor
// store), so there is no scalar remainder loop.
__attribute__((target("avx512f,avx512dq"))) inline __m512i SplitMix64Vec512(
    __m512i x) {
  x = _mm512_add_epi64(
      x, _mm512_set1_epi64(static_cast<int64_t>(0x9e3779b97f4a7c15ULL)));
  x = _mm512_xor_si512(x, Srli64(x, 30));
  x = _mm512_mullo_epi64(
      x, _mm512_set1_epi64(static_cast<int64_t>(0xbf58476d1ce4e5b9ULL)));
  x = _mm512_xor_si512(x, Srli64(x, 27));
  x = _mm512_mullo_epi64(
      x, _mm512_set1_epi64(static_cast<int64_t>(0x94d049bb133111ebULL)));
  return _mm512_xor_si512(x, Srli64(x, 31));
}

// Lanes [i, count) of an 8-lane step: all eight except in the tail.
inline __mmask8 LaneMask(size_t i, size_t count) {
  return count - i >= 8 ? __mmask8{0xff}
                        : static_cast<__mmask8>((1u << (count - i)) - 1);
}

__attribute__((target("avx512f,avx512dq"))) void SplitMix64BatchAvx512(
    uint64_t base, const uint64_t* ids, size_t count, uint64_t* out) {
  const __m512i vbase = _mm512_set1_epi64(static_cast<int64_t>(base));
  for (size_t i = 0; i < count; i += 8) {
    const __mmask8 lanes = LaneMask(i, count);
    __m512i v = _mm512_maskz_loadu_epi64(lanes, ids + i);
    v = SplitMix64Vec512(_mm512_add_epi64(vbase, v));
    _mm512_mask_storeu_epi64(out + i, lanes, v);
  }
}

__attribute__((target("avx512f,avx512dq"))) void FingerBatchAvx512(
    uint64_t base, const uint64_t* ids, size_t count, uint64_t* out) {
  const __m512i vbase = _mm512_set1_epi64(static_cast<int64_t>(base));
  const __m512i m = _mm512_set1_epi64(static_cast<int64_t>(kMersenne61));
  for (size_t i = 0; i < count; i += 8) {
    const __mmask8 lanes = LaneMask(i, count);
    __m512i v = _mm512_maskz_loadu_epi64(lanes, ids + i);
    v = SplitMix64Vec512(_mm512_add_epi64(vbase, v));
    // FoldMersenne61, lane-wise: an unsigned compare and a masked
    // subtract.
    __m512i y = _mm512_add_epi64(Srli64(v, 61), _mm512_and_si512(v, m));
    y = _mm512_mask_sub_epi64(y, _mm512_cmpge_epu64_mask(y, m), y, m);
    _mm512_mask_storeu_epi64(out + i, lanes, y);
  }
}

}  // namespace
#endif  // GSKETCH_CELL_KERNELS_X86

std::vector<CellKernelTable> SupportedCellKernels() {
  std::vector<CellKernelTable> tables;
#ifdef GSKETCH_CELL_KERNELS_X86
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq")) {
    tables.push_back({"avx512", &SplitMix64BatchAvx512, &FingerBatchAvx512});
  }
  if (__builtin_cpu_supports("avx2")) {
    tables.push_back({"avx2", &SplitMix64BatchAvx2, &FingerBatchAvx2});
  }
#endif
  tables.push_back({"scalar", &SplitMix64BatchScalar, &FingerBatchScalar});
  return tables;
}

namespace {

// Thread-safe one-time dispatch (C++11 static-local initialization) to
// the widest backend the CPU supports.
const CellKernelTable& Kernels() {
  static const CellKernelTable table = SupportedCellKernels().front();
  return table;
}

}  // namespace

void SplitMix64Batch(uint64_t base, const uint64_t* ids, size_t count,
                     uint64_t* out) {
  Kernels().splitmix(base, ids, count, out);
}

void FingerBatch(uint64_t base, const uint64_t* ids, size_t count,
                 uint64_t* out) {
  Kernels().finger(base, ids, count, out);
}

const char* CellKernelBackend() { return Kernels().name; }

}  // namespace gsketch
