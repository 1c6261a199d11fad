#include "src/sketch/cell_kernels.h"

#include <cassert>
#include <vector>

#include "src/hash/kwise_hash.h"
#include "src/hash/splitmix.h"
#include "src/sketch/one_sparse.h"

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

namespace {

constexpr size_t kL0RepMaxIds = CellKernelTable::kL0RepMaxIds;

// Levels are capped at 63, so a repetition has at most 64 cells.
constexpr uint32_t kMaxAccLevels = 64;

// The scalar and avx2 `l0_rep`: the backend's two batch hash kernels,
// then levels and terms, then a suffix-sum scatter of every update.
template <CellKernelTable::BatchHashFn kSplitMix,
          CellKernelTable::BatchHashFn kFinger>
void L0RepHashed(uint64_t level_base, uint64_t finger_base, uint32_t levels,
                 const uint64_t* ids, const int64_t* deltas, size_t count,
                 OneSparseCell* rep_cells) {
  const uint32_t per_rep = levels + 1;
  assert(count <= kL0RepMaxIds && per_rep <= kMaxAccLevels);
  uint64_t words[kL0RepMaxIds];
  uint64_t fingers[kL0RepMaxIds];
  kSplitMix(level_base, ids, count, words);
  kFinger(finger_base, ids, count, fingers);
  // Suffix-sum scatter: an update surviving to level z contributes the
  // SAME (delta, id*delta, term) to every level 0..z, so add it once at
  // level z and fold acc[l] += acc[l+1] top-down — one accumulator touch
  // per update instead of z+1 cell read-modify-writes (avg 2 per update
  // at geometric z). Identical arithmetic, identical bytes; the
  // (value-initialized) accumulators live on the stack in L1.
  OneSparseCell acc[kMaxAccLevels];
  // Finalize levels and terms in place first (branch-free, high ILP), so
  // the accumulate loop below is nothing but the dependent
  // read-modify-writes. ±1 deltas dominate real streams, and their
  // Mersenne products collapse: ResidueOf(1)=1 so term==finger;
  // ResidueOf(-1)=M-1 so term==(-finger) mod M. Only wider deltas pay
  // MulMod61.
  for (size_t i = 0; i < count; ++i) {
    words[i] = GeometricLevel(words[i], levels);
    const int64_t d = deltas[i];
    if (d != 1) {
      fingers[i] = d == -1 ? SubMod61(0, fingers[i])
                           : MulMod61(OneSparseCell::ResidueOf(d), fingers[i]);
    }
  }
  for (size_t i = 0; i < count; ++i) {
    acc[words[i]].ApplyTerm(ids[i], deltas[i], fingers[i]);
  }
  for (uint32_t l = per_rep - 1; l > 0; --l) acc[l - 1].Merge(acc[l]);
  for (uint32_t l = 0; l < per_rep; ++l) rep_cells[l].Merge(acc[l]);
}

}  // namespace

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

// FoldMersenne61, lane-wise: an unsigned compare and a masked subtract.
__attribute__((target("avx512f"))) inline __m512i FoldMersenne61Vec512(
    __m512i v) {
  const __m512i m = _mm512_set1_epi64(static_cast<int64_t>(kMersenne61));
  const __m512i y = _mm512_add_epi64(Srli64(v, 61), _mm512_and_si512(v, m));
  return _mm512_mask_sub_epi64(y, _mm512_cmpge_epu64_mask(y, m), y, m);
}

__attribute__((target("avx512f,avx512dq"))) void FingerBatchAvx512(
    uint64_t base, const uint64_t* ids, size_t count, uint64_t* out) {
  const __m512i vbase = _mm512_set1_epi64(static_cast<int64_t>(base));
  for (size_t i = 0; i < count; i += 8) {
    const __mmask8 lanes = LaneMask(i, count);
    __m512i v = _mm512_maskz_loadu_epi64(lanes, ids + i);
    v = SplitMix64Vec512(_mm512_add_epi64(vbase, v));
    _mm512_mask_storeu_epi64(out + i, lanes, FoldMersenne61Vec512(v));
  }
}

// All-lanes maskz forms of vpmuludq, vpsllq and vpabsq, for the same
// gcc 12 false positive as Srli64.
__attribute__((target("avx512f"))) inline __m512i MulEpu32(__m512i a,
                                                           __m512i b) {
  return _mm512_maskz_mul_epu32(__mmask8{0xff}, a, b);
}

__attribute__((target("avx512f"))) inline __m512i Slli64(__m512i x,
                                                         unsigned n) {
  return _mm512_maskz_slli_epi64(__mmask8{0xff}, x, n);
}

__attribute__((target("avx512f"))) inline __m512i Abs64(__m512i x) {
  return _mm512_maskz_abs_epi64(__mmask8{0xff}, x);
}

// Lane-wise (a + b) mod M for residues a, b < M.
__attribute__((target("avx512f"))) inline __m512i AddMod61Vec(__m512i a,
                                                              __m512i b) {
  const __m512i m = _mm512_set1_epi64(static_cast<int64_t>(kMersenne61));
  const __m512i s = _mm512_add_epi64(a, b);
  return _mm512_mask_sub_epi64(s, _mm512_cmpge_epu64_mask(s, m), s, m);
}

// Lane-wise ResidueOf(d)·f mod M for residues f < M, exact for
// |d| < 2^32. With f = f_hi·2^32 + f_lo (f_hi < 2^29), |d|·f = lo +
// hi·2^32 for the two vpmuludq products lo = |d|·f_lo < 2^64 and hi =
// |d|·f_hi < 2^61. Since 2^61 ≡ 1, lo ≡ (lo & M) + (lo >> 61) and hi·2^32
// ≡ ((hi mod 2^29) << 32) + (hi >> 29); their sum is below 2^62 + 8, so
// one more fold and one conditional subtract reduce it. Negative deltas
// negate the product, leaving 0 as 0. Other lanes are garbage.
__attribute__((target("avx512f,avx512dq"))) inline __m512i TermVec(
    __m512i d, __m512i f) {
  const __m512i m = _mm512_set1_epi64(static_cast<int64_t>(kMersenne61));
  const __m512i low29 = _mm512_set1_epi64((int64_t{1} << 29) - 1);
  const __m512i a = Abs64(d);
  const __m512i lo = MulEpu32(a, f);
  const __m512i hi = MulEpu32(a, Srli64(f, 32));
  __m512i s = _mm512_add_epi64(
      _mm512_add_epi64(_mm512_and_si512(lo, m), Srli64(lo, 61)),
      _mm512_add_epi64(Slli64(_mm512_and_si512(hi, low29), 32),
                       Srli64(hi, 29)));
  s = _mm512_add_epi64(_mm512_and_si512(s, m), Srli64(s, 61));
  s = _mm512_mask_sub_epi64(s, _mm512_cmpge_epu64_mask(s, m), s, m);
  const __mmask8 negate =
      _mm512_mask_test_epi64_mask(_mm512_movepi64_mask(d), s, s);
  return _mm512_mask_sub_epi64(s, negate, m, s);
}

// The 8 lanes of x, summed (wrapping) or OR-ed. Through an aligned store:
// the _mm512_reduce_* intrinsics trip the same gcc 12 false positive on
// their extract's pass-through operand.
__attribute__((target("avx512f"))) inline uint64_t LaneSum(__m512i x) {
  alignas(64) uint64_t lanes[8];
  _mm512_store_si512(lanes, x);
  uint64_t sum = 0;
  for (uint64_t v : lanes) sum += v;
  return sum;
}

__attribute__((target("avx512f"))) inline uint64_t LaneOr(__m512i x) {
  alignas(64) uint64_t lanes[8];
  _mm512_store_si512(lanes, x);
  uint64_t bits = 0;
  for (uint64_t v : lanes) bits |= v;
  return bits;
}

// Lane sums of one level: count, index weight and fingerprint print.
struct LevelSums512 {
  __m512i count;
  __m512i index_weight;
  __m512i print;
};

// Adds the 8 lanes of `sums` to `cell`: the count and index-weight lanes
// wrap exactly as the scalar sums, and 8 residues sum below 2^64.
__attribute__((target("avx512f,avx512dq"))) inline void AddLaneSums(
    const LevelSums512& sums, OneSparseCell* cell) {
  cell->AddSums(static_cast<int64_t>(LaneSum(sums.count)),
                static_cast<int64_t>(LaneSum(sums.index_weight)),
                FoldMersenne61(LaneSum(sums.print)));
}

// The fused AVX-512 `l0_rep`. Every update is at level 0 and, when its
// level word has bit 0 clear, at level 1, so those two cells are sums
// kept in registers. Only the ~1/4 of updates whose word has its low two
// bits clear (z >= 2) are compacted into a survivor list and go through
// the scalar suffix-sum scatter over levels 2..top. OR-ing 1 << levels
// into the word caps z at `levels`: with levels == 0 no lane reaches
// level 1, with levels == 1 none reaches level 2.
__attribute__((target("avx512f,avx512dq"))) void L0RepAvx512(
    uint64_t level_base, uint64_t finger_base, uint32_t levels,
    const uint64_t* ids, const int64_t* deltas, size_t count,
    OneSparseCell* rep_cells) {
  assert(count <= kL0RepMaxIds && levels < kMaxAccLevels);
  const __m512i vlevel_base =
      _mm512_set1_epi64(static_cast<int64_t>(level_base));
  const __m512i vfinger_base =
      _mm512_set1_epi64(static_cast<int64_t>(finger_base));
  const __m512i cap =
      _mm512_set1_epi64(static_cast<int64_t>(uint64_t{1} << levels));
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i three = _mm512_set1_epi64(3);
  const __m512i narrow = _mm512_set1_epi64(0xffffffffLL);
  LevelSums512 level0{_mm512_setzero_si512(), _mm512_setzero_si512(),
                      _mm512_setzero_si512()};
  LevelSums512 level1 = level0;
  // OR of every survivor's lowest set word bit: 1 << (deepest level).
  __m512i deepest = _mm512_setzero_si512();
  // Survivors, compacted with full 8-lane stores: the last store may run
  // 7 lanes past the last survivor.
  uint64_t s_words[kL0RepMaxIds + 8];
  uint64_t s_deltas[kL0RepMaxIds + 8];
  uint64_t s_weights[kL0RepMaxIds + 8];
  uint64_t s_terms[kL0RepMaxIds + 8];
  size_t survivors = 0;
  for (size_t i = 0; i < count; i += 8) {
    const __mmask8 lanes = LaneMask(i, count);
    // Masked-off lanes load id 0 and delta 0, so they add 0 everywhere.
    const __m512i id = _mm512_maskz_loadu_epi64(lanes, ids + i);
    const __m512i d = _mm512_maskz_loadu_epi64(lanes, deltas + i);
    const __m512i word = _mm512_or_si512(
        SplitMix64Vec512(_mm512_add_epi64(vlevel_base, id)), cap);
    const __m512i f = FoldMersenne61Vec512(
        SplitMix64Vec512(_mm512_add_epi64(vfinger_base, id)));
    __m512i t = TermVec(d, f);
    const __mmask8 wide = _mm512_cmpgt_epu64_mask(Abs64(d), narrow);
    if (__builtin_expect(wide != 0, 0)) {
      // |d| >= 2^32 (INT64_MIN included): scalar MulMod61.
      alignas(64) uint64_t fl[8];
      alignas(64) uint64_t tl[8];
      _mm512_store_si512(fl, f);
      _mm512_store_si512(tl, t);
      for (unsigned bits = wide; bits != 0; bits &= bits - 1) {
        const unsigned j = static_cast<unsigned>(__builtin_ctz(bits));
        tl[j] = MulMod61(OneSparseCell::ResidueOf(deltas[i + j]), fl[j]);
      }
      t = _mm512_load_si512(tl);
    }
    const __m512i weight = _mm512_mullo_epi64(id, d);
    level0.count = _mm512_add_epi64(level0.count, d);
    level0.index_weight = _mm512_add_epi64(level0.index_weight, weight);
    level0.print = AddMod61Vec(level0.print, t);
    const __mmask8 at1 = _mm512_mask_testn_epi64_mask(lanes, word, one);
    level1.count = _mm512_mask_add_epi64(level1.count, at1, level1.count, d);
    level1.index_weight = _mm512_mask_add_epi64(
        level1.index_weight, at1, level1.index_weight, weight);
    level1.print = _mm512_mask_mov_epi64(level1.print, at1,
                                         AddMod61Vec(level1.print, t));
    const __mmask8 at2 = _mm512_mask_testn_epi64_mask(lanes, word, three);
    deepest = _mm512_mask_or_epi64(
        deepest, at2, deepest,
        _mm512_and_si512(word, _mm512_sub_epi64(_mm512_setzero_si512(), word)));
    _mm512_storeu_si512(s_words + survivors,
                        _mm512_maskz_compress_epi64(at2, word));
    _mm512_storeu_si512(s_deltas + survivors,
                        _mm512_maskz_compress_epi64(at2, d));
    _mm512_storeu_si512(s_weights + survivors,
                        _mm512_maskz_compress_epi64(at2, weight));
    _mm512_storeu_si512(s_terms + survivors,
                        _mm512_maskz_compress_epi64(at2, t));
    survivors += static_cast<size_t>(__builtin_popcount(at2));
  }
  AddLaneSums(level0, &rep_cells[0]);
  if (levels == 0) return;
  AddLaneSums(level1, &rep_cells[1]);
  if (survivors == 0) return;
  // Suffix-sum scatter of the survivors over levels 2..top, in plain
  // arrays so only those levels are zeroed. The sums wrap mod 2^64, like
  // the lanes and the cells.
  const uint32_t top =
      63u - static_cast<uint32_t>(__builtin_clzll(LaneOr(deepest)));
  uint64_t acc_count[kMaxAccLevels];
  uint64_t acc_weight[kMaxAccLevels];
  uint64_t acc_print[kMaxAccLevels];
  for (uint32_t l = 2; l <= top; ++l) {
    acc_count[l] = 0;
    acc_weight[l] = 0;
    acc_print[l] = 0;
  }
  for (size_t j = 0; j < survivors; ++j) {
    const uint32_t z = static_cast<uint32_t>(__builtin_ctzll(s_words[j]));
    acc_count[z] += s_deltas[j];
    acc_weight[z] += s_weights[j];
    acc_print[z] = AddMod61(acc_print[z], s_terms[j]);
  }
  for (uint32_t l = top; l > 2; --l) {
    acc_count[l - 1] += acc_count[l];
    acc_weight[l - 1] += acc_weight[l];
    acc_print[l - 1] = AddMod61(acc_print[l - 1], acc_print[l]);
  }
  for (uint32_t l = 2; l <= top; ++l) {
    rep_cells[l].AddSums(static_cast<int64_t>(acc_count[l]),
                         static_cast<int64_t>(acc_weight[l]), acc_print[l]);
  }
}

}  // namespace
#endif  // GSKETCH_CELL_KERNELS_X86

std::vector<CellKernelTable> SupportedCellKernels() {
  std::vector<CellKernelTable> tables;
#ifdef GSKETCH_CELL_KERNELS_X86
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq")) {
    tables.push_back({"avx512", &SplitMix64BatchAvx512, &FingerBatchAvx512,
                      &L0RepAvx512});
  }
  if (__builtin_cpu_supports("avx2")) {
    tables.push_back(
        {"avx2", &SplitMix64BatchAvx2, &FingerBatchAvx2,
         &L0RepHashed<&SplitMix64BatchAvx2, &FingerBatchAvx2>});
  }
#endif
  tables.push_back(
      {"scalar", &SplitMix64BatchScalar, &FingerBatchScalar,
       &L0RepHashed<&SplitMix64BatchScalar, &FingerBatchScalar>});
  return tables;
}

// Thread-safe one-time dispatch (C++11 static-local initialization) to
// the widest backend the CPU supports.
const CellKernelTable& Kernels() {
  static const CellKernelTable table = SupportedCellKernels().front();
  return table;
}

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
