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

constexpr size_t kMaxIds = UpdateBatch::kMaxIds;

// Levels are capped at 63, so a repetition has at most 64 cells.
constexpr uint32_t kMaxAccLevels = 64;

// The scalar and avx2 `l0_rep`: the backend's two batch hash kernels,
// then levels and terms, then a suffix-sum scatter of every update.
template <CellKernelTable::BatchHashFn kSplitMix,
          CellKernelTable::BatchHashFn kFinger>
void L0RepHashed(uint64_t level_base, uint64_t finger_base, uint32_t levels,
                 const UpdateBatch& batch, OneSparseCell* rep_cells) {
  const uint32_t per_rep = levels + 1;
  const size_t count = batch.count;
  assert(count <= kMaxIds && per_rep <= kMaxAccLevels);
  uint64_t words[kMaxIds];
  uint64_t fingers[kMaxIds];
  kSplitMix(level_base, batch.ids, count, words);
  kFinger(finger_base, batch.ids, count, fingers);
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
    const int64_t d = batch.deltas[i];
    if (d != 1) {
      fingers[i] = d == -1 ? SubMod61(0, fingers[i])
                           : MulMod61(OneSparseCell::ResidueOf(d), fingers[i]);
    }
  }
  for (size_t i = 0; i < count; ++i) {
    acc[words[i]].AddSums(batch.deltas[i],
                          static_cast<int64_t>(batch.weights[i]), fingers[i]);
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

// TermVec for d in {-1, 0, 1}, without a multiply: f, (M - f) mod M or 0.
__attribute__((target("avx512f,avx512dq"))) inline __m512i UnitTermVec(
    __m512i d, __m512i f) {
  const __m512i m = _mm512_set1_epi64(static_cast<int64_t>(kMersenne61));
  const __m512i t = _mm512_maskz_mov_epi64(_mm512_test_epi64_mask(d, d), f);
  const __mmask8 negate =
      _mm512_mask_test_epi64_mask(_mm512_movepi64_mask(d), t, t);
  return _mm512_mask_sub_epi64(t, negate, m, t);
}

// The fingerprint terms of 8 updates: UnitTermVec for all-unit batches,
// else TermVec with a scalar MulMod61 for the lanes whose |d| >= 2^32
// (INT64_MIN included).
template <bool kUnit>
__attribute__((target("avx512f,avx512dq"))) inline __m512i Terms(
    __m512i d, __m512i f, const int64_t* deltas) {
  if constexpr (kUnit) {
    return UnitTermVec(d, f);
  } else {
    __m512i t = TermVec(d, f);
    const __mmask8 wide = _mm512_cmpgt_epu64_mask(
        Abs64(d), _mm512_set1_epi64(0xffffffffLL));
    if (__builtin_expect(wide != 0, 0)) {
      alignas(64) uint64_t fl[8];
      alignas(64) uint64_t tl[8];
      _mm512_store_si512(fl, f);
      _mm512_store_si512(tl, t);
      for (unsigned bits = wide; bits != 0; bits &= bits - 1) {
        const unsigned j = static_cast<unsigned>(__builtin_ctz(bits));
        tl[j] = MulMod61(OneSparseCell::ResidueOf(deltas[j]), fl[j]);
      }
      t = _mm512_load_si512(tl);
    }
    return t;
  }
}

// Lane sums of one level: count, index weight, and the fingerprint terms
// split at bit 32, so adding a term is two plain adds and the level
// reduces mod M once per call. A lane adds at most kMaxIds / 8 = 64
// terms, so its low half stays below 2^38 and its high half below 2^35.
struct LevelSums512 {
  __m512i count;
  __m512i weight;
  __m512i lo;
  __m512i hi;
};

// Lane j of the result is the (wrapping) sum of v[j]'s 8 lanes: three
// rounds of pairwise shuffles and adds, 21 instructions for all eight
// sums, where reducing each vector on its own takes about as many for
// three. The all-lanes maskz forms compile to the plain shuffles (see
// Srli64).
__attribute__((target("avx512f"))) inline __m512i LaneSums8(
    const __m512i v[8]) {
  const __mmask8 all = 0xff;
  // 128-bit block b of pairs[k]: v[2k]'s and v[2k+1]'s lanes 2b + 2b+1.
  __m512i pairs[4];
  for (int k = 0; k < 4; ++k) {
    pairs[k] = _mm512_add_epi64(
        _mm512_maskz_unpacklo_epi64(all, v[2 * k], v[2 * k + 1]),
        _mm512_maskz_unpackhi_epi64(all, v[2 * k], v[2 * k + 1]));
  }
  // Block 2h + b of quads[k]: v[4k+2h]'s and v[4k+2h+1]'s lanes 4b..4b+3.
  __m512i quads[2];
  for (int k = 0; k < 2; ++k) {
    quads[k] = _mm512_add_epi64(
        _mm512_maskz_shuffle_i64x2(all, pairs[2 * k], pairs[2 * k + 1], 0x88),
        _mm512_maskz_shuffle_i64x2(all, pairs[2 * k], pairs[2 * k + 1], 0xdd));
  }
  return _mm512_add_epi64(
      _mm512_maskz_shuffle_i64x2(all, quads[0], quads[1], 0x88),
      _mm512_maskz_shuffle_i64x2(all, quads[0], quads[1], 0xdd));
}

// The lanes among `lanes` whose level word has its low l bits clear: the
// updates that reach level l.
__attribute__((target("avx512f"))) inline __mmask8 AtLevel(__mmask8 lanes,
                                                           __m512i word,
                                                           unsigned l) {
  return _mm512_mask_testn_epi64_mask(
      lanes, word, _mm512_set1_epi64((int64_t{1} << l) - 1));
}

__attribute__((target("avx512f"))) inline void AddToLevel(
    LevelSums512* s, __mmask8 at, __m512i d, __m512i w, __m512i lo,
    __m512i hi) {
  s->count = _mm512_mask_add_epi64(s->count, at, s->count, d);
  s->weight = _mm512_mask_add_epi64(s->weight, at, s->weight, w);
  s->lo = _mm512_mask_add_epi64(s->lo, at, s->lo, lo);
  s->hi = _mm512_mask_add_epi64(s->hi, at, s->hi, hi);
}

// Adds levels 0..min(3, levels)'s lane sums to their cells. Count and
// weight wrap exactly as the scalar sums. The halves sum to lo < 2^41 and
// hi < 2^38, and hi·2^32 ≡ ((hi mod 2^29) << 32) + (hi >> 29) (mod M),
// so each print is one fold of a value below 2^62.
__attribute__((target("avx512f"))) inline void AddLevelSums(
    const LevelSums512 (&s)[4], uint32_t levels, OneSparseCell* rep_cells) {
  const __m512i count_weight[8] = {s[0].count, s[0].weight, s[1].count,
                                   s[1].weight, s[2].count, s[2].weight,
                                   s[3].count, s[3].weight};
  const __m512i prints[8] = {s[0].lo, s[0].hi, s[1].lo, s[1].hi,
                             s[2].lo, s[2].hi, s[3].lo, s[3].hi};
  alignas(64) uint64_t cw[8];
  alignas(64) uint64_t pr[8];
  _mm512_store_si512(cw, LaneSums8(count_weight));
  _mm512_store_si512(pr, LaneSums8(prints));
  for (uint32_t l = 0; l < 4 && l <= levels; ++l) {
    const uint64_t lo = pr[2 * l];
    const uint64_t hi = pr[2 * l + 1];
    rep_cells[l].AddSums(
        static_cast<int64_t>(cw[2 * l]), static_cast<int64_t>(cw[2 * l + 1]),
        FoldMersenne61(((hi & ((uint64_t{1} << 29) - 1)) << 32) + (hi >> 29) +
                       lo));
  }
}

// The fused AVX-512 `l0_rep`. An update reaches level l iff the low l
// bits of its level word are clear, so 15/16 of updates stop at levels
// 0-3: those four levels are lane sums kept in registers. The updates
// that reach level 4 are marked in a bitmask and go through a scalar
// suffix-sum scatter over levels 4..top, reading their words and terms
// from plain per-lane stores. OR-ing 1 << levels into the word caps z at
// `levels`: with levels < 4 no lane is marked, and no cell past
// rep_cells[levels] is written.
template <bool kUnit>
__attribute__((target("avx512f,avx512dq"))) void L0RepAvx512Batch(
    uint64_t level_base, uint64_t finger_base, uint32_t levels,
    const UpdateBatch& batch, OneSparseCell* rep_cells) {
  const size_t count = batch.count;
  assert(count <= kMaxIds && levels < kMaxAccLevels);
  const __m512i vlevel_base =
      _mm512_set1_epi64(static_cast<int64_t>(level_base));
  const __m512i vfinger_base =
      _mm512_set1_epi64(static_cast<int64_t>(finger_base));
  const __m512i cap =
      _mm512_set1_epi64(static_cast<int64_t>(uint64_t{1} << levels));
  const __m512i low32 = _mm512_set1_epi64(0xffffffffLL);
  const __m512i zero = _mm512_setzero_si512();
  LevelSums512 sums[4];  // levels 0-3
  for (LevelSums512& s : sums) s = {zero, zero, zero, zero};
  alignas(64) uint64_t words[kMaxIds];
  alignas(64) uint64_t terms[kMaxIds];
  uint64_t deep[kMaxIds / 64] = {};  // bit i: update i reaches level 4
  for (size_t i = 0; i < count; i += 8) {
    // Masked-off lanes load id 0 and delta 0, so they add 0 everywhere
    // and are never marked.
    const __mmask8 lanes = LaneMask(i, count);
    const __m512i id = _mm512_maskz_loadu_epi64(lanes, batch.ids + i);
    const __m512i d = _mm512_maskz_loadu_epi64(lanes, batch.deltas + i);
    const __m512i w = _mm512_maskz_loadu_epi64(lanes, batch.weights + i);
    const __m512i word = _mm512_or_si512(
        SplitMix64Vec512(_mm512_add_epi64(vlevel_base, id)), cap);
    const __m512i f = FoldMersenne61Vec512(
        SplitMix64Vec512(_mm512_add_epi64(vfinger_base, id)));
    const __m512i t = Terms<kUnit>(d, f, batch.deltas + i);
    const __m512i lo = _mm512_and_si512(t, low32);
    const __m512i hi = Srli64(t, 32);
    AddToLevel(&sums[0], lanes, d, w, lo, hi);
    AddToLevel(&sums[1], AtLevel(lanes, word, 1), d, w, lo, hi);
    AddToLevel(&sums[2], AtLevel(lanes, word, 2), d, w, lo, hi);
    AddToLevel(&sums[3], AtLevel(lanes, word, 3), d, w, lo, hi);
    _mm512_store_si512(words + i, word);
    _mm512_store_si512(terms + i, t);
    deep[i / 64] |= uint64_t{AtLevel(lanes, word, 4)} << (i % 64);
  }
  AddLevelSums(sums, levels, rep_cells);
  if (levels <= 3) return;
  // Suffix-sum scatter of the marked updates over levels 4..top, in plain
  // arrays. The sums wrap mod 2^64, like the lanes and the cells.
  uint64_t acc_count[kMaxAccLevels];
  uint64_t acc_weight[kMaxAccLevels];
  uint64_t acc_print[kMaxAccLevels];
  for (uint32_t l = 4; l <= levels; ++l) {
    acc_count[l] = 0;
    acc_weight[l] = 0;
    acc_print[l] = 0;
  }
  uint32_t top = 3;
  for (size_t g = 0; g * 64 < count; ++g) {
    for (uint64_t bits = deep[g]; bits != 0; bits &= bits - 1) {
      const size_t j = g * 64 + static_cast<size_t>(__builtin_ctzll(bits));
      const uint32_t z = static_cast<uint32_t>(__builtin_ctzll(words[j]));
      top = z > top ? z : top;
      acc_count[z] += static_cast<uint64_t>(batch.deltas[j]);
      acc_weight[z] += batch.weights[j];
      acc_print[z] = AddMod61(acc_print[z], terms[j]);
    }
  }
  for (uint32_t l = top; l > 4; --l) {
    acc_count[l - 1] += acc_count[l];
    acc_weight[l - 1] += acc_weight[l];
    acc_print[l - 1] = AddMod61(acc_print[l - 1], acc_print[l]);
  }
  for (uint32_t l = 4; l <= top; ++l) {
    rep_cells[l].AddSums(static_cast<int64_t>(acc_count[l]),
                         static_cast<int64_t>(acc_weight[l]), acc_print[l]);
  }
}

// The dispatched AVX-512 `l0_rep`: the pass with the all-unit or the
// general term.
__attribute__((target("avx512f,avx512dq"))) void L0RepAvx512(
    uint64_t level_base, uint64_t finger_base, uint32_t levels,
    const UpdateBatch& batch, OneSparseCell* rep_cells) {
  (batch.unit ? &L0RepAvx512Batch<true> : &L0RepAvx512Batch<false>)(
      level_base, finger_base, levels, batch, rep_cells);
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
