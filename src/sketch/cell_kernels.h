// Batched kernels for the cell-update hot loops.
//
// Every per-update hash in the library reduces to one SplitMix64 round over
// `base + id`, where `base` hoists the seed and all structural coordinates
// (Mix64Base / Mix64 chains, src/hash/splitmix.h). `SplitMix64Batch` and
// `FingerBatch` evaluate that round — and the Mersenne-61 fingerprint
// reduction — over whole update batches at once; `RecoveryCellsUpdateBatch`
// hashes with them and then scatters scalar.
//
// The ℓ₀ core has its own fused entry, `l0_rep`: one repetition's whole
// measurement of a chunk (both hashes, the level, the fingerprint term and
// the per-level sums) in one call, so a vector backend can keep the two
// levels every other update reaches (0 and 1) in registers and send only
// the updates that reach level 2 through a scalar scatter.
//
// Three backends sit behind a one-time runtime dispatch to the widest one
// the CPU supports:
//   - avx512: 8 lanes with native 64-bit multiplies (vpmullq) and masked
//     tails, selected iff the CPU reports AVX-512F and AVX-512DQ; its
//     `l0_rep` is the fused vector pass;
//   - avx2: 4 lanes, 64-bit multiplies emulated with 32-bit partial
//     products, selected iff the CPU reports AVX2 (and not the above);
//   - scalar: portable reference, written so the compiler's auto-vectorizer
//     can also take it (verify with -fopt-info-vec); the only path
//     elsewhere.
// The avx2 and scalar `l0_rep` run the batch hashes, then levels and
// terms, then a suffix-sum scatter of every update. All produce
// bit-identical output; tests/cell_kernel_test.cc proves every backend the
// CPU supports against the scalar reference and the direct formulas.
#ifndef GRAPHSKETCH_SRC_SKETCH_CELL_KERNELS_H_
#define GRAPHSKETCH_SRC_SKETCH_CELL_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gsketch {

class OneSparseCell;

/// out[i] = SplitMix64(base + ids[i]).
void SplitMix64Batch(uint64_t base, const uint64_t* ids, size_t count,
                     uint64_t* out);

/// out[i] = SplitMix64(base + ids[i]) % (2^61 - 1). With
/// base == Mix64(seed, 0xf17e) this is OneSparseCell::FingerOf(seed, id)
/// for the whole batch.
void FingerBatch(uint64_t base, const uint64_t* ids, size_t count,
                 uint64_t* out);

/// Portable reference implementations (always available; the dispatch
/// targets on hosts without AVX2). Exposed so the CPU-dispatch parity test
/// can compare every backend against them.
void SplitMix64BatchScalar(uint64_t base, const uint64_t* ids, size_t count,
                           uint64_t* out);
void FingerBatchScalar(uint64_t base, const uint64_t* ids, size_t count,
                       uint64_t* out);

/// One compiled backend: its name, its two batch hash kernels and its
/// fused ℓ₀ repetition kernel.
struct CellKernelTable {
  using BatchHashFn = void (*)(uint64_t base, const uint64_t* ids,
                               size_t count, uint64_t* out);
  /// Applies one ℓ₀ repetition's measurement of `count` <= kL0RepMaxIds
  /// updates to that repetition's `levels + 1` cells (levels <= 63):
  ///   rep_cells[l] += Σ_{i : z_i >= l} (d_i, ids_i·d_i, t_i), where
  ///   z_i = GeometricLevel(SplitMix64(level_base + ids_i), levels),
  ///   t_i = ResidueOf(d_i)·(SplitMix64(finger_base + ids_i) mod M) mod M,
  /// d_i = deltas[i] and M = 2^61 - 1. With the 0x5e7e / 0xf17e Mix64
  /// bases of a repetition seed this is the ℓ₀ sampler's measurement
  /// (L0CellsUpdate) of the whole chunk. Writes no cell past
  /// rep_cells[levels].
  using L0RepFn = void (*)(uint64_t level_base, uint64_t finger_base,
                           uint32_t levels, const uint64_t* ids,
                           const int64_t* deltas, size_t count,
                           OneSparseCell* rep_cells);
  static constexpr size_t kL0RepMaxIds = 256;

  const char* name;
  BatchHashFn splitmix;
  BatchHashFn finger;
  L0RepFn l0_rep;
};

/// Every backend compiled into this build that the CPU can run, widest
/// first; the dispatcher runs the first. Exposed so tests can prove each
/// one against the scalar reference, not only the dispatched one.
std::vector<CellKernelTable> SupportedCellKernels();

/// The backend the dispatcher selected, resolved once:
/// SupportedCellKernels().front().
const CellKernelTable& Kernels();

/// Name of the backend the dispatcher selected: "avx512", "avx2" or
/// "scalar".
const char* CellKernelBackend();

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_SKETCH_CELL_KERNELS_H_
