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
// measurement of an `UpdateBatch` (both hashes, the level, the fingerprint
// term and the per-level sums) in one call. The batch is the per-batch
// prologue every bank and repetition shares: ids, deltas, the index
// weights id·δ and an "every |δ| <= 1" flag, computed once. The vector
// backend keeps the four levels that 15/16 of updates stop at (0-3) as
// lane sums in registers, each fingerprint term summed as two 32-bit
// halves and reduced mod 2^61 - 1 once per level per call, and sends
// only the updates that reach level 4 through a scalar scatter.
// All-unit batches (plain insert/delete streams) get their terms without
// a multiply: f, M - f or 0.
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

/// One batch of vector updates x[ids[i]] += deltas[i], i < count, with
/// what every ℓ₀ repetition would otherwise recompute from it: the index
/// weights ids[i]·deltas[i] (mod 2^64) and whether every |deltas[i]| <= 1.
/// Built once per gutter batch (at most kMaxIds updates; longer batches
/// are applied chunk by chunk) and read by every bank and repetition.
/// Fixed storage: building one allocates nothing.
struct UpdateBatch {
  static constexpr size_t kMaxIds = 512;

  /// Empties the batch.
  void Clear() {
    count = 0;
    unit = true;
  }

  /// Appends x[id] += delta; count must be below kMaxIds.
  void Push(uint64_t id, int64_t delta) {
    ids[count] = id;
    deltas[count] = delta;
    weights[count] = id * static_cast<uint64_t>(delta);
    unit &= delta >= -1 && delta <= 1;
    ++count;
  }

  size_t count = 0;
  bool unit = true;  ///< every |deltas[i]| <= 1
  uint64_t ids[kMaxIds];
  int64_t deltas[kMaxIds];
  uint64_t weights[kMaxIds];
};

/// One compiled backend: its name, its two batch hash kernels and its
/// fused ℓ₀ repetition kernel.
struct CellKernelTable {
  using BatchHashFn = void (*)(uint64_t base, const uint64_t* ids,
                               size_t count, uint64_t* out);
  /// Applies one ℓ₀ repetition's measurement of `batch` to that
  /// repetition's `levels + 1` cells (levels <= 63):
  ///   rep_cells[l] += Σ_{i : z_i >= l} (d_i, w_i, t_i), where
  ///   z_i = GeometricLevel(SplitMix64(level_base + ids_i), levels),
  ///   t_i = ResidueOf(d_i)·(SplitMix64(finger_base + ids_i) mod M) mod M,
  /// d_i = batch.deltas[i], w_i = batch.weights[i] and M = 2^61 - 1. With
  /// the 0x5e7e / 0xf17e Mix64 bases of a repetition seed this is the ℓ₀
  /// sampler's measurement (L0CellsUpdate) of the whole batch. Writes no
  /// cell past rep_cells[levels].
  using L0RepFn = void (*)(uint64_t level_base, uint64_t finger_base,
                           uint32_t levels, const UpdateBatch& batch,
                           OneSparseCell* rep_cells);

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
