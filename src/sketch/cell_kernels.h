// Batched hash kernels for the cell-update hot loops.
//
// Every per-update hash in the library reduces to one SplitMix64 round over
// `base + id`, where `base` hoists the seed and all structural coordinates
// (Mix64Base / Mix64 chains, src/hash/splitmix.h). These kernels evaluate
// that round — and the Mersenne-61 fingerprint reduction — over whole update
// batches at once, so `L0CellsUpdateBatch` / `RecoveryCellsUpdateBatch` can
// separate hashing (data-parallel, vectorizable) from cell accumulation
// (scatter, scalar).
//
// Three backends sit behind a one-time runtime dispatch to the widest one
// the CPU supports:
//   - avx512: 8 lanes with native 64-bit multiplies (vpmullq) and masked
//     tails, selected iff the CPU reports AVX-512F and AVX-512DQ;
//   - avx2: 4 lanes, 64-bit multiplies emulated with 32-bit partial
//     products, selected iff the CPU reports AVX2 (and not the above);
//   - scalar: portable reference, written so the compiler's auto-vectorizer
//     can also take it (verify with -fopt-info-vec); the only path
//     elsewhere.
// All produce bit-identical output; tests/cell_kernel_test.cc proves every
// backend the CPU supports against the scalar reference and the direct
// formulas.
#ifndef GRAPHSKETCH_SRC_SKETCH_CELL_KERNELS_H_
#define GRAPHSKETCH_SRC_SKETCH_CELL_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gsketch {

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

/// One compiled backend: its name and its two batch kernels.
struct CellKernelTable {
  using BatchHashFn = void (*)(uint64_t base, const uint64_t* ids,
                               size_t count, uint64_t* out);
  const char* name;
  BatchHashFn splitmix;
  BatchHashFn finger;
};

/// Every backend compiled into this build that the CPU can run, widest
/// first; the dispatcher runs the first. Exposed so tests can prove each
/// one against the scalar reference, not only the dispatched one.
std::vector<CellKernelTable> SupportedCellKernels();

/// Name of the backend the dispatcher selected: "avx512", "avx2" or
/// "scalar".
const char* CellKernelBackend();

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_SKETCH_CELL_KERNELS_H_
