// Arithmetic modulo the Mersenne prime p = 2^61 - 1: the fingerprint
// field of the 1-sparse cells (one_sparse.h, cell_kernels.cc) and of the
// pairwise-independent hashes inside Nisan's generator (Sec 3.4 of the
// paper), which use only these helpers.
#ifndef GRAPHSKETCH_SRC_HASH_KWISE_HASH_H_
#define GRAPHSKETCH_SRC_HASH_KWISE_HASH_H_

#include <cstdint>

namespace gsketch {

/// The Mersenne prime 2^61 - 1 used by all modular hashing in the library.
inline constexpr uint64_t kMersenne61 = (uint64_t{1} << 61) - 1;

/// Multiplies two residues mod 2^61 - 1 using 128-bit intermediate math.
inline uint64_t MulMod61(uint64_t a, uint64_t b) {
  __uint128_t t = static_cast<__uint128_t>(a) * b;
  uint64_t lo = static_cast<uint64_t>(t & kMersenne61);
  uint64_t hi = static_cast<uint64_t>(t >> 61);
  uint64_t s = lo + hi;
  if (s >= kMersenne61) s -= kMersenne61;
  return s;
}

/// Adds two residues mod 2^61 - 1. Branchless: the wrap condition is a
/// coin flip on random residues, so a compare-branch mispredicts half the
/// time in the cell-update hot loops; the mask form costs two ALU ops
/// unconditionally instead.
inline uint64_t AddMod61(uint64_t a, uint64_t b) {
  uint64_t s = a + b;
  return s - (kMersenne61 & -static_cast<uint64_t>(s >= kMersenne61));
}

/// Subtracts two residues mod 2^61 - 1 (branchless, as AddMod61).
inline uint64_t SubMod61(uint64_t a, uint64_t b) {
  uint64_t d = a - b;
  return d + (kMersenne61 & -static_cast<uint64_t>(a < b));
}

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_HASH_KWISE_HASH_H_
