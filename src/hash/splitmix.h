// SplitMix64 finalizer-style mixing. The stateless `Mix64` overloads are the
// library's "random oracle": every sketch derives all of its randomness by
// mixing an explicit 64-bit seed with structural coordinates (level, row,
// index, ...). This makes sketches deterministic functions of their seed,
// which in turn makes distributed sketches mergeable: two sites constructing
// a sketch from the same seed perform identical linear measurements.
#ifndef GRAPHSKETCH_SRC_HASH_SPLITMIX_H_
#define GRAPHSKETCH_SRC_HASH_SPLITMIX_H_

#include <cstdint>

namespace gsketch {

/// One round of the SplitMix64 output function (Steele et al., 2014).
/// Bijective on 64-bit words; excellent avalanche behaviour.
inline constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Base of the Mix64 chain: Mix64(seed, a, ..., z) == SplitMix64(C + z)
/// where C hoists every coordinate but the last. Batched kernels
/// (src/sketch/cell_kernels.h) use this to precompute C once per
/// repetition/row and hash whole update batches with one SplitMix64 each.
inline constexpr uint64_t Mix64Base(uint64_t seed) {
  return SplitMix64(seed ^ 0x3c6ef372fe94f82aULL);
}

/// Mixes a seed with one coordinate into a pseudorandom 64-bit word.
inline constexpr uint64_t Mix64(uint64_t seed, uint64_t a) {
  return SplitMix64(Mix64Base(seed) + a);
}

/// Mixes a seed with two coordinates.
inline constexpr uint64_t Mix64(uint64_t seed, uint64_t a, uint64_t b) {
  return SplitMix64(Mix64(seed, a) + b);
}

/// Mixes a seed with three coordinates.
inline constexpr uint64_t Mix64(uint64_t seed, uint64_t a, uint64_t b,
                                uint64_t c) {
  return SplitMix64(Mix64(seed, a, b) + c);
}

/// Derives an independent child seed from a parent seed and a role tag.
/// Used to hand each sub-structure (sampler repetition, level, node, ...)
/// its own seed so their randomness is independent under the oracle model.
inline constexpr uint64_t DeriveSeed(uint64_t parent, uint64_t role) {
  return SplitMix64(parent ^ (0x9e3779b97f4a7c15ULL * (role + 1)));
}

/// Uniform double in [0, 1) from a 64-bit word (53 mantissa bits).
inline constexpr double ToUnitDouble(uint64_t word) {
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

/// Bernoulli(2^-i) coin: true iff the low i bits of the word are zero.
/// Matches the paper's nested subsampling Π_{j≤i} h_j(e) = 1 when the word
/// is interpreted as the concatenation of fair coins h_1(e), h_2(e), ....
inline constexpr bool GeometricCoin(uint64_t word, uint32_t i) {
  if (i == 0) return true;
  if (i >= 64) return word == 0;
  return (word & ((uint64_t{1} << i) - 1)) == 0;
}

/// Number of leading fair-coin successes in the word (trailing zero count,
/// capped). Determines the deepest subsampling level an element survives to.
/// Branch-free below 64: setting bit `cap` makes the count stop there, so
/// min(ctz(word), cap) costs one OR and one count instead of one
/// unpredictable loop exit per level.
inline constexpr uint32_t GeometricLevel(uint64_t word, uint32_t cap) {
  if (cap >= 64) {
    return word == 0 ? cap : static_cast<uint32_t>(__builtin_ctzll(word));
  }
  return static_cast<uint32_t>(__builtin_ctzll(word | (uint64_t{1} << cap)));
}

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_HASH_SPLITMIX_H_
