// 1-sparse decoder: the atomic linear measurement underlying both
// ℓ₀-sampling (Theorem 2.1) and k-RECOVERY (Theorem 2.2).
//
// For a vector x over domain [D] it maintains three linear functions of x:
//     count   = Σ_i x_i
//     indexw  = Σ_i i · x_i
//     print   = Σ_i x_i · h(i)   (mod p = 2^61-1, h a seeded hash)
// If x is exactly 1-sparse with x_{i*} = v, then indexw/count = i* and
// print = v·h(i*); the fingerprint check fails for non-1-sparse x except
// with probability ~ |support| / p.
//
// Cells are 24 bytes. The fingerprint seed lives in the *owning* structure
// (sampler repetition / recovery row), not the cell: millions of cells
// share a handful of seeds, and the owner can hash an index once per
// update batch. `count` and `indexw` are int64 sums kept mod 2^64: they
// add in uint64, so an overflow wraps the same way in every cell method
// and in the vector kernels' lanes (src/sketch/cell_kernels.h) and is
// never signed-overflow UB. A cell decodes correctly only while
// Σ_i |i · x_i| < 2^63 over the indices it summarizes, and nothing
// enforces that. An edge slot of an n-node graph has i < C(n,2), which
// caps a cell's total |multiplicity| near 2^63 / C(n,2): about 2^40 at
// n = 4096 and 2^24 at n = 2^20 (subset columns C(n,k) cap it sooner).
// Past the cap the sum overflows, the fingerprint rejects the decode, and a
// sampler reports no sample, so a forest cannot sample the edge; the
// forest decode then reports its component unresolved (docs/CLI.md,
// "Unresolved answers", has a CLI repro).
#ifndef GRAPHSKETCH_SRC_SKETCH_ONE_SPARSE_H_
#define GRAPHSKETCH_SRC_SKETCH_ONE_SPARSE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>

#include "src/hash/kwise_hash.h"
#include "src/hash/splitmix.h"
#include "src/sketch/serde.h"

namespace gsketch {

/// Result of decoding a 1-sparse cell.
struct OneSparseResult {
  uint64_t index = 0;  ///< The unique support element.
  int64_t value = 0;   ///< Its (nonzero) aggregate value.
};

/// A single 1-sparse decoding cell. Linear: cells summarizing measurements
/// made with the same fingerprint seed add.
class OneSparseCell {
 public:
  OneSparseCell() = default;

  /// Fingerprint hash of an index under `seed`; owners precompute this once
  /// per (repetition, index) and pass it to Update.
  static uint64_t FingerOf(uint64_t seed, uint64_t index) {
    return Mix64(seed, 0xf17eu, index) % kMersenne61;
  }

  /// Applies x[index] += delta, where finger == FingerOf(seed, index) for
  /// the owner's seed.
  void Update(uint64_t index, int64_t delta, uint64_t finger) {
    count_ += static_cast<uint64_t>(delta);
    index_weight_ += index * static_cast<uint64_t>(delta);
    print_ = AddMod61(print_, MulMod61(ResidueOf(delta), finger));
  }

  /// Applies x[index] += delta with the fingerprint term already reduced:
  /// term == MulMod61(ResidueOf(delta), FingerOf(seed, index)). Batched
  /// cores compute the term once per (update, repetition) and reuse it
  /// across every level the update survives to.
  void ApplyTerm(uint64_t index, int64_t delta, uint64_t term) {
    count_ += static_cast<uint64_t>(delta);
    index_weight_ += index * static_cast<uint64_t>(delta);
    print_ = AddMod61(print_, term);
  }

  /// Adds raw measurement sums — Σ delta, Σ index·delta and Σ term
  /// (reduced mod 2^61 - 1) over some updates — in one step. Vector cores
  /// that sum a level's updates outside the cell add them with one call.
  void AddSums(int64_t count, int64_t index_weight, uint64_t print) {
    count_ += static_cast<uint64_t>(count);
    index_weight_ += static_cast<uint64_t>(index_weight);
    print_ = AddMod61(print_, print);
  }

  /// Adds another cell with the same owner seed (linearity).
  void Merge(const OneSparseCell& other) {
    count_ += other.count_;
    index_weight_ += other.index_weight_;
    print_ = AddMod61(print_, other.print_);
  }

  /// Subtracts another cell with the same owner seed.
  void Subtract(const OneSparseCell& other) {
    count_ -= other.count_;
    index_weight_ -= other.index_weight_;
    print_ = SubMod61(print_, other.print_);
  }

  /// True iff the summarized vector is zero (exact up to fingerprint
  /// collision probability ~ support/2^61).
  bool IsZero() const {
    return count_ == 0 && index_weight_ == 0 && print_ == 0;
  }

  /// Attempts to decode a 1-sparse vector under the owner's `seed`.
  /// Returns nullopt if the vector is zero or demonstrably not 1-sparse.
  std::optional<OneSparseResult> Decode(uint64_t seed) const;

  static uint64_t ResidueOf(int64_t v) {
    int64_t m = v % static_cast<int64_t>(kMersenne61);
    if (m < 0) m += static_cast<int64_t>(kMersenne61);
    return static_cast<uint64_t>(m);
  }

  /// Appends the cell's three linear measurements to the wire format.
  void AppendTo(ByteWriter* w) const {
    w->U64(count_);
    w->U64(index_weight_);
    w->U64(print_);
  }

  /// Reads a cell back; returns false on truncation.
  bool ParseFrom(ByteReader* r) {
    auto c = r->U64(), iw = r->U64();
    auto p = r->U64();
    if (!c || !iw || !p) return false;
    count_ = *c;
    index_weight_ = *iw;
    print_ = *p;
    return true;
  }

 private:
  uint64_t count_ = 0;         ///< Σ x_i, an int64 kept mod 2^64
  uint64_t index_weight_ = 0;  ///< Σ i·x_i, an int64 kept mod 2^64
  uint64_t print_ = 0;
};

// The bulk-cell codec below memcpy's whole cell arrays on little-endian
// hosts; that is only the wire format if a cell is exactly its three
// measurements, declaration-ordered with no padding.
static_assert(sizeof(OneSparseCell) == 24, "cell must pack to 24 bytes");
static_assert(std::is_trivially_copyable<OneSparseCell>::value,
              "bulk cell serde memcpy's cells");

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
inline constexpr bool kHostLittleEndian = true;
#else
inline constexpr bool kHostLittleEndian = false;
#endif

/// Appends `count` cells to the wire format. On little-endian hosts the
/// whole array is one memcpy (cells ARE the wire format there); otherwise
/// falls back to per-cell byte composition.
inline void AppendCells(ByteWriter* w, const OneSparseCell* cells,
                        size_t count) {
  if (kHostLittleEndian) {
    w->Raw(cells, count * sizeof(OneSparseCell));
  } else {
    for (size_t i = 0; i < count; ++i) cells[i].AppendTo(w);
  }
}

/// Reads `count` cells back; false on truncation. Bulk memcpy on
/// little-endian hosts, per-cell parse otherwise.
inline bool ParseCells(ByteReader* r, OneSparseCell* cells, size_t count) {
  if (kHostLittleEndian) {
    return r->Raw(cells, count * sizeof(OneSparseCell));
  }
  for (size_t i = 0; i < count; ++i) {
    if (!cells[i].ParseFrom(r)) return false;
  }
  return true;
}

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_SKETCH_ONE_SPARSE_H_
