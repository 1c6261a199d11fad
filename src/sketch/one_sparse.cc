#include "src/sketch/one_sparse.h"

#include <limits>

namespace gsketch {

std::optional<OneSparseResult> OneSparseCell::Decode(uint64_t seed) const {
  if (IsZero()) return std::nullopt;
  const auto count = static_cast<int64_t>(count_);
  const auto index_weight = static_cast<int64_t>(index_weight_);
  if (count == 0) return std::nullopt;  // cancellation: not 1-sparse
  // INT64_MIN / -1 overflows (x86 traps on it). No 1-sparse vector sums
  // to it: its index would be 2^63.
  if (count == -1 && index_weight == std::numeric_limits<int64_t>::min()) {
    return std::nullopt;
  }
  if (index_weight % count != 0) return std::nullopt;
  int64_t q = index_weight / count;
  if (q < 0) return std::nullopt;
  uint64_t index = static_cast<uint64_t>(q);
  // Verify print == (count mod p) * h(index). For a genuinely 1-sparse
  // vector this holds with certainty; otherwise it fails w.h.p.
  uint64_t expect = MulMod61(ResidueOf(count), FingerOf(seed, index));
  if (expect != print_) return std::nullopt;
  return OneSparseResult{index, count};
}

}  // namespace gsketch
