// Constant-factor support-size (ℓ₀ norm) estimator via geometric level
// occupancy: level l holds each element with probability 2^-l, so the
// deepest non-empty level concentrates around log₂|support|. Used for
// diagnostics and for sizing adaptive structures between passes.
#ifndef GRAPHSKETCH_SRC_SKETCH_SUPPORT_ESTIMATOR_H_
#define GRAPHSKETCH_SRC_SKETCH_SUPPORT_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/sketch/one_sparse.h"

namespace gsketch {

/// Linear sketch estimating |support(x)| within a constant factor w.h.p.
class SupportEstimator {
 public:
  /// Estimator over [0, domain) with `repetitions` independent copies.
  SupportEstimator(uint64_t domain, uint32_t repetitions, uint64_t seed);

  /// Applies x[index] += delta.
  void Update(uint64_t index, int64_t delta);

  /// Adds another estimator with identical parameterization.
  void Merge(const SupportEstimator& other);

  /// The first measurement parameter in which `other` differs (a field
  /// name such as "seed"), or nullptr when the two measure identically
  /// and Merge may add them.
  const char* MismatchWith(const SupportEstimator& other) const {
    if (domain_ != other.domain_) return "domain";
    if (reps_ != other.reps_) return "repetitions";
    if (seed_ != other.seed_) return "seed";
    return nullptr;
  }

  /// Median-of-repetitions estimate of |support(x)|; 0 for a zero vector.
  uint64_t Estimate() const;

  /// Serializes parameters, seed, and cells (Sec 1.1 wire format).
  void AppendTo(std::string* out) const;

  /// Parses an estimator back; nullopt on malformed input.
  static std::optional<SupportEstimator> Deserialize(ByteReader* r);

  uint64_t domain() const { return domain_; }
  uint32_t repetitions() const { return reps_; }
  uint64_t seed() const { return seed_; }

 private:
  size_t CellAt(uint32_t rep, uint32_t level) const {
    return static_cast<size_t>(rep) * (levels_ + 1) + level;
  }

  uint64_t domain_;
  uint32_t reps_;
  uint32_t levels_;
  uint64_t seed_;
  std::vector<OneSparseCell> cells_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_SKETCH_SUPPORT_ESTIMATOR_H_
