// The Section 4 / Fig. 4 subgraph sketch: estimates γ_H(G), the fraction of
// non-empty order-k induced subgraphs isomorphic to a pattern H, to
// additive ε with O(ε⁻² log δ⁻¹) ℓ₀-samplers (Theorem 4.1).
//
// The implicit matrix X_G has a column per k-subset of V, encoding the
// subset's induced edges in C(k,2) bits. squash(X) packs each column into
// one integer; an edge update (u,v,Δ) touches every column whose subset
// contains both u and v — C(n-2, k-2) coordinates — adding Δ·2^slot. The
// sketch stores s independent ℓ₀-samplers over squash(X); each sample is a
// uniformly random non-empty induced subgraph together with its exact edge
// code, and the γ_H estimate is the fraction of samples whose code is
// isomorphic to H.
#ifndef GRAPHSKETCH_SRC_CORE_SUBGRAPH_SKETCH_H_
#define GRAPHSKETCH_SRC_CORE_SUBGRAPH_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "src/core/node_sketch.h"
#include "src/graph/edge_id.h"
#include "src/sketch/l0_sampler.h"
#include "src/sketch/support_estimator.h"

namespace gsketch {

/// Result of estimating γ_H.
struct SubgraphEstimate {
  double gamma = 0.0;        ///< estimated fraction
  size_t samples_used = 0;   ///< samplers that produced a sample
  size_t sampler_failures = 0;
};

/// Linear sketch over squash(X_G) for order-3 or order-4 patterns.
class SubgraphSketch {
 public:
  /// `order` ∈ {3, 4}; `num_samplers` plays the role of ε⁻² log δ⁻¹.
  /// Per-edge update cost is Θ(C(n-2, order-2) · num_samplers) — the price
  /// of a genuinely linear measurement over all C(n, order) columns.
  SubgraphSketch(NodeId n, uint32_t order, uint32_t num_samplers,
                 uint32_t repetitions, uint64_t seed);

  /// Applies one stream token (simple graphs: multiplicities in {0,1}).
  void Update(NodeId u, NodeId v, int64_t delta);

  /// Endpoint half of one token, driver-compatible: the half owned by
  /// min(u, v) applies the whole token, the other half is a no-op, so the
  /// two halves still compose to Update. Unlike the node-incidence
  /// sketches, columns are k-subsets shared across endpoints — the halves
  /// do NOT touch disjoint state, so this sketch is not safe for
  /// multi-worker endpoint-sharded ingestion (drive it with one worker).
  void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v, int64_t delta) {
    if (endpoint == (u < v ? u : v)) Update(u, v, delta);
  }

  /// Adds another sketch with identical parameterization.
  void Merge(const SubgraphSketch& other);

  /// The first measurement parameter in which `other` differs (a field
  /// name such as "seed"), or nullptr when the two measure identically
  /// and Merge may add them.
  const char* MismatchWith(const SubgraphSketch& other) const {
    if (n_ != other.n_) return "n";
    if (order_ != other.order_) return "order";
    if (columns_ != other.columns_) return "columns";
    const char* field = ListMismatch(samplers_, other.samplers_, "samplers");
    return field != nullptr ? field : support_.MismatchWith(other.support_);
  }

  /// Canonical codes of one sample per sampler (isomorphism classes of
  /// uniformly sampled non-empty induced subgraphs).
  std::vector<uint32_t> SampleCanonicalCodes() const;

  /// Estimates γ_H for the pattern with the given canonical code.
  SubgraphEstimate EstimateGamma(uint32_t canonical_code) const;

  /// Estimates the full isomorphism-class distribution in one decode.
  std::map<uint32_t, double> EstimateDistribution() const;

  /// Constant-factor estimate of the number of non-empty induced
  /// subgraphs (the denominator of γ_H) from a support estimator over the
  /// squash columns.
  uint64_t EstimateNonEmpty() const { return support_.Estimate(); }

  /// Estimate of the absolute COUNT of induced subgraphs isomorphic to the
  /// pattern: γ̂_H × |support| (footnote 1 of the paper: the triangle count
  /// T₃ relates to γ by the number of non-empty triples). Additive-ε in γ
  /// but only constant-factor in the support term — a trend/alarm signal,
  /// not an exact counter.
  double EstimateCount(uint32_t canonical_code) const {
    return EstimateGamma(canonical_code).gamma *
           static_cast<double>(EstimateNonEmpty());
  }

  uint32_t order() const { return order_; }
  uint64_t num_columns() const { return columns_; }
  uint32_t num_samplers() const {
    return static_cast<uint32_t>(samplers_.size());
  }
  size_t CellCount() const;

  /// Serializes the full sketch state (checkpoint payload format).
  void AppendTo(std::string* out) const;

  /// Parses a sketch back; nullopt on malformed input.
  static std::optional<SubgraphSketch> Deserialize(ByteReader* r);

  NodeId num_nodes() const { return n_; }

 private:
  SubgraphSketch(NodeId n, uint32_t order, uint64_t columns,
                 SupportEstimator support)
      : n_(n), order_(order), columns_(columns),
        support_(std::move(support)) {}

  NodeId n_;
  uint32_t order_;
  uint64_t columns_;
  std::vector<L0Sampler> samplers_;
  SupportEstimator support_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_CORE_SUBGRAPH_SKETCH_H_
