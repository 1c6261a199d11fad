// Sketch-based spanning forest — the connectivity primitive of the
// authors' earlier paper [4] that Theorem 2.3 builds on.
//
// One NodeL0Bank per Boruvka round. To extract, run Boruvka: in each round,
// sum the round's node sketches over every current component and ℓ₀-sample
// an outgoing edge (the component-sum is supported exactly on the
// component's cut, Eq. (1)); merge along sampled edges. O(log n) rounds
// connect every component w.h.p. Fresh sketches per round keep the sampled
// randomness independent of the (adaptively chosen) component structure.
#ifndef GRAPHSKETCH_SRC_CORE_SPANNING_FOREST_H_
#define GRAPHSKETCH_SRC_CORE_SPANNING_FOREST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/node_sketch.h"
#include "src/graph/graph.h"

namespace gsketch {

/// Parameters shared by the connectivity-based sketches.
struct ForestOptions {
  uint32_t rounds = 0;       ///< Boruvka rounds; 0 = auto (ceil(log2 n)+2).
  uint32_t repetitions = 6;  ///< ℓ₀-sampler repetitions per node per round.
};

/// Linear sketch from which a spanning forest of the streamed graph can be
/// extracted.
class SpanningForestSketch {
 public:
  SpanningForestSketch(NodeId n, const ForestOptions& opt, uint64_t seed);

  /// Applies one stream token.
  void Update(NodeId u, NodeId v, int64_t delta);

  /// Applies the half of one token owned by `endpoint` (u or v); the two
  /// endpoint halves compose to Update(u,v,delta). Calls for distinct
  /// endpoints touch disjoint sampler state, enabling lock-free sharded
  /// ingestion (src/driver/sketch_driver.h).
  void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v, int64_t delta);

  /// Applies a dense batch of half-updates all owned by `endpoint` —
  /// edge {endpoint, others[i]} += deltas[i] — building its prologue
  /// (ForEachEdgeChunk) once for every round bank. Bit-identical to
  /// per-update UpdateEndpoint calls.
  void ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                  Span<const int64_t> deltas);

  /// ApplyBatch of a prologue already built, shared across composite
  /// sketches' many forests.
  void ApplyBatch(NodeId endpoint, const UpdateBatch& batch);

  /// Adds another sketch with identical parameterization.
  void Merge(const SpanningForestSketch& other);

  /// The first measurement parameter in which `other` differs (a field
  /// name such as "seed"), or nullptr when the two measure identically
  /// and Merge may add them.
  const char* MismatchWith(const SpanningForestSketch& other) const {
    return n_ != other.n_ ? "n" : ListMismatch(banks_, other.banks_, "rounds");
  }

  /// Extracts a spanning forest. Edge weights carry the |aggregate value|
  /// of the sampled edge slot (the edge multiplicity, or the integer edge
  /// weight when callers encode weights as multiplicities). Does not mutate
  /// the sketch.
  Graph ExtractForest() const;

  /// Number of connected components implied by ExtractForest().
  size_t CountComponents() const;

  /// Applies a batch of edge deletions (used by k-EDGECONNECT peeling).
  /// `weight` entries give the multiplicity to remove per edge.
  void DeleteEdges(const std::vector<WeightedEdge>& edges);

  /// Total 1-sparse cells (space proxy).
  size_t CellCount() const;

  /// Serializes the sketch for shipping between sites (Sec 1.1).
  void AppendTo(std::string* out) const;

  /// Parses a sketch back; nullopt on malformed input.
  static std::optional<SpanningForestSketch> Deserialize(ByteReader* r);

  /// The smallest wire encoding: magic, n and a round count of zero.
  /// Containers divide the bytes left by it to bound a sketch count.
  static constexpr uint64_t kMinWireBytes = 12;

  NodeId num_nodes() const { return n_; }
  uint32_t rounds() const { return static_cast<uint32_t>(banks_.size()); }

 private:
  SpanningForestSketch() = default;
  NodeId n_ = 0;
  std::vector<NodeL0Bank> banks_;  // one per Boruvka round
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_CORE_SPANNING_FOREST_H_
