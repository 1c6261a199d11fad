// k-EDGECONNECT (Theorem 2.3): a sketch whose decoded witness H contains
// every edge participating in a cut of size <= k, using O(kn polylog)
// space.
//
// Construction: k independent spanning-forest sketches of the same stream.
// Decoding peels forests F_1, F_2, ...: F_i is a spanning forest of
// G \ (F_1 ∪ ... ∪ F_{i-1}), obtained by *linearly cancelling* the earlier
// forests' edges from sketch i before extraction. H = F_1 ∪ ... ∪ F_k has
// <= k(n-1) edges and certifies k-edge-connectivity: a cut of value < k
// keeps all its edges in H, a cut of value >= k keeps at least k.
#ifndef GRAPHSKETCH_SRC_CORE_K_EDGE_CONNECT_H_
#define GRAPHSKETCH_SRC_CORE_K_EDGE_CONNECT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/spanning_forest.h"
#include "src/graph/graph.h"

namespace gsketch {

/// Sketch for the k-edge-connectivity witness of Theorem 2.3.
class KEdgeConnectSketch {
 public:
  /// Witness strength `k` over an n-node graph.
  KEdgeConnectSketch(NodeId n, uint32_t k, const ForestOptions& opt,
                     uint64_t seed);

  /// Applies one stream token to all k layers.
  void Update(NodeId u, NodeId v, int64_t delta);

  /// Endpoint half of one token across all k layers (see
  /// SpanningForestSketch::UpdateEndpoint).
  void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v, int64_t delta);

  /// Dense same-endpoint batch across all k layers; the edge ids are
  /// hashed once for the whole sketch (see SpanningForestSketch).
  void ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                  Span<const int64_t> deltas);

  /// ApplyBatch of a prologue already built (ForEachEdgeChunk).
  void ApplyBatch(NodeId endpoint, const UpdateBatch& batch);

  /// Adds another sketch with identical parameterization.
  void Merge(const KEdgeConnectSketch& other);

  /// The first measurement parameter in which `other` differs (a field
  /// name such as "seed"), or nullptr when the two measure identically
  /// and Merge may add them.
  const char* MismatchWith(const KEdgeConnectSketch& other) const {
    return n_ != other.n_ ? "n" : ListMismatch(layers_, other.layers_, "k");
  }

  /// Decodes the witness subgraph H = F_1 ∪ ... ∪ F_k. Edge weights carry
  /// recovered multiplicities (1 for simple graphs). Does not mutate the
  /// sketch.
  Graph ExtractWitness() const;

  /// Total 1-sparse cells (space proxy).
  size_t CellCount() const;

  /// Serializes the sketch (all k layers; checkpoint payload format).
  void AppendTo(std::string* out) const;

  /// Parses a sketch back; nullopt on malformed input.
  static std::optional<KEdgeConnectSketch> Deserialize(ByteReader* r);

  /// The smallest wire encoding: magic, n, k = 1 and one smallest layer.
  static constexpr uint64_t kMinWireBytes =
      12 + SpanningForestSketch::kMinWireBytes;

  uint32_t k() const { return static_cast<uint32_t>(layers_.size()); }
  NodeId num_nodes() const { return n_; }

 private:
  KEdgeConnectSketch() = default;
  NodeId n_ = 0;
  std::vector<SpanningForestSketch> layers_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_CORE_K_EDGE_CONNECT_H_
