// Weighted-graph sparsification (Section 3.5 / Theorem 3.8).
//
// Integer edge weights in [1, W] are split into O(log W) weight classes
// [2^c, 2^{c+1}); each class runs its own unweighted sparsifier sketch
// (Lemma 3.6 shows a within-class weight spread of L = 2 costs only a
// constant factor in k), and the per-class sparsifiers merge by addition.
// Edge weights are carried through the sketches as multiplicities, so the
// decoded sparsifier reproduces true weights, not class representatives.
//
// Streamed (registry) form: the LinearSketch surface has no weight
// argument, and stream deltas are MULTIPLICITY deltas (tokens for one
// edge may arrive as +1, +1, -2 and must cancel), so the weight cannot
// ride on the delta — any routing keyed on |delta| is non-linear and
// breaks cancellation, gutter coalescing, and shard-merge parity.
// Registered ingestion instead fixes the weight STATICALLY per edge:
// weight(u, v) = 1 + (hash(edge) mod W), the same at every site by
// construction. Routing then depends only on (u, v), so the map stays
// linear in delta, and the token (u, v, d) composes to
// Update(u, v, d, weight(u, v)) exactly. This is a demonstration weight
// function — real weighted graphs enter through the 4-argument Update.
#ifndef GRAPHSKETCH_SRC_CORE_WEIGHTED_SPARSIFIER_H_
#define GRAPHSKETCH_SRC_CORE_WEIGHTED_SPARSIFIER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/simple_sparsifier.h"
#include "src/graph/graph.h"

namespace gsketch {

/// Single-pass sparsifier sketch for graphs with integer weights in
/// [1, max_weight].
class WeightedSparsifier {
 public:
  /// `opt` configures each per-class sparsifier; its k is doubled
  /// internally for the L = 2 within-class spread (Lemma 3.6).
  WeightedSparsifier(NodeId n, int64_t max_weight,
                     const SimpleSparsifierOptions& opt, uint64_t seed);

  /// Applies one stream token for an edge of weight `weight` (the weight
  /// must be identical across all updates of the same edge).
  void Update(NodeId u, NodeId v, int64_t delta, int64_t weight);

  /// The streamed form's per-edge weight: 1 + (hash{u, v} mod W). Pure in
  /// (u, v, max_weight) — no seed — so every shard, checkpoint, and the
  /// exact reference agree on it.
  static int64_t StreamWeight(NodeId u, NodeId v, int64_t max_weight);

  /// Endpoint half of one stream token (see the file comment): the edge's
  /// static StreamWeight picks the class and scales the delta, exactly
  /// Update(u, v, delta, StreamWeight(u, v)) split into halves. Linear in
  /// delta, so all ingestion paths compose byte-identically.
  void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v, int64_t delta);

  /// Dense same-endpoint batch of stream tokens: partitioned by weight
  /// class with deltas scaled by each edge's StreamWeight, each class
  /// absorbing its sub-batch through the class sparsifier's batch fast
  /// path. Bit-identical to the per-update UpdateEndpoint loop (classes
  /// are disjoint sketches; cell sums commute within one).
  void ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                  Span<const int64_t> deltas);

  /// Adds another sketch with identical parameterization.
  void Merge(const WeightedSparsifier& other);

  /// The first measurement parameter in which `other` differs (a field
  /// name such as "seed"), or nullptr when the two measure identically
  /// and Merge may add them.
  const char* MismatchWith(const WeightedSparsifier& other) const {
    if (n_ != other.n_) return "n";
    if (max_weight_ != other.max_weight_) return "max weight";
    return ListMismatch(classes_, other.classes_, "weight classes");
  }

  /// Decodes each class and merges the per-class sparsifiers.
  Graph Extract() const;

  /// Serializes the full sketch (magic + shape + every class payload).
  void AppendTo(std::string* out) const;

  /// Parses a sketch back; nullopt on malformed input.
  static std::optional<WeightedSparsifier> Deserialize(ByteReader* r);

  uint32_t num_classes() const {
    return static_cast<uint32_t>(classes_.size());
  }
  NodeId num_nodes() const { return n_; }
  int64_t max_weight() const { return max_weight_; }
  size_t CellCount() const;

 private:
  WeightedSparsifier(NodeId n, int64_t max_weight)
      : n_(n), max_weight_(max_weight) {}

  /// Weight class holding weight w (the c with 2^c <= w < 2^{c+1}),
  /// clamped to the top class.
  uint32_t ClassOf(int64_t weight) const;

  NodeId n_;
  int64_t max_weight_ = 1;
  std::vector<SimpleSparsifier> classes_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_CORE_WEIGHTED_SPARSIFIER_H_
