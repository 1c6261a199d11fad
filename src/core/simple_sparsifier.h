// SIMPLE-SPARSIFICATION (Fig. 2 / Theorem 3.3): a single-pass sketch from
// which an ε-cut-sparsifier (Definition 4) is decoded.
//
// The sketch is the same subsampling hierarchy as MINCUT but with the
// stronger witness threshold k = O(ε⁻² log² n). Post-processing (Fig. 2
// step 3): every edge e = (u,v) seen in some witness gets the level
// j = min{ i : λ_e(H_i) < k } — its connectivity-determined sampling depth
// — and enters the sparsifier with weight 2^j iff it survived to H_j. The
// martingale analysis (Lemma 3.5, via Azuma) replaces the independent-
// sampling bound of Fung et al. because "freezing" at level j depends on
// the earlier coins.
#ifndef GRAPHSKETCH_SRC_CORE_SIMPLE_SPARSIFIER_H_
#define GRAPHSKETCH_SRC_CORE_SIMPLE_SPARSIFIER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/k_edge_connect.h"
#include "src/core/sampling_levels.h"
#include "src/graph/graph.h"

namespace gsketch {

/// Tuning knobs for SimpleSparsifier. The theorem's k = O(ε⁻² log² n)
/// constant is execution-hostile; `k_scale` calibrates it. The stat
/// tier's sparsifier rows (tests/stat_cuts_test.cc) check the registered
/// defaults, which miss the ε = 0.5 cut bound on complete-32 (see
/// docs/TESTING.md).
struct SimpleSparsifierOptions {
  double epsilon = 0.5;     ///< target cut error (1 ± ε)
  double k_scale = 0.25;    ///< k = ceil(k_scale · ε⁻² · log2² n)
  uint32_t k_override = 0;  ///< if nonzero, use exactly this k
  uint32_t max_level = 0;   ///< 0 = auto (2·log2 n)
  ForestOptions forest;
};

/// Single-pass sketch decoding to an ε-sparsifier.
class SimpleSparsifier {
 public:
  SimpleSparsifier(NodeId n, const SimpleSparsifierOptions& opt,
                   uint64_t seed);

  /// Applies one stream token; routed to every level the edge survives to.
  void Update(NodeId u, NodeId v, int64_t delta);

  /// Endpoint half of one token. Level routing hashes the edge, not the
  /// endpoint, so both halves land on the same levels.
  void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v, int64_t delta);

  /// Dense same-endpoint batch: each update is routed to the levels its
  /// edge survives to (edge-hashed, so both halves agree), then each
  /// level absorbs its sub-batch in one pass.
  void ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                  Span<const int64_t> deltas);

  /// Adds another sketch with identical parameterization.
  void Merge(const SimpleSparsifier& other);

  /// Post-processing: decodes all witnesses, assigns per-edge levels via
  /// per-level Gomory–Hu trees, and returns the weighted sparsifier.
  Graph Extract() const;

  /// The per-level witnesses H_0, H_1, ... (exposed for diagnostics and
  /// for the rough-sparsifier stage of Fig. 3).
  std::vector<Graph> ExtractWitnesses() const;

  uint32_t k() const { return k_; }
  uint32_t num_levels() const { return static_cast<uint32_t>(levels_.size()); }
  size_t CellCount() const;

  /// Serializes the full sketch state, including the subsampling
  /// hierarchy's seed (checkpoint payload format).
  void AppendTo(std::string* out) const;

  /// Parses a sketch back; nullopt on malformed input.
  static std::optional<SimpleSparsifier> Deserialize(ByteReader* r);

  NodeId num_nodes() const { return n_; }

 private:
  SimpleSparsifier(NodeId n, uint32_t k, SamplingLevels sampler)
      : n_(n), k_(k), sampler_(sampler) {}

  NodeId n_;
  uint32_t k_;
  SamplingLevels sampler_;
  std::vector<KEdgeConnectSketch> levels_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_CORE_SIMPLE_SPARSIFIER_H_
