// MINCUT (Fig. 1 / Theorems 3.2, 3.6): single-pass (1+ε)-approximate
// global minimum cut for dynamic graph streams.
//
// Maintain the subsampling hierarchy G_0 ⊇ G_1 ⊇ ... with a k-EDGECONNECT
// witness per level, k = O(ε⁻² log n). Post-processing finds the first
// level j whose witness min cut drops below k and reports 2^j · λ(H_j):
// Karger's uniform-sampling lemma (Lemma 3.1) guarantees the rescaled cut
// approximates λ(G).
//
// The hierarchy is the SubsampledLevels shared with Figs. 2 and 3
// (src/core/sampling_levels.h); this family adds only its k formula, seed
// tag, magic and the Estimate decoder.
#ifndef GRAPHSKETCH_SRC_CORE_MIN_CUT_H_
#define GRAPHSKETCH_SRC_CORE_MIN_CUT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/k_edge_connect.h"
#include "src/core/sampling_levels.h"
#include "src/graph/graph.h"

namespace gsketch {

/// Tuning knobs for MinCutSketch. The paper's constant in
/// k = O(ε⁻² log n) is far too conservative to execute; `k_scale`
/// calibrates it. At the registry's k_scale 2 and ε = 0.5 the estimate
/// falls below λ/(1+ε) on complete-64 for 7 of 40 seeds (the FOUND line
/// on registered mincut in CHANGES.md).
struct MinCutOptions {
  double epsilon = 0.25;      ///< target approximation (1 ± ε)
  double k_scale = 2.0;       ///< k = ceil(k_scale · ε⁻² · log2 n)
  uint32_t max_level = 0;     ///< 0 = auto (2·log2 n)
  ForestOptions forest;       ///< per-layer forest parameters
};

/// Result of post-processing a MinCutSketch.
struct MinCutEstimate {
  double value = 0.0;            ///< estimated λ(G)
  uint32_t level = 0;            ///< the level j that resolved the cut
  std::vector<NodeId> side;      ///< one shore of the witness cut
  bool resolved = false;         ///< false if no level had λ(H_i) < k
};

/// Single-pass sketch for the (1+ε)-approximate minimum cut: the
/// subsampling hierarchy with one k-EDGECONNECT witness per level, whose
/// routing, Merge, CellCount and wire body it inherits.
class MinCutSketch : public SubsampledLevels<KEdgeConnectSketch> {
 public:
  MinCutSketch(NodeId n, const MinCutOptions& opt, uint64_t seed);

  /// Post-processing (Fig. 1 step 3): scans levels for the first witness
  /// with min cut below k.
  MinCutEstimate Estimate() const;

  /// Serializes the full sketch state, including the subsampling
  /// hierarchy's seed (checkpoint payload format).
  void AppendTo(std::string* out) const;

  /// Parses a sketch back; nullopt on malformed input.
  static std::optional<MinCutSketch> Deserialize(ByteReader* r);

 private:
  explicit MinCutSketch(SubsampledLevels levels)
      : SubsampledLevels(std::move(levels)) {}
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_CORE_MIN_CUT_H_
