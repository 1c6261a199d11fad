// SPARSIFICATION (Fig. 3 / Theorems 3.4, 3.7): the paper's main result — a
// more space-efficient single-pass ε-sparsifier.
//
// Two conceptually-sequential stages, both fed in the same single pass:
//  1. a *rough* (1 ± 1/2)-sparsifier H via SIMPLE-SPARSIFICATION, used only
//     to estimate every edge connectivity within a constant factor;
//  2. per-level, per-node k-RECOVERY sketches of the Eq. (1) incidence
//     vectors x^{u,i} over the subsampled hierarchy G_0 ⊇ G_1 ⊇ ....
// Post-processing builds the Gomory–Hu tree T of H; every tree edge
// induces a cut C with approximate value w. The cut's sampling level j is
// chosen so G_j crosses C with ~k edges, which the *summed* node sketches
// Σ_{u∈A} k-RECOVERY(x^{u,j}) then recover exactly (Fig. 3 step 4c). The
// tree-path filter (step 4d) assigns each recovered edge to the unique cut
// that matches its own min cut, reproducing the per-edge sampling
// probabilities of Fig. 2 at lower sketch cost.
//
// Stage 2's hierarchy is a SubsampledLevels<NodeRecoveryBank>
// (src/core/sampling_levels.h), the same routing, Merge and CellCount as
// Figs. 1 and 2 over k-RECOVERY banks instead of k-EDGECONNECT witnesses.
#ifndef GRAPHSKETCH_SRC_CORE_SPARSIFIER_H_
#define GRAPHSKETCH_SRC_CORE_SPARSIFIER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/node_sketch.h"
#include "src/core/sampling_levels.h"
#include "src/core/simple_sparsifier.h"
#include "src/graph/graph.h"

namespace gsketch {

/// Tuning knobs for the Fig. 3 sparsifier.
struct SparsifierOptions {
  double epsilon = 0.5;     ///< target cut error of the final sparsifier
  double k_scale = 0.25;    ///< recovery capacity k = k_scale·ε⁻²·log2²n
  uint32_t k_override = 0;  ///< if nonzero, use exactly this capacity
  uint32_t rows = 3;        ///< k-RECOVERY hash rows
  uint32_t max_level = 0;   ///< 0 = auto (2·log2 n)
  /// The rough stage: fixed ε = 1/2 by construction; its own (smaller)
  /// witness threshold is configured here.
  SimpleSparsifierOptions rough;
};

/// Decode-time diagnostics (recovery failures indicate an undersized k).
struct SparsifierStats {
  size_t cuts_processed = 0;
  size_t recovery_failures = 0;
  size_t edges_recovered = 0;
  size_t edges_included = 0;
};

/// Single-pass sketch decoding to an ε-sparsifier (Fig. 3).
class Sparsifier {
 public:
  Sparsifier(NodeId n, const SparsifierOptions& opt, uint64_t seed);

  /// Applies one stream token to the rough stage and to every surviving
  /// level's node sketches.
  void Update(NodeId u, NodeId v, int64_t delta);

  /// Adds another sketch with identical parameterization.
  void Merge(const Sparsifier& other);

  /// Post-processing (Fig. 3 step 4). `stats` is optional.
  Graph Extract(SparsifierStats* stats = nullptr) const;

  uint32_t recovery_capacity() const { return banks_.k(); }
  uint32_t num_levels() const { return banks_.num_levels(); }
  size_t CellCount() const { return rough_.CellCount() + banks_.CellCount(); }

 private:
  SimpleSparsifier rough_;
  SubsampledLevels<NodeRecoveryBank> banks_;  // k-RECOVERY, one per level
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_CORE_SPARSIFIER_H_
