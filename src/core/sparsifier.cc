#include "src/core/sparsifier.h"

#include <algorithm>
#include <cmath>

#include "src/graph/gomory_hu.h"
#include "src/hash/splitmix.h"

namespace gsketch {

namespace {

SimpleSparsifierOptions RoughOptions(SimpleSparsifierOptions base) {
  base.epsilon = 0.5;  // the (1 ± 1/2) rough stage of Fig. 3 step 1
  return base;
}

}  // namespace

Sparsifier::Sparsifier(NodeId n, const SparsifierOptions& opt, uint64_t seed)
    : rough_(n, RoughOptions(opt.rough), DeriveSeed(seed, 0xf301u)),
      banks_(n,
             std::max<uint32_t>(
                 opt.k_override != 0
                     ? opt.k_override
                     : static_cast<uint32_t>(std::ceil(
                           opt.k_scale *
                           static_cast<double>(CeilLog2(n) * CeilLog2(n)) /
                           (opt.epsilon * opt.epsilon))),
                 4),
             opt.max_level, seed, /*tag=*/0xf302u, opt.rows) {}

void Sparsifier::Update(NodeId u, NodeId v, int64_t delta) {
  rough_.Update(u, v, delta);
  banks_.Update(u, v, delta);
}

void Sparsifier::Merge(const Sparsifier& other) {
  rough_.Merge(other.rough_);
  banks_.Merge(other.banks_);
}

Graph Sparsifier::Extract(SparsifierStats* stats) const {
  SparsifierStats local;
  const NodeId n = banks_.num_nodes();
  Graph sparsifier(n);

  // Step 1 (decode side): the rough (1 ± 1/2)-sparsifier.
  Graph rough = rough_.Extract();

  // Step 4: Gomory–Hu tree of the rough sparsifier.
  GomoryHuTree tree = GomoryHuTree::Build(rough);

  double kd = static_cast<double>(banks_.k());
  for (NodeId v : tree.EdgeList()) {
    ++local.cuts_processed;
    double w = tree.ParentWeight(v);

    // Step 4b: the cut's sampling level. The induced cut has true value
    // λ ∈ [2w/3, 2w] (rough stage is (1±1/2)); picking 2^j >= 3w/k makes
    // the expected number of G_j edges crossing it at most 2k/3, within
    // recovery capacity w.h.p., while keeping the sampling probability
    // proportional to k/λ_e as Theorem 3.1 requires. Cuts with w <= k/3
    // stay at level 0 and are reproduced exactly — mirroring Fig. 2, where
    // λ_e(H_0) < k freezes the edge at level 0.
    uint32_t j = 0;
    if (w > 0.0) {
      double target = 3.0 * w / kd;
      while ((1u << j) < target && j + 1 < banks_.num_levels()) ++j;
    }

    // Step 4c: sum the level-j node sketches over the cut side and decode
    // every crossing edge of G_j.
    std::vector<NodeId> side = tree.CutSide(v);
    SparseRecovery sum = banks_.level(j).SumOver(side);
    RecoveryResult rec = sum.Decode();
    if (!rec.ok) {
      ++local.recovery_failures;
      continue;
    }

    // Step 4d: keep a recovered edge only if *this* tree edge is the
    // minimum on its endpoints' tree path (i.e. this cut is the edge's own
    // approximate min cut), so each graph edge is claimed exactly once.
    for (const auto& [id, value] : rec.entries) {
      ++local.edges_recovered;
      auto [a, b] = EdgeEndpoints(id);
      if (a >= n || b >= n || a == b) continue;
      if (tree.MinEdgeOnPath(a, b) != v) continue;
      double mult = static_cast<double>(value < 0 ? -value : value);
      sparsifier.AddEdge(a, b, std::ldexp(mult, static_cast<int>(j)));
      ++local.edges_included;
    }
  }

  if (stats != nullptr) *stats = local;
  return sparsifier;
}

}  // namespace gsketch
