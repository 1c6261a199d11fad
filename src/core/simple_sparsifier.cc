#include "src/core/simple_sparsifier.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/graph/gomory_hu.h"

namespace gsketch {

namespace {

constexpr uint32_t kSparsMagic = 0x53505346u;  // "FSPS"

// λ_e is an *edge-count* connectivity (Theorem 3.1 samples an unweighted
// graph); witnesses carry recovered multiplicities as weights, so strip
// them before cut computations.
Graph UnitWeights(const Graph& g) {
  Graph out(g.NumNodes());
  for (const auto& e : g.Edges()) out.AddEdge(e.u, e.v, 1.0);
  return out;
}

}  // namespace

SimpleSparsifier::SimpleSparsifier(NodeId n,
                                   const SimpleSparsifierOptions& opt,
                                   uint64_t seed)
    : SubsampledLevels(
          n,
          std::max<uint32_t>(
              opt.k_override != 0
                  ? opt.k_override
                  : static_cast<uint32_t>(std::ceil(
                        opt.k_scale *
                        static_cast<double>(CeilLog2(n) * CeilLog2(n)) /
                        (opt.epsilon * opt.epsilon))),
              2),
          opt.max_level, seed, /*tag=*/0x5501u, opt.forest) {}

std::vector<Graph> SimpleSparsifier::ExtractWitnesses() const {
  std::vector<Graph> witnesses;
  witnesses.reserve(num_levels());
  for (uint32_t i = 0; i < num_levels(); ++i) {
    witnesses.push_back(level(i).ExtractWitness());
  }
  return witnesses;
}

Graph SimpleSparsifier::Extract() const {
  std::vector<Graph> witnesses = ExtractWitnesses();

  // Per-level Gomory–Hu trees make the λ_e(H_i) queries O(n) each instead
  // of one max-flow per (edge, level).
  std::vector<GomoryHuTree> trees;
  trees.reserve(witnesses.size());
  for (const auto& w : witnesses) {
    trees.push_back(GomoryHuTree::Build(UnitWeights(w)));
  }

  // Candidate edges: anything that appeared in any witness, with its
  // recovered multiplicity (weight 1 for simple graphs).
  std::unordered_map<uint64_t, double> candidates;
  for (const auto& w : witnesses) {
    for (const auto& e : w.Edges()) {
      candidates.try_emplace(EdgeId(e.u, e.v), e.weight);
    }
  }

  Graph sparsifier(num_nodes());
  double kd = static_cast<double>(k());
  for (const auto& [id, mult] : candidates) {
    auto [u, v] = EdgeEndpoints(id);
    // Fig. 2 step 3: j = min{ i : λ_e(H_i) < k }.
    uint32_t j = static_cast<uint32_t>(witnesses.size());
    for (uint32_t i = 0; i < witnesses.size(); ++i) {
      if (trees[i].MinCutValue(u, v) < kd) {
        j = i;
        break;
      }
    }
    if (j == witnesses.size()) continue;  // never dropped below k: skip
    if (witnesses[j].HasEdge(u, v)) {
      sparsifier.AddEdge(u, v, std::ldexp(mult, static_cast<int>(j)));
    }
  }
  return sparsifier;
}

void SimpleSparsifier::AppendTo(std::string* out) const {
  AppendWire(kSparsMagic, out);
}

std::optional<SimpleSparsifier> SimpleSparsifier::Deserialize(ByteReader* r) {
  auto levels = ParseWire(kSparsMagic, r);
  if (!levels) return std::nullopt;
  return SimpleSparsifier(std::move(*levels));
}

}  // namespace gsketch
