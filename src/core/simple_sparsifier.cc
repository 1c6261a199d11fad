#include "src/core/simple_sparsifier.h"

#include <cassert>
#include <cmath>
#include <unordered_map>

#include "src/graph/gomory_hu.h"
#include "src/hash/splitmix.h"

namespace gsketch {

namespace {

uint32_t Log2Ceil(NodeId n) {
  uint32_t lg = 0;
  while ((NodeId{1} << lg) < n && lg < 31) ++lg;
  return lg;
}

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
    : n_(n),
      k_(opt.k_override != 0
             ? opt.k_override
             : static_cast<uint32_t>(std::ceil(
                   opt.k_scale *
                   static_cast<double>(Log2Ceil(n) * Log2Ceil(n)) /
                   (opt.epsilon * opt.epsilon)))),
      sampler_(opt.max_level == 0 ? SamplingLevels::DefaultMaxLevel(n)
                                  : opt.max_level,
               DeriveSeed(seed, 0x5501u)) {
  k_ = std::max<uint32_t>(k_, 2);
  uint32_t num_levels = sampler_.max_level() + 1;
  levels_.reserve(num_levels);
  for (uint32_t i = 0; i < num_levels; ++i) {
    levels_.emplace_back(n, k_, opt.forest, DeriveSeed(seed, 0x5502u + i));
  }
}

void SimpleSparsifier::Update(NodeId u, NodeId v, int64_t delta) {
  uint32_t deepest = sampler_.LevelOf(u, v);
  for (uint32_t i = 0; i <= deepest && i < levels_.size(); ++i) {
    levels_[i].Update(u, v, delta);
  }
}

void SimpleSparsifier::UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v,
                                      int64_t delta) {
  uint32_t deepest = sampler_.LevelOf(u, v);
  for (uint32_t i = 0; i <= deepest && i < levels_.size(); ++i) {
    levels_[i].UpdateEndpoint(endpoint, u, v, delta);
  }
}

void SimpleSparsifier::ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                                  Span<const int64_t> deltas) {
  assert(others.size() == deltas.size());
  std::vector<uint64_t> ids;
  std::vector<int64_t> signed_deltas;
  BatchEdgeIds(endpoint, others, deltas, &ids, &signed_deltas);
  std::vector<uint32_t> deepest(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    deepest[i] = sampler_.LevelOfId(ids[i]);
  }
  // Level i's sub-batch is {updates with deepest >= i}; the survivor sets
  // are nested, so the first empty level ends the routing.
  std::vector<uint64_t> level_ids;
  std::vector<int64_t> level_deltas;
  for (uint32_t i = 0; i < levels_.size(); ++i) {
    level_ids.clear();
    level_deltas.clear();
    for (size_t j = 0; j < ids.size(); ++j) {
      if (deepest[j] >= i) {
        level_ids.push_back(ids[j]);
        level_deltas.push_back(signed_deltas[j]);
      }
    }
    if (level_ids.empty()) break;
    levels_[i].ApplyBatchIds(endpoint, level_ids.data(), level_deltas.data(),
                             level_ids.size());
  }
}

void SimpleSparsifier::Merge(const SimpleSparsifier& other) {
  assert(levels_.size() == other.levels_.size() && k_ == other.k_);
  for (size_t i = 0; i < levels_.size(); ++i) {
    levels_[i].Merge(other.levels_[i]);
  }
}

std::vector<Graph> SimpleSparsifier::ExtractWitnesses() const {
  std::vector<Graph> witnesses;
  witnesses.reserve(levels_.size());
  for (const auto& level : levels_) {
    witnesses.push_back(level.ExtractWitness());
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

  Graph sparsifier(n_);
  double kd = static_cast<double>(k_);
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

namespace {
constexpr uint32_t kSparsMagic = 0x53505346u;  // "FSPS"
}

void SimpleSparsifier::AppendTo(std::string* out) const {
  ByteWriter w(out);
  w.U32(kSparsMagic);
  w.U32(n_);
  w.U32(k_);
  w.U32(sampler_.max_level());
  w.U64(sampler_.seed());
  w.U32(static_cast<uint32_t>(levels_.size()));
  for (const auto& level : levels_) level.AppendTo(out);
}

std::optional<SimpleSparsifier> SimpleSparsifier::Deserialize(ByteReader* r) {
  auto magic = r->U32();
  if (!magic || *magic != kSparsMagic) return std::nullopt;
  auto n = r->U32();
  auto k = r->U32();
  auto max_level = r->U32();
  auto seed = r->U64();
  auto num_levels = r->U32();
  if (!n || !k || !max_level || !seed || !num_levels || *num_levels == 0 ||
      *num_levels > r->remaining() / KEdgeConnectSketch::kMinWireBytes) {
    return std::nullopt;  // including more levels than the bytes left hold
  }
  SimpleSparsifier sk(*n, *k, SamplingLevels(*max_level, *seed));
  sk.levels_.reserve(*num_levels);
  for (uint32_t i = 0; i < *num_levels; ++i) {
    auto level = KEdgeConnectSketch::Deserialize(r);
    if (!level || level->num_nodes() != *n) return std::nullopt;
    sk.levels_.push_back(std::move(*level));
  }
  return sk;
}

size_t SimpleSparsifier::CellCount() const {
  size_t total = 0;
  for (const auto& l : levels_) total += l.CellCount();
  return total;
}

}  // namespace gsketch
