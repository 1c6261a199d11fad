#include "src/core/k_edge_connect.h"

#include <cassert>

#include "src/hash/splitmix.h"

namespace gsketch {

KEdgeConnectSketch::KEdgeConnectSketch(NodeId n, uint32_t k,
                                       const ForestOptions& opt, uint64_t seed)
    : n_(n) {
  layers_.reserve(k);
  for (uint32_t i = 0; i < k; ++i) {
    layers_.emplace_back(n, opt, DeriveSeed(seed, 0x6ed6e0u + i));
  }
}

void KEdgeConnectSketch::Update(NodeId u, NodeId v, int64_t delta) {
  for (auto& layer : layers_) layer.Update(u, v, delta);
}

void KEdgeConnectSketch::UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v,
                                        int64_t delta) {
  for (auto& layer : layers_) layer.UpdateEndpoint(endpoint, u, v, delta);
}

void KEdgeConnectSketch::ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                                    Span<const int64_t> deltas) {
  ForEachEdgeChunk(endpoint, others, deltas, [&](const UpdateBatch& batch) {
    ApplyBatch(endpoint, batch);
  });
}

void KEdgeConnectSketch::ApplyBatch(NodeId endpoint,
                                    const UpdateBatch& batch) {
  for (auto& layer : layers_) layer.ApplyBatch(endpoint, batch);
}

void KEdgeConnectSketch::Merge(const KEdgeConnectSketch& other) {
  assert(layers_.size() == other.layers_.size());
  for (size_t i = 0; i < layers_.size(); ++i) layers_[i].Merge(other.layers_[i]);
}

Graph KEdgeConnectSketch::ExtractWitness() const {
  // Work on copies so decoding stays const; peel forests layer by layer.
  std::vector<SpanningForestSketch> work = layers_;
  Graph witness(n_);
  for (size_t i = 0; i < work.size(); ++i) {
    Graph forest = work[i].ExtractForest();
    std::vector<WeightedEdge> forest_edges = forest.Edges();
    if (forest_edges.empty()) break;  // remaining layers see the same graph
    for (const auto& e : forest_edges) {
      witness.AddEdge(e.u, e.v, e.weight);
    }
    for (size_t j = i + 1; j < work.size(); ++j) {
      work[j].DeleteEdges(forest_edges);
    }
  }
  return witness;
}

namespace {
constexpr uint32_t kKEdgeMagic = 0x4b454353u;  // "KECS"
}

void KEdgeConnectSketch::AppendTo(std::string* out) const {
  ByteWriter w(out);
  w.U32(kKEdgeMagic);
  w.U32(n_);
  w.U32(static_cast<uint32_t>(layers_.size()));
  for (const auto& layer : layers_) layer.AppendTo(out);
}

std::optional<KEdgeConnectSketch> KEdgeConnectSketch::Deserialize(
    ByteReader* r) {
  auto magic = r->U32();
  if (!magic || *magic != kKEdgeMagic) return std::nullopt;
  auto n = r->U32();
  auto k = r->U32();
  if (!n || !k || *k == 0) return std::nullopt;
  // Bound k by the layers the bytes left can hold before reserving.
  if (*k > r->remaining() / SpanningForestSketch::kMinWireBytes) {
    return std::nullopt;
  }
  KEdgeConnectSketch sk;
  sk.n_ = *n;
  sk.layers_.reserve(*k);
  for (uint32_t i = 0; i < *k; ++i) {
    auto layer = SpanningForestSketch::Deserialize(r);
    if (!layer || layer->num_nodes() != *n) return std::nullopt;
    sk.layers_.push_back(std::move(*layer));
  }
  return sk;
}

size_t KEdgeConnectSketch::CellCount() const {
  size_t total = 0;
  for (const auto& layer : layers_) total += layer.CellCount();
  return total;
}

}  // namespace gsketch
