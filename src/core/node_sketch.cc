#include "src/core/node_sketch.h"

#include <cassert>

namespace gsketch {

NodeL0Bank::NodeL0Bank(NodeId n, uint32_t repetitions, uint64_t seed)
    : n_(n),
      // Same seed for every node: one shared linear measurement matrix.
      params_(L0Params::Make(EdgeDomain(n), repetitions, seed)),
      stride_(params_.CellsPerSampler()),
      arena_(static_cast<size_t>(n), params_.CellsPerSampler()) {}

void NodeL0Bank::Update(NodeId u, NodeId v, int64_t delta) {
  assert(u != v);
  uint64_t id = EdgeId(u, v);
  L0CellsUpdateTwo(params_, arena_.MutableSlice(u), arena_.MutableSlice(v),
                   id, delta * IncidenceSign(u, u, v),
                   delta * IncidenceSign(v, u, v));
}

void NodeL0Bank::UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v,
                                int64_t delta) {
  assert(u != v && (endpoint == u || endpoint == v));
  L0CellsUpdate(params_, arena_.MutableSlice(endpoint), EdgeId(u, v),
                delta * IncidenceSign(endpoint, u, v));
}

void NodeL0Bank::ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                            Span<const int64_t> deltas) {
  ForEachEdgeChunk(endpoint, others, deltas, [&](const UpdateBatch& batch) {
    ApplyBatch(endpoint, batch);
  });
}

L0Sampler NodeL0Bank::SumOver(const std::vector<NodeId>& nodes) const {
  assert(!nodes.empty());
  L0Sampler acc = Of(nodes[0]).Materialize();
  for (size_t i = 1; i < nodes.size(); ++i) {
    const OneSparseCell* slice = arena_.Slice(nodes[i]);
    for (size_t c = 0; c < stride_; ++c) acc.cells_[c].Merge(slice[c]);
  }
  return acc;
}

void NodeL0Bank::Merge(const NodeL0Bank& other) {
  assert(n_ == other.n_ && params_ == other.params_);
  for (NodeId u = 0; u < n_; ++u) {
    OneSparseCell* dst = arena_.MutableSlice(u);
    const OneSparseCell* src = other.arena_.Slice(u);
    for (size_t c = 0; c < stride_; ++c) dst[c].Merge(src[c]);
  }
}

void NodeL0Bank::AppendTo(std::string* out) const {
  ByteWriter w(out);
  w.U32(n_);
  for (NodeId u = 0; u < n_; ++u) {
    L0CellsAppendTo(params_, arena_.Slice(u), out);
  }
}

std::optional<NodeL0Bank> NodeL0Bank::Deserialize(ByteReader* r) {
  auto n = r->U32();
  if (!n) return std::nullopt;
  NodeL0Bank bank;
  bank.n_ = *n;
  for (NodeId u = 0; u < bank.n_; ++u) {
    L0Params p;
    if (!L0ParseHeader(r, &p)) return std::nullopt;
    if (u == 0) {
      bank.params_ = p;
      bank.stride_ = p.CellsPerSampler();
      // Every node's cells must follow: bound n by what remains before
      // the arena is sized for it (stride >= 1, so the divisor is
      // nonzero).
      const size_t max_nodes =
          r->remaining() / (bank.stride_ * sizeof(OneSparseCell));
      if (bank.n_ > max_nodes) return std::nullopt;
      bank.arena_ = CowCellArena(static_cast<size_t>(bank.n_), bank.stride_);
    } else if (p != bank.params_) {
      return std::nullopt;
    }
    if (!ParseCells(r, bank.arena_.MutableSlice(u), bank.stride_)) {
      return std::nullopt;
    }
  }
  return bank;
}

NodeRecoveryBank::NodeRecoveryBank(NodeId n, uint32_t capacity, uint32_t rows,
                                   uint64_t seed)
    : n_(n),
      params_(RecoveryParams::Make(EdgeDomain(n), capacity, rows, seed)),
      stride_(params_.CellsPerSketch()),
      arena_(static_cast<size_t>(n), params_.CellsPerSketch()) {}

void NodeRecoveryBank::Update(NodeId u, NodeId v, int64_t delta) {
  assert(u != v);
  uint64_t id = EdgeId(u, v);
  RecoveryCellsUpdateTwo(params_, arena_.MutableSlice(u),
                         arena_.MutableSlice(v), id,
                         delta * IncidenceSign(u, u, v),
                         delta * IncidenceSign(v, u, v));
}

void NodeRecoveryBank::UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v,
                                      int64_t delta) {
  assert(u != v && (endpoint == u || endpoint == v));
  RecoveryCellsUpdate(params_, arena_.MutableSlice(endpoint), EdgeId(u, v),
                      delta * IncidenceSign(endpoint, u, v));
}

void NodeRecoveryBank::ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                                  Span<const int64_t> deltas) {
  ForEachEdgeChunk(endpoint, others, deltas, [&](const UpdateBatch& batch) {
    ApplyBatch(endpoint, batch);
  });
}

SparseRecovery NodeRecoveryBank::SumOver(
    const std::vector<NodeId>& nodes) const {
  assert(!nodes.empty());
  SparseRecovery acc = Of(nodes[0]).Materialize();
  for (size_t i = 1; i < nodes.size(); ++i) {
    const OneSparseCell* slice = arena_.Slice(nodes[i]);
    for (size_t c = 0; c < stride_; ++c) acc.cells_[c].Merge(slice[c]);
  }
  return acc;
}

void NodeRecoveryBank::Merge(const NodeRecoveryBank& other) {
  assert(n_ == other.n_ && params_ == other.params_);
  for (NodeId u = 0; u < n_; ++u) {
    OneSparseCell* dst = arena_.MutableSlice(u);
    const OneSparseCell* src = other.arena_.Slice(u);
    for (size_t c = 0; c < stride_; ++c) dst[c].Merge(src[c]);
  }
}

}  // namespace gsketch
