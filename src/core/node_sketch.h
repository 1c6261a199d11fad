// Per-node edge-incidence vector sketches — the graph-to-vector encoding of
// Eq. (1) of the paper. Node u's vector x^u over the C(n,2) edge slots has
//     x^u[(v,w)] = +1 if u == v,  -1 if u == w   (for v < w, edge present)
// so that for any node set A, Σ_{u∈A} x^u is supported exactly on the edges
// crossing (A, V \ A): edges inside A cancel. Every bank below applies the
// *same* linear measurement (same seed) to every node, which is what makes
// the component-sum trick work.
//
// Storage: each bank owns ONE logically contiguous OneSparseCell arena
// holding every node's cells back to back (node u's sampler occupies the
// stride-sized slice starting at u * stride), physically held as
// copy-on-write pages (src/sketch/cow_arena.h). The hot path `Update`
// touches two arena slices resolved by pointer arithmetic plus one epoch
// compare; copying a bank — which is how snapshots are published — shares
// every page and costs O(pages) instead of a deep clone, with the first
// post-snapshot write to a page paying a single ~64 KiB first-touch copy.
// Batches: every bank apply starts from one per-batch prologue
// (ForEachEdgeChunk: edge ids, incidence-signed deltas, their products
// and an all-unit flag in a stack UpdateBatch), built once and shared by
// every bank of a composite sketch, so a default 4 KiB gutter batch
// costs one `l0_rep` kernel call per repetition and nothing else per
// bank.
// Per-node access hands out lightweight views (L0SamplerView /
// SparseRecoveryView) over arena slices; the cells and the serialized
// bytes are bit-identical to the historical flat-arena and per-node
// layouts (tests/parity_test.cc proves this against a reference
// implementation; tests/golden_serde_test.cc locks the wire format).
#ifndef GRAPHSKETCH_SRC_CORE_NODE_SKETCH_H_
#define GRAPHSKETCH_SRC_CORE_NODE_SKETCH_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/span.h"
#include "src/graph/edge_id.h"
#include "src/sketch/cow_arena.h"
#include "src/sketch/l0_sampler.h"
#include "src/sketch/sparse_recovery.h"

namespace gsketch {

/// The signed delta edge (u,v) contributes to node `node`'s vector.
inline int64_t IncidenceSign(NodeId node, NodeId u, NodeId v) {
  NodeId lo = u < v ? u : v;
  return node == lo ? +1 : -1;
}

/// The per-batch prologue of every bank apply: builds the UpdateBatch of a
/// dense same-endpoint batch — edge {endpoint, others[i]} += deltas[i], as
/// edge ids, incidence-signed deltas and their products — and hands it to
/// fn(UpdateBatch&), one chunk of at most UpdateBatch::kMaxIds updates at
/// a time (a default 4 KiB gutter's 341 entries are one chunk). Composite
/// sketches (forest rounds, k-EDGECONNECT layers, subsampling levels)
/// build it once and apply it to every bank; it lives on the stack.
template <typename Fn>
void ForEachEdgeChunk(NodeId endpoint, Span<const NodeId> others,
                      Span<const int64_t> deltas, Fn&& fn) {
  assert(others.size() == deltas.size());
  UpdateBatch batch;
  for (size_t start = 0; start < others.size();
       start += UpdateBatch::kMaxIds) {
    const size_t end = std::min(others.size(), start + UpdateBatch::kMaxIds);
    batch.Clear();
    for (size_t i = start; i < end; ++i) {
      batch.Push(EdgeId(endpoint, others[i]),
                 deltas[i] * IncidenceSign(endpoint, endpoint, others[i]));
    }
    fn(batch);
  }
}

/// The first measurement parameter in which two lists of parts differ:
/// `count_field` when their lengths do, else the first part's
/// MismatchWith; nullptr when every part measures identically.
template <typename Part>
const char* ListMismatch(const std::vector<Part>& a,
                         const std::vector<Part>& b, const char* count_field) {
  if (a.size() != b.size()) return count_field;
  for (size_t i = 0; i < a.size(); ++i) {
    if (const char* field = a[i].MismatchWith(b[i])) return field;
  }
  return nullptr;
}

/// The edge ids and incidence-signed deltas of a dense same-endpoint batch
/// as two vectors, for callers outside the apply path (perfbench's and
/// E16's layer probes time the kernels on them).
inline void BatchEdgeIds(NodeId endpoint, Span<const NodeId> others,
                         Span<const int64_t> deltas,
                         std::vector<uint64_t>* ids,
                         std::vector<int64_t>* signed_deltas) {
  ids->resize(others.size());
  signed_deltas->resize(others.size());
  for (size_t i = 0; i < others.size(); ++i) {
    (*ids)[i] = EdgeId(endpoint, others[i]);
    (*signed_deltas)[i] =
        deltas[i] * IncidenceSign(endpoint, endpoint, others[i]);
  }
}

/// A bank of n ℓ₀-samplers, one per node, over the edge-slot domain, all
/// sharing one measurement seed. All cells live in one bank-owned arena.
class NodeL0Bank {
 public:
  /// Bank for an n-node graph; `repetitions` per sampler.
  NodeL0Bank(NodeId n, uint32_t repetitions, uint64_t seed);

  /// Applies one stream token (u, v, delta) to both endpoint vectors. The
  /// per-repetition hashes are computed once and applied to both arena
  /// slices.
  void Update(NodeId u, NodeId v, int64_t delta);

  /// Applies only the half of the token that lands in `endpoint`'s vector
  /// (`endpoint` must be u or v). Update(u,v,d) ==
  /// UpdateEndpoint(u,u,v,d); UpdateEndpoint(v,u,v,d), which lets callers
  /// shard a stream by endpoint: workers owning disjoint node sets touch
  /// disjoint arena slices and may run concurrently without locks.
  void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v, int64_t delta);

  /// Applies a dense batch of half-updates all owned by `endpoint` (the
  /// gutter-flush fast path): edge {endpoint, others[i]} += deltas[i].
  /// Bit-identical to per-update UpdateEndpoint calls (cell sums commute).
  void ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                  Span<const int64_t> deltas);

  /// ApplyBatch of a prologue already built (ForEachEdgeChunk), so
  /// composite sketches build it once for every bank sharing the
  /// endpoint: the endpoint's arena slice is resolved once and each
  /// repetition is one kernel call (L0CellsApply).
  void ApplyBatch(NodeId endpoint, const UpdateBatch& batch) {
    L0CellsApply(params_, arena_.MutableSlice(endpoint), batch);
  }

  /// View of a single node's sampler. On a quiescent bank (snapshots,
  /// drained drivers) the view is stable; on a live bank a concurrent
  /// writer's first-touch page clone invalidates it.
  L0SamplerView Of(NodeId u) const {
    return L0SamplerView(&params_, arena_.Slice(u));
  }

  /// Sketch of Σ_{u∈nodes} x^u: supported on the edges leaving `nodes`.
  L0Sampler SumOver(const std::vector<NodeId>& nodes) const;

  /// Adds another bank with identical parameterization (distributed merge).
  void Merge(const NodeL0Bank& other);

  /// The first measurement parameter in which `other` differs (a field
  /// name such as "seed"), or nullptr when the two measure identically
  /// and Merge may add them.
  const char* MismatchWith(const NodeL0Bank& other) const {
    return n_ != other.n_ ? "n" : params_.MismatchWith(other.params_);
  }

  /// Total 1-sparse cells (space proxy).
  size_t CellCount() const { return arena_.size(); }

  /// Heap bytes reachable from the bank (shared COW pages counted once).
  size_t ArenaBytes() const { return arena_.ResidentBytes(); }

  /// The underlying COW page store (snapshot-sharing stats).
  const CowCellArena& arena() const { return arena_; }

  /// Serializes the full bank (Sec 1.1 wire format; byte-compatible with
  /// the historical per-node-sampler encoding).
  void AppendTo(std::string* out) const;

  /// Parses a bank back; nullopt on malformed input or if the per-node
  /// records disagree on parameters (one shared measurement is an
  /// invariant of every writer).
  static std::optional<NodeL0Bank> Deserialize(ByteReader* r);

  NodeId num_nodes() const { return n_; }
  const L0Params& params() const { return params_; }

 private:
  NodeL0Bank() = default;

  NodeId n_ = 0;
  L0Params params_;
  size_t stride_ = 0;  // cells per node = params_.CellsPerSampler()
  CowCellArena arena_;  // n_ slices of stride_ cells, COW-paged
};

/// A bank of n k-RECOVERY sketches, one per node, over the edge-slot
/// domain, sharing one measurement seed (Fig. 3 step 3b). Arena-backed
/// like NodeL0Bank.
class NodeRecoveryBank {
 public:
  /// Bank for an n-node graph; each sketch recovers up to `capacity`
  /// crossing edges with `rows` hash rows.
  NodeRecoveryBank(NodeId n, uint32_t capacity, uint32_t rows, uint64_t seed);

  /// Applies one stream token to both endpoint vectors.
  void Update(NodeId u, NodeId v, int64_t delta);

  /// Endpoint half of one token (see NodeL0Bank::UpdateEndpoint).
  void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v, int64_t delta);

  /// Dense same-endpoint batch (see NodeL0Bank::ApplyBatch).
  void ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                  Span<const int64_t> deltas);

  /// ApplyBatch of a prologue already built (ForEachEdgeChunk).
  void ApplyBatch(NodeId endpoint, const UpdateBatch& batch) {
    RecoveryCellsUpdateBatch(params_, arena_.MutableSlice(endpoint),
                             batch.ids, batch.deltas, batch.count);
  }

  /// View of a single node's sketch (stable on quiescent banks; see
  /// NodeL0Bank::Of).
  SparseRecoveryView Of(NodeId u) const {
    return SparseRecoveryView(&params_, arena_.Slice(u));
  }

  /// Sketch of Σ_{u∈nodes} x^u (Fig. 3 step 4c): decoding it recovers all
  /// edges crossing the cut, if at most `capacity` of them.
  SparseRecovery SumOver(const std::vector<NodeId>& nodes) const;

  /// Adds another bank with identical parameterization.
  void Merge(const NodeRecoveryBank& other);

  /// The first measurement parameter in which `other` differs (a field
  /// name such as "seed"), or nullptr when the two measure identically
  /// and Merge may add them.
  const char* MismatchWith(const NodeRecoveryBank& other) const {
    return n_ != other.n_ ? "n" : params_.MismatchWith(other.params_);
  }

  /// Total 1-sparse cells (space proxy).
  size_t CellCount() const { return arena_.size(); }

  /// Heap bytes reachable from the bank (shared COW pages counted once).
  size_t ArenaBytes() const { return arena_.ResidentBytes(); }

  /// The underlying COW page store (snapshot-sharing stats).
  const CowCellArena& arena() const { return arena_; }

  NodeId num_nodes() const { return n_; }
  const RecoveryParams& params() const { return params_; }

 private:
  NodeId n_ = 0;
  RecoveryParams params_;
  size_t stride_ = 0;  // cells per node = params_.CellsPerSketch()
  CowCellArena arena_;  // n_ slices of stride_ cells, COW-paged
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_CORE_NODE_SKETCH_H_
