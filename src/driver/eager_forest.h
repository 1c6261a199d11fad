// Eager exact connectivity fast path — the CCSketchAlg pre_insert trick.
//
// While a stream is insertion-only, an exact union-find (plus the spanning
// forest its successful unions trace) maintained inline at Push time
// answers `connected` / `components` queries EXACTLY, in O(α), with zero
// drain and zero snapshot cost: the sketch exists to survive deletions,
// and until one bites there is no reason to pay sketch decode latency.
//
// Exactness invariant (why the answers are exact, not just whp):
//   forest ⊆ current graph, and partition(forest) == partition(DSU).
// Insertions only grow the DSU partition toward the graph's. A deletion is
// harmless while it removes a parallel copy (edge multiplicity stays
// positive) or a never-inserted/non-forest edge whose remaining
// multiplicity is nonnegative — the forest stays inside the graph and
// still spans the same partition. The moment a deletion (a) drives any
// edge's multiplicity negative, or (b) zeroes the multiplicity of a FOREST
// edge, the invariant can break, and the structure invalidates itself
// permanently: callers fall back to the sketch path, which is the whole
// point of the AGM sketches. (Case (b) zeroing a NON-forest edge keeps the
// partition exact: the forest still certifies every DSU merge.)
//
// Threading: updated by the driver's producer thread only (same contract
// as SketchDriver::Push). Capture() runs at a quiescent point and returns
// an immutable EagerCut shared with query threads via shared_ptr. The
// mutex that hands the snapshot over provides the happens-before edge:
// QueryEngine::mu_ for a pinned query (the session path), or the
// SnapshotStore's when a reader resolves its latest capture.
#ifndef GRAPHSKETCH_SRC_DRIVER_EAGER_FOREST_H_
#define GRAPHSKETCH_SRC_DRIVER_EAGER_FOREST_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/graph/stream.h"
#include "src/graph/union_find.h"

namespace gsketch {

/// An immutable exact-connectivity capture: the DSU partition at one
/// stream position, flattened to a representative per node.
struct EagerCut {
  std::vector<uint32_t> root;  ///< root[u] = representative of u's set
  size_t components = 0;

  size_t num_nodes() const { return root.size(); }
  bool Connected(NodeId u, NodeId v) const { return root[u] == root[v]; }
};

/// The live producer-side structure. See the header comment for the
/// exactness and threading contracts.
class EagerForest {
 public:
  explicit EagerForest(NodeId n);

  /// Applies one stream token. O(α) amortized plus one hash-map probe.
  /// No-op once invalidated.
  void Apply(NodeId u, NodeId v, int64_t delta);

  /// True while the DSU partition is exactly the graph's partition.
  bool valid() const { return valid_; }

  NodeId num_nodes() const { return n_; }

  /// Tokens applied before the invalidating deletion (diagnostics).
  uint64_t applied() const { return applied_; }

  /// Flattens the current partition into an immutable cut; nullptr once
  /// invalidated. Producer-side only (path-compresses the DSU).
  std::shared_ptr<const EagerCut> Capture();

 private:
  struct EdgeState {
    int64_t mult = 0;    // signed multiplicity of this edge in the stream
    bool forest = false;  // a successful Union crossed this edge
  };

  void Invalidate();

  NodeId n_;
  bool valid_ = true;
  uint64_t applied_ = 0;
  UnionFind uf_;
  std::unordered_map<uint64_t, EdgeState> edges_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_DRIVER_EAGER_FOREST_H_
