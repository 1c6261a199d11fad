// The dynamic-stream connectivity toolkit of Ahn-Guha-McGregor [4]
// ("Analyzing graph structure via linear measurements", SODA 2012) — the
// substrate this paper builds on (Sec 1.2, Thm 2.3). Everything is a thin
// composition of spanning-forest sketches:
//
//   * connectivity / component counting — one forest sketch;
//   * bipartiteness — the double-cover trick: G is bipartite iff its
//     bipartite double cover has exactly twice as many components;
//   * (1+ε)-approximate MST weight — Kruskal's identity
//       w(MST) = Σ_i (cc(G_{<=i}) - cc(G)) over weight thresholds,
//     evaluated at geometrically-spaced thresholds from per-threshold
//     forest sketches;
//   * k-edge-connectivity testing — min cut of the k-EDGECONNECT witness.
#ifndef GRAPHSKETCH_SRC_CORE_CONNECTIVITY_SUITE_H_
#define GRAPHSKETCH_SRC_CORE_CONNECTIVITY_SUITE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/k_edge_connect.h"
#include "src/core/spanning_forest.h"
#include "src/graph/graph.h"

namespace gsketch {

/// Single-pass connectivity for dynamic graph streams ([4]).
class ConnectivitySketch {
 public:
  ConnectivitySketch(NodeId n, const ForestOptions& opt, uint64_t seed);

  /// Applies one stream token.
  void Update(NodeId u, NodeId v, int64_t delta);

  /// Endpoint half of one token; the two halves compose to Update and
  /// distinct endpoints touch disjoint state (lock-free sharded ingestion,
  /// see src/driver/sketch_driver.h).
  void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v, int64_t delta);

  /// Dense same-endpoint batch (gutter flush): edge {endpoint, others[i]}
  /// += deltas[i]. Bit-identical to per-update UpdateEndpoint calls.
  void ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                  Span<const int64_t> deltas) {
    forest_.ApplyBatch(endpoint, others, deltas);
  }

  /// Adds another sketch with identical parameterization.
  void Merge(const ConnectivitySketch& other);

  /// The first measurement parameter in which `other` differs (a field
  /// name such as "seed"), or nullptr when the two measure identically
  /// and Merge may add them.
  const char* MismatchWith(const ConnectivitySketch& other) const {
    return forest_.MismatchWith(other.forest_);
  }

  /// Number of connected components (isolated nodes count).
  size_t NumComponents() const { return forest_.CountComponents(); }

  /// True iff the streamed graph is connected.
  bool IsConnected() const { return NumComponents() == 1; }

  /// A spanning forest witness.
  Graph Forest() const { return forest_.ExtractForest(); }

  /// The forest decode with the components it could not resolve: one
  /// decode serves every part of an answer.
  ForestDecode Decode() const { return forest_.Decode(); }

  size_t CellCount() const { return forest_.CellCount(); }

  /// Serializes the full sketch state (checkpoint payload format).
  void AppendTo(std::string* out) const;

  /// Parses a sketch back; nullopt on malformed input.
  static std::optional<ConnectivitySketch> Deserialize(ByteReader* r);

  NodeId num_nodes() const { return forest_.num_nodes(); }

 private:
  explicit ConnectivitySketch(SpanningForestSketch forest)
      : forest_(std::move(forest)) {}

  SpanningForestSketch forest_;
};

/// Single-pass bipartiteness testing via the double cover ([4]).
///
/// The double cover G' has nodes {v, v+n}; every edge (u,v) becomes
/// (u, v+n) and (v, u+n). A connected component of G is bipartite iff it
/// lifts to TWO components of G', so G is bipartite iff
/// cc(G') = 2·cc(G).
class BipartitenessSketch {
 public:
  BipartitenessSketch(NodeId n, const ForestOptions& opt, uint64_t seed);

  /// Applies one stream token.
  void Update(NodeId u, NodeId v, int64_t delta);

  /// Endpoint half of one token. Stream node e owns base sampler e plus
  /// cover samplers e and e+n, so distinct endpoints stay disjoint.
  void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v, int64_t delta);

  /// Dense same-endpoint batch: one base-bank batch plus the two cover
  /// halves the endpoint owns (cover nodes `endpoint` and `endpoint+n`).
  void ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                  Span<const int64_t> deltas);

  /// Adds another sketch with identical parameterization.
  void Merge(const BipartitenessSketch& other);

  /// The first measurement parameter in which `other` differs (a field
  /// name such as "seed"), or nullptr when the two measure identically
  /// and Merge may add them.
  const char* MismatchWith(const BipartitenessSketch& other) const {
    if (n_ != other.n_) return "n";
    const char* field = base_.MismatchWith(other.base_);
    return field != nullptr ? field : cover_.MismatchWith(other.cover_);
  }

  /// True iff the streamed graph is bipartite (w.h.p.).
  bool IsBipartite() const;

  size_t CellCount() const {
    return base_.CellCount() + cover_.CellCount();
  }

  /// Serializes the full sketch state (checkpoint payload format).
  void AppendTo(std::string* out) const;

  /// Parses a sketch back; nullopt on malformed input.
  static std::optional<BipartitenessSketch> Deserialize(ByteReader* r);

  NodeId num_nodes() const { return n_; }

 private:
  BipartitenessSketch(NodeId n, SpanningForestSketch base,
                      SpanningForestSketch cover)
      : n_(n), base_(std::move(base)), cover_(std::move(cover)) {}

  NodeId n_;
  SpanningForestSketch base_;   // G, on n nodes
  SpanningForestSketch cover_;  // double cover, on 2n nodes
};

/// Single-pass (1+ε)-approximate MST weight for integer edge weights in
/// [1, max_weight] ([4]). One forest sketch per geometric weight
/// threshold; weights are rounded UP to their threshold, so the estimate
/// overestimates by at most (1+ε) and never underestimates (up to forest
/// decode failures).
class ApproxMstSketch {
 public:
  ApproxMstSketch(NodeId n, int64_t max_weight, double epsilon,
                  const ForestOptions& opt, uint64_t seed);

  /// Applies one stream token for an edge of weight `weight` (constant
  /// across the edge's updates).
  void Update(NodeId u, NodeId v, int64_t delta, int64_t weight);

  /// Endpoint half of one token for an edge of weight `weight` (see
  /// ConnectivitySketch::UpdateEndpoint). The default weight 1 serves
  /// unweighted streams, where the estimate is the spanning-forest size.
  void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v, int64_t delta,
                      int64_t weight = 1);

  /// Dense same-endpoint batch of weight-1 (unweighted-stream) updates:
  /// every threshold forest absorbs the batch; the edge ids are hashed
  /// once for all thresholds.
  void ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                  Span<const int64_t> deltas);

  /// Adds another sketch with identical parameterization.
  void Merge(const ApproxMstSketch& other);

  /// The first measurement parameter in which `other` differs (a field
  /// name such as "seed"), or nullptr when the two measure identically
  /// and Merge may add them.
  const char* MismatchWith(const ApproxMstSketch& other) const {
    if (n_ != other.n_) return "n";
    if (thresholds_ != other.thresholds_) return "weight thresholds";
    return ListMismatch(forests_, other.forests_, "weight thresholds");
  }

  /// Estimated MST weight. For a disconnected graph this is the weight of
  /// the minimum spanning forest.
  double EstimateWeight() const;

  /// The weight thresholds in use (diagnostics).
  const std::vector<int64_t>& thresholds() const { return thresholds_; }

  size_t CellCount() const;

  /// Serializes the full sketch state (checkpoint payload format).
  void AppendTo(std::string* out) const;

  /// Parses a sketch back; nullopt on malformed input.
  static std::optional<ApproxMstSketch> Deserialize(ByteReader* r);

  NodeId num_nodes() const { return n_; }

 private:
  ApproxMstSketch(NodeId n, std::vector<int64_t> thresholds,
                  std::vector<SpanningForestSketch> forests)
      : n_(n),
        thresholds_(std::move(thresholds)),
        forests_(std::move(forests)) {}

  NodeId n_;
  std::vector<int64_t> thresholds_;           // ascending, last >= max_weight
  std::vector<SpanningForestSketch> forests_;  // G_{<= thresholds_[i]}
};

/// Single-pass k-edge-connectivity test ([4], Thm 2.3 application).
class KConnectivityTester {
 public:
  KConnectivityTester(NodeId n, uint32_t k, const ForestOptions& opt,
                      uint64_t seed);

  /// Applies one stream token.
  void Update(NodeId u, NodeId v, int64_t delta);

  /// Endpoint half of one token (see ConnectivitySketch::UpdateEndpoint).
  void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v, int64_t delta);

  /// Dense same-endpoint batch (see ConnectivitySketch::ApplyBatch).
  void ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                  Span<const int64_t> deltas) {
    witness_.ApplyBatch(endpoint, others, deltas);
  }

  /// Adds another sketch with identical parameterization.
  void Merge(const KConnectivityTester& other);

  /// The first measurement parameter in which `other` differs (a field
  /// name such as "seed"), or nullptr when the two measure identically
  /// and Merge may add them.
  const char* MismatchWith(const KConnectivityTester& other) const {
    return k_ != other.k_ ? "k" : witness_.MismatchWith(other.witness_);
  }

  /// True iff the streamed graph is k-edge-connected: the witness
  /// preserves all cuts below k, so its min cut is exact in that range.
  bool IsKConnected() const { return Certifies(WitnessMinCut()); }

  /// Exact min cut value when it is below k, otherwise a value >= k.
  double WitnessMinCut() const;

  /// True iff a witness min cut of `witness_cut` (WitnessMinCut(), decoded
  /// once by the caller) certifies k-edge-connectivity.
  bool Certifies(double witness_cut) const {
    return witness_cut >= static_cast<double>(k_);
  }

  size_t CellCount() const { return witness_.CellCount(); }

  /// Serializes the full tester state (checkpoint payload format).
  void AppendTo(std::string* out) const;

  /// Parses a tester back; nullopt on malformed input.
  static std::optional<KConnectivityTester> Deserialize(ByteReader* r);

  uint32_t k() const { return k_; }
  NodeId num_nodes() const { return witness_.num_nodes(); }

 private:
  KConnectivityTester(uint32_t k, KEdgeConnectSketch witness)
      : k_(k), witness_(std::move(witness)) {}

  uint32_t k_;
  KEdgeConnectSketch witness_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_CORE_CONNECTIVITY_SUITE_H_
