#include "src/core/connectivity_suite.h"

#include <cassert>

#include "src/graph/stoer_wagner.h"
#include "src/hash/splitmix.h"

namespace gsketch {

ConnectivitySketch::ConnectivitySketch(NodeId n, const ForestOptions& opt,
                                       uint64_t seed)
    : forest_(n, opt, DeriveSeed(seed, 0xc011u)) {}

void ConnectivitySketch::Update(NodeId u, NodeId v, int64_t delta) {
  forest_.Update(u, v, delta);
}

void ConnectivitySketch::UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v,
                                        int64_t delta) {
  forest_.UpdateEndpoint(endpoint, u, v, delta);
}

void ConnectivitySketch::Merge(const ConnectivitySketch& other) {
  forest_.Merge(other.forest_);
}

namespace {
constexpr uint32_t kConnMagic = 0x434f4e4bu;  // "KNOC"
}

void ConnectivitySketch::AppendTo(std::string* out) const {
  ByteWriter w(out);
  w.U32(kConnMagic);
  forest_.AppendTo(out);
}

std::optional<ConnectivitySketch> ConnectivitySketch::Deserialize(
    ByteReader* r) {
  auto magic = r->U32();
  if (!magic || *magic != kConnMagic) return std::nullopt;
  auto forest = SpanningForestSketch::Deserialize(r);
  if (!forest) return std::nullopt;
  return ConnectivitySketch(std::move(*forest));
}

BipartitenessSketch::BipartitenessSketch(NodeId n, const ForestOptions& opt,
                                         uint64_t seed)
    : n_(n),
      base_(n, opt, DeriveSeed(seed, 0xb1b1u)),
      cover_(2 * n, opt, DeriveSeed(seed, 0xb1b2u)) {}

void BipartitenessSketch::Update(NodeId u, NodeId v, int64_t delta) {
  base_.Update(u, v, delta);
  // Double cover: (u, v+n) and (v, u+n).
  cover_.Update(u, v + n_, delta);
  cover_.Update(v, u + n_, delta);
}

void BipartitenessSketch::UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v,
                                         int64_t delta) {
  assert(endpoint == u || endpoint == v);
  NodeId other = endpoint == u ? v : u;
  base_.UpdateEndpoint(endpoint, u, v, delta);
  // Of the cover edges (u, v+n) and (v, u+n), stream node `endpoint` owns
  // cover nodes `endpoint` and `endpoint + n`: one endpoint of each.
  cover_.UpdateEndpoint(endpoint, endpoint, other + n_, delta);
  cover_.UpdateEndpoint(endpoint + n_, other, endpoint + n_, delta);
}

void BipartitenessSketch::ApplyBatch(NodeId endpoint,
                                     Span<const NodeId> others,
                                     Span<const int64_t> deltas) {
  assert(others.size() == deltas.size());
  base_.ApplyBatch(endpoint, others, deltas);
  // Cover edges (endpoint, other+n) and (other, endpoint+n): the endpoint
  // owns cover nodes `endpoint` and `endpoint+n`, one half of each edge.
  std::vector<NodeId> others_in_cover(others.size());
  for (size_t i = 0; i < others.size(); ++i) {
    others_in_cover[i] = others[i] + n_;
  }
  cover_.ApplyBatch(endpoint, others_in_cover, deltas);
  cover_.ApplyBatch(endpoint + n_, others, deltas);
}

void BipartitenessSketch::Merge(const BipartitenessSketch& other) {
  base_.Merge(other.base_);
  cover_.Merge(other.cover_);
}

bool BipartitenessSketch::IsBipartite() const {
  size_t cc = base_.CountComponents();
  size_t cc_cover = cover_.CountComponents();
  // Every bipartite component lifts to 2 cover components, every odd-cycle
  // component to 1.
  return cc_cover == 2 * cc;
}

namespace {
constexpr uint32_t kBipMagic = 0x42495054u;  // "TPIB"
}

void BipartitenessSketch::AppendTo(std::string* out) const {
  ByteWriter w(out);
  w.U32(kBipMagic);
  w.U32(n_);
  base_.AppendTo(out);
  cover_.AppendTo(out);
}

std::optional<BipartitenessSketch> BipartitenessSketch::Deserialize(
    ByteReader* r) {
  auto magic = r->U32();
  if (!magic || *magic != kBipMagic) return std::nullopt;
  auto n = r->U32();
  if (!n || *n == 0) return std::nullopt;
  auto base = SpanningForestSketch::Deserialize(r);
  if (!base || base->num_nodes() != *n) return std::nullopt;
  auto cover = SpanningForestSketch::Deserialize(r);
  if (!cover || cover->num_nodes() != 2 * *n) return std::nullopt;
  return BipartitenessSketch(*n, std::move(*base), std::move(*cover));
}

namespace {
std::vector<int64_t> GeometricThresholds(int64_t max_weight, double epsilon) {
  std::vector<int64_t> t;
  int64_t cur = 1;
  while (cur < max_weight) {
    t.push_back(cur);
    int64_t next = static_cast<int64_t>(
        static_cast<double>(cur) * (1.0 + epsilon));
    cur = next > cur ? next : cur + 1;
  }
  t.push_back(max_weight);
  return t;
}
}  // namespace

ApproxMstSketch::ApproxMstSketch(NodeId n, int64_t max_weight, double epsilon,
                                 const ForestOptions& opt, uint64_t seed)
    : n_(n), thresholds_(GeometricThresholds(max_weight, epsilon)) {
  forests_.reserve(thresholds_.size());
  for (size_t i = 0; i < thresholds_.size(); ++i) {
    forests_.emplace_back(n, opt, DeriveSeed(seed, 0x3057u + i));
  }
}

void ApproxMstSketch::Update(NodeId u, NodeId v, int64_t delta,
                             int64_t weight) {
  assert(weight >= 1 && weight <= thresholds_.back());
  // Feed every threshold subgraph G_{<= t} the edge belongs to.
  for (size_t i = 0; i < thresholds_.size(); ++i) {
    if (weight <= thresholds_[i]) forests_[i].Update(u, v, delta);
  }
}

void ApproxMstSketch::UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v,
                                     int64_t delta, int64_t weight) {
  assert(weight >= 1 && weight <= thresholds_.back());
  for (size_t i = 0; i < thresholds_.size(); ++i) {
    if (weight <= thresholds_[i]) {
      forests_[i].UpdateEndpoint(endpoint, u, v, delta);
    }
  }
}

void ApproxMstSketch::ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                                 Span<const int64_t> deltas) {
  // Weight-1 batches belong to every threshold subgraph G_{<= t}.
  ForEachEdgeChunk(endpoint, others, deltas, [&](const UpdateBatch& batch) {
    for (auto& forest : forests_) forest.ApplyBatch(endpoint, batch);
  });
}

namespace {
constexpr uint32_t kMstMagic = 0x4d535457u;  // "WTSM"
}

void ApproxMstSketch::AppendTo(std::string* out) const {
  ByteWriter w(out);
  w.U32(kMstMagic);
  w.U32(n_);
  w.U32(static_cast<uint32_t>(thresholds_.size()));
  for (int64_t t : thresholds_) w.I64(t);
  for (const auto& f : forests_) f.AppendTo(out);
}

std::optional<ApproxMstSketch> ApproxMstSketch::Deserialize(ByteReader* r) {
  auto magic = r->U32();
  if (!magic || *magic != kMstMagic) return std::nullopt;
  auto n = r->U32();
  auto count = r->U32();
  if (!n || !count || *count == 0) return std::nullopt;
  // Each threshold is an i64 with a forest after it: bound the count by
  // the bytes left before reserving.
  if (*count > r->remaining() / (sizeof(int64_t) +
                                 SpanningForestSketch::kMinWireBytes)) {
    return std::nullopt;
  }
  std::vector<int64_t> thresholds;
  thresholds.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto t = r->I64();
    if (!t || *t < 1) return std::nullopt;
    thresholds.push_back(*t);
  }
  std::vector<SpanningForestSketch> forests;
  forests.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto f = SpanningForestSketch::Deserialize(r);
    if (!f || f->num_nodes() != *n) return std::nullopt;
    forests.push_back(std::move(*f));
  }
  return ApproxMstSketch(*n, std::move(thresholds), std::move(forests));
}

void ApproxMstSketch::Merge(const ApproxMstSketch& other) {
  assert(thresholds_ == other.thresholds_);
  for (size_t i = 0; i < forests_.size(); ++i) {
    forests_[i].Merge(other.forests_[i]);
  }
}

double ApproxMstSketch::EstimateWeight() const {
  // Kruskal with weights rounded up to thresholds: the number of MST edges
  // of rounded weight t_i equals cc(G_{<= t_{i-1}}) - cc(G_{<= t_i}),
  // with cc(G_{<= t_{-1}}) = n.
  double total = 0.0;
  size_t prev_cc = n_;
  for (size_t i = 0; i < thresholds_.size(); ++i) {
    size_t cc = forests_[i].CountComponents();
    if (prev_cc > cc) {
      total += static_cast<double>(thresholds_[i]) *
               static_cast<double>(prev_cc - cc);
    }
    prev_cc = cc;
  }
  return total;
}

size_t ApproxMstSketch::CellCount() const {
  size_t total = 0;
  for (const auto& f : forests_) total += f.CellCount();
  return total;
}

KConnectivityTester::KConnectivityTester(NodeId n, uint32_t k,
                                         const ForestOptions& opt,
                                         uint64_t seed)
    : k_(k), witness_(n, k, opt, DeriveSeed(seed, 0x6c0du)) {}

void KConnectivityTester::Update(NodeId u, NodeId v, int64_t delta) {
  witness_.Update(u, v, delta);
}

void KConnectivityTester::UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v,
                                         int64_t delta) {
  witness_.UpdateEndpoint(endpoint, u, v, delta);
}

void KConnectivityTester::Merge(const KConnectivityTester& other) {
  witness_.Merge(other.witness_);
}

namespace {
constexpr uint32_t kKConnMagic = 0x4b435453u;  // "STCK"
}

void KConnectivityTester::AppendTo(std::string* out) const {
  ByteWriter w(out);
  w.U32(kKConnMagic);
  w.U32(k_);
  witness_.AppendTo(out);
}

std::optional<KConnectivityTester> KConnectivityTester::Deserialize(
    ByteReader* r) {
  auto magic = r->U32();
  if (!magic || *magic != kKConnMagic) return std::nullopt;
  auto k = r->U32();
  if (!k) return std::nullopt;
  // The writer gives the tester its witness's k; any other header k
  // tests a strength the witness cannot certify.
  auto witness = KEdgeConnectSketch::Deserialize(r);
  if (!witness || witness->k() != *k) return std::nullopt;
  return KConnectivityTester(*k, std::move(*witness));
}

double KConnectivityTester::WitnessMinCut() const {
  Graph h = witness_.ExtractWitness();
  if (h.NumEdges() == 0) return 0.0;
  // Witness weights carry multiplicities; connectivity is edge-count
  // based, so strip them.
  Graph unit(h.NumNodes());
  for (const auto& e : h.Edges()) unit.AddEdge(e.u, e.v, 1.0);
  return StoerWagnerMinCut(unit).value;
}

bool KConnectivityTester::IsKConnected() const {
  return WitnessMinCut() >= static_cast<double>(k_);
}

}  // namespace gsketch
