#include "src/core/spanning_forest.h"

#include <cassert>
#include <cmath>
#include <cstdlib>

#include "src/graph/union_find.h"
#include "src/hash/splitmix.h"

namespace gsketch {

namespace {
uint32_t AutoRounds(NodeId n) {
  uint32_t r = 2;
  while ((NodeId{1} << (r - 2)) < n && r < 34) ++r;
  return r;
}
}  // namespace

SpanningForestSketch::SpanningForestSketch(NodeId n, const ForestOptions& opt,
                                           uint64_t seed)
    : n_(n) {
  uint32_t rounds = opt.rounds == 0 ? AutoRounds(n) : opt.rounds;
  banks_.reserve(rounds);
  for (uint32_t r = 0; r < rounds; ++r) {
    banks_.emplace_back(n, opt.repetitions, DeriveSeed(seed, 0xb0b0u + r));
  }
}

void SpanningForestSketch::Update(NodeId u, NodeId v, int64_t delta) {
  for (auto& bank : banks_) bank.Update(u, v, delta);
}

void SpanningForestSketch::UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v,
                                          int64_t delta) {
  for (auto& bank : banks_) bank.UpdateEndpoint(endpoint, u, v, delta);
}

void SpanningForestSketch::ApplyBatch(NodeId endpoint,
                                      Span<const NodeId> others,
                                      Span<const int64_t> deltas) {
  ForEachEdgeChunk(endpoint, others, deltas, [&](const UpdateBatch& batch) {
    ApplyBatch(endpoint, batch);
  });
}

void SpanningForestSketch::ApplyBatch(NodeId endpoint,
                                      const UpdateBatch& batch) {
  for (auto& bank : banks_) bank.ApplyBatch(endpoint, batch);
}

void SpanningForestSketch::Merge(const SpanningForestSketch& other) {
  assert(banks_.size() == other.banks_.size());
  for (size_t i = 0; i < banks_.size(); ++i) banks_[i].Merge(other.banks_[i]);
}

Graph SpanningForestSketch::ExtractForest() const {
  Graph forest(n_);
  UnionFind uf(n_);
  // Component member lists, merged small-into-large.
  std::vector<std::vector<NodeId>> members(n_);
  for (NodeId v = 0; v < n_; ++v) members[v] = {v};

  for (const auto& bank : banks_) {
    if (uf.NumComponents() == 1) break;
    // One sample per live component from this round's fresh bank.
    struct Candidate {
      NodeId a, b;
      int64_t value;
    };
    std::vector<Candidate> picks;
    for (NodeId v = 0; v < n_; ++v) {
      if (uf.Find(v) != v) continue;
      L0Sampler sum = bank.SumOver(members[v]);
      auto sample = sum.Sample();
      if (!sample.has_value()) continue;
      auto [a, b] = EdgeEndpoints(sample->index);
      if (a >= n_ || b >= n_ || a == b) continue;  // decode glitch guard
      picks.push_back(Candidate{a, b, sample->value});
    }
    for (const auto& c : picks) {
      size_t ra = uf.Find(c.a), rb = uf.Find(c.b);
      if (ra == rb) continue;
      uf.Union(c.a, c.b);
      size_t winner = uf.Find(c.a);
      size_t loser = winner == ra ? rb : ra;
      members[winner].insert(members[winner].end(), members[loser].begin(),
                             members[loser].end());
      members[loser].clear();
      forest.AddEdge(c.a, c.b, static_cast<double>(std::llabs(c.value)));
    }
  }
  return forest;
}

size_t SpanningForestSketch::CountComponents() const {
  Graph forest = ExtractForest();
  return forest.NumComponents();
}

void SpanningForestSketch::DeleteEdges(const std::vector<WeightedEdge>& edges) {
  for (const auto& e : edges) {
    Update(e.u, e.v, -static_cast<int64_t>(e.weight));
  }
}

size_t SpanningForestSketch::CellCount() const {
  size_t total = 0;
  for (const auto& bank : banks_) total += bank.CellCount();
  return total;
}

void SpanningForestSketch::AppendTo(std::string* out) const {
  ByteWriter w(out);
  w.U32(0x53464b53u);  // "SFKS"
  w.U32(n_);
  w.U32(static_cast<uint32_t>(banks_.size()));
  for (const auto& bank : banks_) bank.AppendTo(out);
}

std::optional<SpanningForestSketch> SpanningForestSketch::Deserialize(
    ByteReader* r) {
  auto magic = r->U32();
  if (!magic || *magic != 0x53464b53u) return std::nullopt;
  auto n = r->U32();
  auto rounds = r->U32();
  if (!n || !rounds) return std::nullopt;
  // Each round's bank holds at least its node count and, per node, one
  // sampler header (magic, domain, repetitions, seed) and one cell: bound
  // `rounds` by that before reserving.
  const uint64_t min_bank_bytes =
      4 + uint64_t{*n} * (kL0HeaderBytes + sizeof(OneSparseCell));
  if (*rounds > r->remaining() / min_bank_bytes) return std::nullopt;
  SpanningForestSketch sk;
  sk.n_ = *n;
  sk.banks_.reserve(*rounds);
  for (uint32_t i = 0; i < *rounds; ++i) {
    auto bank = NodeL0Bank::Deserialize(r);
    if (!bank || bank->num_nodes() != *n) return std::nullopt;
    sk.banks_.push_back(std::move(*bank));
  }
  return sk;
}

}  // namespace gsketch
