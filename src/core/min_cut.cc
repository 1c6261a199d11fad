#include "src/core/min_cut.h"

#include <cassert>
#include <cmath>

#include "src/graph/stoer_wagner.h"
#include "src/hash/splitmix.h"

namespace gsketch {

namespace {
uint32_t Log2Ceil(NodeId n) {
  uint32_t lg = 0;
  while ((NodeId{1} << lg) < n && lg < 31) ++lg;
  return lg;
}
}  // namespace

MinCutSketch::MinCutSketch(NodeId n, const MinCutOptions& opt, uint64_t seed)
    : n_(n),
      k_(static_cast<uint32_t>(std::ceil(
          opt.k_scale * std::max<uint32_t>(Log2Ceil(n), 1) /
          (opt.epsilon * opt.epsilon)))),
      sampler_(opt.max_level == 0 ? SamplingLevels::DefaultMaxLevel(n)
                                  : opt.max_level,
               DeriveSeed(seed, 0x9c01u)) {
  k_ = std::max<uint32_t>(k_, 2);
  uint32_t num_levels = sampler_.max_level() + 1;
  levels_.reserve(num_levels);
  for (uint32_t i = 0; i < num_levels; ++i) {
    levels_.emplace_back(n, k_, opt.forest, DeriveSeed(seed, 0x9c02u + i));
  }
}

void MinCutSketch::Update(NodeId u, NodeId v, int64_t delta) {
  uint32_t deepest = sampler_.LevelOf(u, v);
  for (uint32_t i = 0; i <= deepest && i < levels_.size(); ++i) {
    levels_[i].Update(u, v, delta);
  }
}

void MinCutSketch::UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v,
                                  int64_t delta) {
  uint32_t deepest = sampler_.LevelOf(u, v);
  for (uint32_t i = 0; i <= deepest && i < levels_.size(); ++i) {
    levels_[i].UpdateEndpoint(endpoint, u, v, delta);
  }
}

void MinCutSketch::ApplyBatch(NodeId endpoint, Span<const NodeId> others,
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

void MinCutSketch::Merge(const MinCutSketch& other) {
  assert(levels_.size() == other.levels_.size() && k_ == other.k_);
  for (size_t i = 0; i < levels_.size(); ++i) levels_[i].Merge(other.levels_[i]);
}

MinCutEstimate MinCutSketch::Estimate() const {
  MinCutEstimate est;
  for (uint32_t i = 0; i < levels_.size(); ++i) {
    Graph witness = levels_[i].ExtractWitness();
    MinCutResult cut = StoerWagnerMinCut(witness);
    if (cut.value < static_cast<double>(k_)) {
      est.value = std::ldexp(cut.value, static_cast<int>(i));  // 2^i * λ(H_i)
      est.level = i;
      est.side = std::move(cut.side);
      est.resolved = true;
      return est;
    }
  }
  // Every level stayed k-connected (can only happen for extremely dense
  // graphs relative to the hierarchy depth); report the deepest level.
  Graph witness = levels_.back().ExtractWitness();
  MinCutResult cut = StoerWagnerMinCut(witness);
  est.value = std::ldexp(cut.value, static_cast<int>(levels_.size() - 1));
  est.level = static_cast<uint32_t>(levels_.size() - 1);
  est.side = std::move(cut.side);
  est.resolved = false;
  return est;
}

namespace {
constexpr uint32_t kMinCutMagic = 0x4d435554u;  // "TUCM"
}

void MinCutSketch::AppendTo(std::string* out) const {
  ByteWriter w(out);
  w.U32(kMinCutMagic);
  w.U32(n_);
  w.U32(k_);
  w.U32(sampler_.max_level());
  w.U64(sampler_.seed());
  w.U32(static_cast<uint32_t>(levels_.size()));
  for (const auto& level : levels_) level.AppendTo(out);
}

std::optional<MinCutSketch> MinCutSketch::Deserialize(ByteReader* r) {
  auto magic = r->U32();
  if (!magic || *magic != kMinCutMagic) return std::nullopt;
  auto n = r->U32();
  auto k = r->U32();
  auto max_level = r->U32();
  auto seed = r->U64();
  auto num_levels = r->U32();
  if (!n || !k || !max_level || !seed || !num_levels || *num_levels == 0 ||
      *num_levels > r->remaining() / KEdgeConnectSketch::kMinWireBytes) {
    return std::nullopt;  // including more levels than the bytes left hold
  }
  MinCutSketch sk(*n, *k, SamplingLevels(*max_level, *seed));
  sk.levels_.reserve(*num_levels);
  for (uint32_t i = 0; i < *num_levels; ++i) {
    auto level = KEdgeConnectSketch::Deserialize(r);
    if (!level || level->num_nodes() != *n) return std::nullopt;
    sk.levels_.push_back(std::move(*level));
  }
  return sk;
}

size_t MinCutSketch::CellCount() const {
  size_t total = 0;
  for (const auto& l : levels_) total += l.CellCount();
  return total;
}

}  // namespace gsketch
