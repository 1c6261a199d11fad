// The nested edge-subsampling hierarchy shared by Figs. 1-3:
//     G = G_0 ⊇ G_1 ⊇ G_2 ⊇ ...,
// where G_i keeps edge e iff Π_{j<=i} h_j(e) = 1 for fair coins h_j. We
// realize the coin sequence as the bits of one hash word per edge, so the
// deepest level an edge survives to is its count of trailing zero bits —
// consistent across insertions and deletions of the same edge (the
// "consistent sampling" the paper needs for dynamic streams).
//
// SamplingLevels is the coins. SubsampledLevels<Level> is the hierarchy
// itself: the coins plus one linear sketch of each G_i. It is the one
// place that routes a token, a half or a batch to levels 0..LevelOf(e),
// merges and counts the levels, and writes and parses their wire body.
// Fig. 1 (MinCutSketch, src/core/min_cut.h) and Fig. 2 (SimpleSparsifier,
// src/core/simple_sparsifier.h) are SubsampledLevels<KEdgeConnectSketch>
// plus a k formula, seed tag, magic and decoder; Fig. 3 (Sparsifier,
// src/core/sparsifier.h) holds a SubsampledLevels<NodeRecoveryBank> of
// per-level k-RECOVERY banks beside its rough Fig. 2 stage.
#ifndef GRAPHSKETCH_SRC_CORE_SAMPLING_LEVELS_H_
#define GRAPHSKETCH_SRC_CORE_SAMPLING_LEVELS_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/node_sketch.h"
#include "src/core/span.h"
#include "src/graph/edge_id.h"
#include "src/hash/splitmix.h"
#include "src/sketch/serde.h"

namespace gsketch {

/// ceil(log2 n), capped at 31: the smallest lg with 2^lg >= n (0 for
/// n <= 1).
inline uint32_t CeilLog2(NodeId n) {
  uint32_t lg = 0;
  while ((NodeId{1} << lg) < n && lg < 31) ++lg;
  return lg;
}

/// Assigns every edge its deepest surviving subsampling level.
class SamplingLevels {
 public:
  /// `max_level` is the deepest level (Figs. 1-3 use 2·log2 n).
  SamplingLevels(uint32_t max_level, uint64_t seed)
      : max_level_(max_level), seed_(seed) {}

  /// Deepest level i such that e ∈ G_i (0 = always).
  uint32_t LevelOf(NodeId u, NodeId v) const {
    return LevelOfId(EdgeId(u, v));
  }

  /// LevelOf with the edge id already ranked (batch paths compute edge
  /// ids once and reuse them for level routing and cell updates).
  uint32_t LevelOfId(uint64_t edge_id) const {
    return GeometricLevel(Mix64(seed_, 0x16f1u, edge_id), max_level_);
  }

  /// True iff edge {u,v} survives to level i.
  bool InLevel(NodeId u, NodeId v, uint32_t i) const {
    return LevelOf(u, v) >= i;
  }

  /// Deepest level of the hierarchy.
  uint32_t max_level() const { return max_level_; }

  /// Seed of the level coins (serialization; the hierarchy is a pure
  /// function of (max_level, seed)).
  uint64_t seed() const { return seed_; }

  /// The conventional depth for an n-node graph: 2·ceil(log2 n) + 1 levels
  /// (indices 0..2·ceil(log2 n)).
  static uint32_t DefaultMaxLevel(NodeId n) { return 2 * CeilLog2(n); }

 private:
  uint32_t max_level_;
  uint64_t seed_;
};

/// The hierarchy G_0 ⊇ ... ⊇ G_max_level with one `Level` sketch of each
/// G_i, all of strength k over n nodes (see file comment). `Level` is
/// built as Level(n, k, level_arg, seed) and provides Update,
/// UpdateEndpoint, ApplyBatch of an UpdateBatch, Merge, MismatchWith and
/// CellCount; the wire format also uses its AppendTo, Deserialize,
/// kMinWireBytes, num_nodes and k.
template <typename Level>
class SubsampledLevels {
 public:
  /// Levels 0..max_level (0 = DefaultMaxLevel(n)). The coins are seeded
  /// DeriveSeed(seed, tag) and level i DeriveSeed(seed, tag + 1 + i), so a
  /// family's tag fixes all of its seeds.
  template <typename LevelArg>
  SubsampledLevels(NodeId n, uint32_t k, uint32_t max_level, uint64_t seed,
                   uint64_t tag, const LevelArg& level_arg)
      : n_(n),
        k_(k),
        sampler_(max_level == 0 ? SamplingLevels::DefaultMaxLevel(n)
                                : max_level,
                 DeriveSeed(seed, tag)) {
    const uint32_t num_levels = sampler_.max_level() + 1;
    levels_.reserve(num_levels);
    for (uint32_t i = 0; i < num_levels; ++i) {
      levels_.emplace_back(n, k, level_arg, DeriveSeed(seed, tag + 1 + i));
    }
  }

  /// Applies one stream token to every level the edge survives to.
  void Update(NodeId u, NodeId v, int64_t delta) {
    const uint32_t deepest = sampler_.LevelOf(u, v);
    for (uint32_t i = 0; i <= deepest && i < levels_.size(); ++i) {
      levels_[i].Update(u, v, delta);
    }
  }

  /// Endpoint half of one token. Level routing hashes the edge, not the
  /// endpoint, so both halves land on the same levels.
  void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v, int64_t delta) {
    const uint32_t deepest = sampler_.LevelOf(u, v);
    for (uint32_t i = 0; i <= deepest && i < levels_.size(); ++i) {
      levels_[i].UpdateEndpoint(endpoint, u, v, delta);
    }
  }

  /// Dense same-endpoint batch: each update is routed to the levels its
  /// edge survives to (edge-hashed, so both halves agree), then each level
  /// absorbs its sub-batch in one pass.
  void ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                  Span<const int64_t> deltas) {
    uint32_t deepest[UpdateBatch::kMaxIds];
    ForEachEdgeChunk(endpoint, others, deltas, [&](UpdateBatch& batch) {
      for (size_t j = 0; j < batch.count; ++j) {
        deepest[j] = sampler_.LevelOfId(batch.ids[j]);
      }
      // Level i's sub-batch is {updates with deepest >= i}. The survivor
      // sets are nested, so each level's batch is the last one compacted
      // in place (a subset of an all-unit batch stays all-unit), and the
      // first empty level ends the routing.
      for (uint32_t i = 0; i < levels_.size() && batch.count > 0; ++i) {
        levels_[i].ApplyBatch(endpoint, batch);
        size_t kept = 0;
        for (size_t j = 0; j < batch.count; ++j) {
          if (deepest[j] == i) continue;
          deepest[kept] = deepest[j];
          batch.ids[kept] = batch.ids[j];
          batch.deltas[kept] = batch.deltas[j];
          batch.weights[kept] = batch.weights[j];
          ++kept;
        }
        batch.count = kept;
      }
    });
  }

  /// The first measurement parameter in which `other` differs (a field
  /// name such as "seed"), or nullptr when the two measure identically
  /// and Merge may add them.
  const char* MismatchWith(const SubsampledLevels& other) const {
    if (n_ != other.n_) return "n";
    if (k_ != other.k_) return "k";
    if (sampler_.seed() != other.sampler_.seed()) return "level coin seed";
    return ListMismatch(levels_, other.levels_, "level count");
  }

  /// Adds another hierarchy with identical parameterization.
  void Merge(const SubsampledLevels& other) {
    assert(k_ == other.k_ && levels_.size() == other.levels_.size());
    for (size_t i = 0; i < levels_.size(); ++i) {
      levels_[i].Merge(other.levels_[i]);
    }
  }

  /// Total 1-sparse cells over all levels (space proxy).
  size_t CellCount() const {
    size_t total = 0;
    for (const auto& level : levels_) total += level.CellCount();
    return total;
  }

  NodeId num_nodes() const { return n_; }

  /// Strength of every level: the witness threshold of k-EDGECONNECT
  /// levels, the recovery capacity of k-RECOVERY banks.
  uint32_t k() const { return k_; }

  /// Number of levels (hierarchy depth + 1).
  uint32_t num_levels() const { return static_cast<uint32_t>(levels_.size()); }

  /// The sketch of G_i.
  const Level& level(uint32_t i) const { return levels_[i]; }

 protected:
  /// Writes a family's `magic`, n and k, then the wire body: max_level,
  /// the coin seed, the level count and every level's payload.
  void AppendWire(uint32_t magic, std::string* out) const {
    ByteWriter w(out);
    w.U32(magic);
    w.U32(n_);
    w.U32(k_);
    w.U32(sampler_.max_level());
    w.U64(sampler_.seed());
    w.U32(num_levels());
    for (const auto& level : levels_) level.AppendTo(out);
  }

  /// Parses what AppendWire(magic) writes; nullopt on malformed input and
  /// on every header no writer produces: k < 2, a level count other than
  /// max_level + 1, or a level whose n or k differs from the header's.
  static std::optional<SubsampledLevels> ParseWire(uint32_t magic,
                                                   ByteReader* r) {
    auto got_magic = r->U32();
    if (!got_magic || *got_magic != magic) return std::nullopt;
    auto n = r->U32();
    auto k = r->U32();
    auto max_level = r->U32();
    auto seed = r->U64();
    auto num_levels = r->U32();
    // The count is compared in 64 bits (max_level 2^32 - 1 must not wrap)
    // and bounded by the bytes left before anything is reserved for it.
    if (!n || !k || !max_level || !seed || !num_levels || *k < 2 ||
        *num_levels != uint64_t{*max_level} + 1 ||
        *num_levels > r->remaining() / Level::kMinWireBytes) {
      return std::nullopt;
    }
    SubsampledLevels parsed(*n, *k, SamplingLevels(*max_level, *seed));
    parsed.levels_.reserve(*num_levels);
    for (uint32_t i = 0; i < *num_levels; ++i) {
      auto level = Level::Deserialize(r);
      if (!level || level->num_nodes() != *n || level->k() != *k) {
        return std::nullopt;
      }
      parsed.levels_.push_back(std::move(*level));
    }
    return parsed;
  }

 private:
  SubsampledLevels(NodeId n, uint32_t k, SamplingLevels sampler)
      : n_(n), k_(k), sampler_(sampler) {}

  NodeId n_;
  uint32_t k_;
  SamplingLevels sampler_;
  std::vector<Level> levels_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_CORE_SAMPLING_LEVELS_H_
