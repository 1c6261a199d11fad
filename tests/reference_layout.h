// Reference implementation of the PRE-ARENA sketch storage layout, kept
// verbatim for the parity tier (tests/parity_test.cc).
//
// Before the arena refactor, every node's ℓ₀-sampler and k-RECOVERY sketch
// owned its own heap-allocated cell vector, and banks were vectors of
// samplers. The arena refactor moved all cells into one bank-owned
// contiguous allocation but promised BIT-IDENTICAL measurements: same
// seeds, same hash calls, same cell values, same wire bytes. This header
// preserves the old layout (update loops and serialization included) as
// the ground truth that promise is tested against. It must NOT be
// "modernized" to share code with src/ — independence is the point.
#ifndef GRAPHSKETCH_TESTS_REFERENCE_LAYOUT_H_
#define GRAPHSKETCH_TESTS_REFERENCE_LAYOUT_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/edge_id.h"
#include "src/hash/splitmix.h"
#include "src/sketch/l0_sampler.h"
#include "src/sketch/one_sparse.h"
#include "src/sketch/sparse_recovery.h"

namespace gsketch::reference {

/// The historical ℓ₀ level formula, one fair coin (bit) at a time: the
/// number of trailing zero bits of `word`, capped at `cap`. Kept here so
/// the parity tier checks src/'s branch-free GeometricLevel against it
/// rather than against itself.
inline uint32_t LevelOf(uint64_t word, uint32_t cap) {
  uint32_t lvl = 0;
  while (lvl < cap && (word & 1) == 0) {
    word >>= 1;
    ++lvl;
  }
  return lvl;
}

/// The historical per-node ℓ₀-sampler: owns a cell vector per instance.
class RefL0Sampler {
 public:
  RefL0Sampler(uint64_t domain, uint32_t repetitions, uint64_t seed)
      : domain_(domain),
        reps_(repetitions),
        levels_(LevelsFor(domain)),
        seed_(seed) {
    cells_.resize(static_cast<size_t>(reps_) * (levels_ + 1));
  }

  void Update(uint64_t index, int64_t delta) {
    assert(index < domain_);
    for (uint32_t r = 0; r < reps_; ++r) {
      uint64_t rep_seed = DeriveSeed(seed_, r);
      uint32_t z = LevelOf(Mix64(rep_seed, 0x5e7eu, index), levels_);
      uint64_t finger = OneSparseCell::FingerOf(rep_seed, index);
      for (uint32_t l = 0; l <= z; ++l) {
        cells_[CellAt(r, l)].Update(index, delta, finger);
      }
    }
  }

  void Merge(const RefL0Sampler& other) {
    assert(domain_ == other.domain_ && reps_ == other.reps_ &&
           seed_ == other.seed_);
    for (size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].Merge(other.cells_[i]);
    }
  }

  std::optional<L0Sample> Sample() const {
    for (uint32_t r = 0; r < reps_; ++r) {
      uint64_t rep_seed = DeriveSeed(seed_, r);
      for (uint32_t l = levels_ + 1; l-- > 0;) {
        auto res = cells_[CellAt(r, l)].Decode(rep_seed);
        if (res.has_value()) {
          return L0Sample{res->index, res->value};
        }
      }
    }
    return std::nullopt;
  }

  bool IsZero() const {
    for (uint32_t r = 0; r < reps_; ++r) {
      if (!cells_[CellAt(r, 0)].IsZero()) return false;
    }
    return true;
  }

  size_t CellCount() const { return cells_.size(); }

  /// Historical wire record, written strictly per-cell (no bulk copies).
  void AppendTo(std::string* out) const {
    ByteWriter w(out);
    w.U32(0x4c30534bu);  // "L0SK"
    w.U64(domain_);
    w.U32(reps_);
    w.U64(seed_);
    for (const auto& cell : cells_) cell.AppendTo(&w);
  }

 private:
  static uint32_t LevelsFor(uint64_t domain) {
    uint32_t l = 0;
    while ((uint64_t{1} << l) < domain && l < 63) ++l;
    return l;
  }

  size_t CellAt(uint32_t rep, uint32_t level) const {
    return static_cast<size_t>(rep) * (levels_ + 1) + level;
  }

  uint64_t domain_;
  uint32_t reps_;
  uint32_t levels_;
  uint64_t seed_;
  std::vector<OneSparseCell> cells_;
};

/// The historical bank: a vector of per-node samplers, each with its own
/// heap allocation.
class RefNodeL0Bank {
 public:
  RefNodeL0Bank(NodeId n, uint32_t repetitions, uint64_t seed) {
    samplers_.reserve(n);
    uint64_t domain = EdgeDomain(n);
    for (NodeId u = 0; u < n; ++u) {
      samplers_.emplace_back(domain, repetitions, seed);
    }
  }

  void Update(NodeId u, NodeId v, int64_t delta) {
    assert(u != v);
    uint64_t id = EdgeId(u, v);
    samplers_[u].Update(id, delta * IncidenceSignRef(u, u, v));
    samplers_[v].Update(id, delta * IncidenceSignRef(v, u, v));
  }

  void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v, int64_t delta) {
    assert(u != v && (endpoint == u || endpoint == v));
    samplers_[endpoint].Update(EdgeId(u, v),
                               delta * IncidenceSignRef(endpoint, u, v));
  }

  const RefL0Sampler& Of(NodeId u) const { return samplers_[u]; }

  RefL0Sampler SumOver(const std::vector<NodeId>& nodes) const {
    assert(!nodes.empty());
    RefL0Sampler acc = samplers_[nodes[0]];
    for (size_t i = 1; i < nodes.size(); ++i) acc.Merge(samplers_[nodes[i]]);
    return acc;
  }

  void Merge(const RefNodeL0Bank& other) {
    assert(samplers_.size() == other.samplers_.size());
    for (size_t u = 0; u < samplers_.size(); ++u) {
      samplers_[u].Merge(other.samplers_[u]);
    }
  }

  void AppendTo(std::string* out) const {
    ByteWriter w(out);
    w.U32(static_cast<uint32_t>(samplers_.size()));
    for (const auto& s : samplers_) s.AppendTo(out);
  }

  NodeId num_nodes() const { return static_cast<NodeId>(samplers_.size()); }

 private:
  static int64_t IncidenceSignRef(NodeId node, NodeId u, NodeId v) {
    NodeId lo = u < v ? u : v;
    return node == lo ? +1 : -1;
  }

  std::vector<RefL0Sampler> samplers_;
};

/// The historical per-node k-RECOVERY sketch.
class RefSparseRecovery {
 public:
  RefSparseRecovery(uint64_t domain, uint32_t capacity, uint32_t rows,
                    uint64_t seed)
      : domain_(domain),
        capacity_(capacity < 1 ? 1 : capacity),
        rows_(rows < 1 ? 1 : rows),
        buckets_(2 * (capacity < 1 ? 1 : capacity)),
        seed_(seed) {
    cells_.resize(static_cast<size_t>(rows_) * buckets_);
  }

  void Update(uint64_t index, int64_t delta) {
    assert(index < domain_);
    for (uint32_t r = 0; r < rows_; ++r) {
      cells_[CellOf(r, index)].Update(
          index, delta, OneSparseCell::FingerOf(RowSeed(r), index));
    }
  }

  void Merge(const RefSparseRecovery& other) {
    assert(domain_ == other.domain_ && seed_ == other.seed_);
    for (size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].Merge(other.cells_[i]);
    }
  }

  /// Peeling decoder, identical to the historical implementation.
  RecoveryResult Decode() const {
    std::vector<OneSparseCell> work = cells_;
    RecoveryResult result;
    auto cancel = [&](uint64_t index, int64_t value) {
      for (uint32_t r = 0; r < rows_; ++r) {
        work[CellOf(r, index)].Update(
            index, -value, OneSparseCell::FingerOf(RowSeed(r), index));
      }
    };
    bool progress = true;
    while (progress) {
      progress = false;
      for (uint32_t r = 0; r < rows_; ++r) {
        for (uint32_t b = 0; b < buckets_; ++b) {
          auto one = work[static_cast<size_t>(r) * buckets_ + b].Decode(
              RowSeed(r));
          if (!one.has_value()) continue;
          if (result.entries.size() >
              static_cast<size_t>(capacity_) * 4 + 16) {
            result.entries.clear();
            return result;
          }
          result.entries.emplace_back(one->index, one->value);
          cancel(one->index, one->value);
          progress = true;
        }
      }
    }
    for (const auto& cell : work) {
      if (!cell.IsZero()) {
        result.entries.clear();
        return result;
      }
    }
    std::sort(result.entries.begin(), result.entries.end());
    std::vector<std::pair<uint64_t, int64_t>> merged;
    for (const auto& [idx, val] : result.entries) {
      if (!merged.empty() && merged.back().first == idx) {
        merged.back().second += val;
      } else {
        merged.emplace_back(idx, val);
      }
    }
    merged.erase(std::remove_if(merged.begin(), merged.end(),
                                [](const auto& e) { return e.second == 0; }),
                 merged.end());
    result.entries = std::move(merged);
    result.ok = true;
    return result;
  }

  bool IsZero() const {
    for (const auto& cell : cells_) {
      if (!cell.IsZero()) return false;
    }
    return true;
  }

  /// Historical wire record, written strictly per-cell.
  void AppendTo(std::string* out) const {
    ByteWriter w(out);
    w.U32(0x4b524543u);  // "KREC"
    w.U64(domain_);
    w.U32(capacity_);
    w.U32(rows_);
    w.U64(seed_);
    for (const auto& cell : cells_) cell.AppendTo(&w);
  }

 private:
  size_t CellOf(uint32_t row, uint64_t index) const {
    uint64_t h = Mix64(DeriveSeed(seed_, 0x7002u + row), index);
    uint64_t b = static_cast<uint64_t>(
        (static_cast<__uint128_t>(h) * buckets_) >> 64);
    return static_cast<size_t>(row) * buckets_ + static_cast<size_t>(b);
  }

  uint64_t RowSeed(uint32_t row) const {
    return DeriveSeed(seed_, 0x7001u + row);
  }

  uint64_t domain_;
  uint32_t capacity_;
  uint32_t rows_;
  uint32_t buckets_;
  uint64_t seed_;
  std::vector<OneSparseCell> cells_;
};

/// The historical recovery bank: a vector of per-node sketches.
class RefNodeRecoveryBank {
 public:
  RefNodeRecoveryBank(NodeId n, uint32_t capacity, uint32_t rows,
                      uint64_t seed) {
    sketches_.reserve(n);
    uint64_t domain = EdgeDomain(n);
    for (NodeId u = 0; u < n; ++u) {
      sketches_.emplace_back(domain, capacity, rows, seed);
    }
  }

  void Update(NodeId u, NodeId v, int64_t delta) {
    assert(u != v);
    uint64_t id = EdgeId(u, v);
    sketches_[u].Update(id, u < v ? delta : -delta);
    sketches_[v].Update(id, u < v ? -delta : delta);
  }

  const RefSparseRecovery& Of(NodeId u) const { return sketches_[u]; }

  RefSparseRecovery SumOver(const std::vector<NodeId>& nodes) const {
    assert(!nodes.empty());
    RefSparseRecovery acc = sketches_[nodes[0]];
    for (size_t i = 1; i < nodes.size(); ++i) acc.Merge(sketches_[nodes[i]]);
    return acc;
  }

  void Merge(const RefNodeRecoveryBank& other) {
    assert(sketches_.size() == other.sketches_.size());
    for (size_t u = 0; u < sketches_.size(); ++u) {
      sketches_[u].Merge(other.sketches_[u]);
    }
  }

  NodeId num_nodes() const { return static_cast<NodeId>(sketches_.size()); }

 private:
  std::vector<RefSparseRecovery> sketches_;
};

}  // namespace gsketch::reference

#endif  // GRAPHSKETCH_TESTS_REFERENCE_LAYOUT_H_
