#include "src/sketch/sparse_recovery.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/hash/splitmix.h"
#include "src/sketch/cell_kernels.h"

namespace gsketch {

namespace {

uint64_t RowSeed(const RecoveryParams& p, uint32_t row) {
  return DeriveSeed(p.seed, 0x7001u + row);
}

size_t CellOf(const RecoveryParams& p, uint32_t row, uint64_t index) {
  uint64_t h = Mix64(DeriveSeed(p.seed, 0x7002u + row), index);
  // Fair reduction into [0, buckets).
  uint64_t b = static_cast<uint64_t>(
      (static_cast<__uint128_t>(h) * p.buckets) >> 64);
  return static_cast<size_t>(row) * p.buckets + static_cast<size_t>(b);
}

constexpr uint32_t kRecoveryMagic = 0x4b524543u;  // "KREC"

}  // namespace

RecoveryParams RecoveryParams::Make(uint64_t domain, uint32_t capacity,
                                    uint32_t rows, uint64_t seed) {
  RecoveryParams p;
  p.domain = domain;
  p.capacity = std::max<uint32_t>(capacity, 1);
  p.rows = std::max<uint32_t>(rows, 1);
  p.buckets = 2 * p.capacity;
  p.seed = seed;
  return p;
}

void RecoveryCellsUpdate(const RecoveryParams& p, OneSparseCell* cells,
                         uint64_t index, int64_t delta) {
  assert(index < p.domain);
  for (uint32_t r = 0; r < p.rows; ++r) {
    cells[CellOf(p, r, index)].Update(
        index, delta, OneSparseCell::FingerOf(RowSeed(p, r), index));
  }
}

void RecoveryCellsUpdateTwo(const RecoveryParams& p, OneSparseCell* cells_a,
                            OneSparseCell* cells_b, uint64_t index,
                            int64_t delta_a, int64_t delta_b) {
  assert(index < p.domain);
  for (uint32_t r = 0; r < p.rows; ++r) {
    size_t cell = CellOf(p, r, index);
    uint64_t finger = OneSparseCell::FingerOf(RowSeed(p, r), index);
    cells_a[cell].Update(index, delta_a, finger);
    cells_b[cell].Update(index, delta_b, finger);
  }
}

void RecoveryCellsUpdateBatch(const RecoveryParams& p, OneSparseCell* cells,
                              const uint64_t* ids, const int64_t* deltas,
                              size_t count) {
  // Hashing split from accumulation, as in the scalar and avx2 ℓ₀
  // kernels (cell_kernels.cc): residues once per chunk, then per-row
  // bucket words and fingerprints from the batched kernels
  // over hoisted bases (Mix64(hash_seed, id) == SplitMix64(Mix64Base(
  // hash_seed) + id)); only the bucket scatter stays scalar.
  constexpr size_t kChunk = 256;
  uint64_t residues[kChunk];
  uint64_t words[kChunk];
  uint64_t fingers[kChunk];
  for (size_t start = 0; start < count; start += kChunk) {
    const size_t chunk = std::min(kChunk, count - start);
    const uint64_t* cids = ids + start;
    const int64_t* cdeltas = deltas + start;
    for (size_t i = 0; i < chunk; ++i) {
      assert(cids[i] < p.domain);
      residues[i] = OneSparseCell::ResidueOf(cdeltas[i]);
    }
    for (uint32_t r = 0; r < p.rows; ++r) {
      const uint64_t row_seed = RowSeed(p, r);
      SplitMix64Batch(Mix64Base(DeriveSeed(p.seed, 0x7002u + r)), cids, chunk,
                      words);
      FingerBatch(Mix64(row_seed, 0xf17eu), cids, chunk, fingers);
      OneSparseCell* row_cells = cells + static_cast<size_t>(r) * p.buckets;
      for (size_t i = 0; i < chunk; ++i) {
        // Fair reduction into [0, buckets), as in CellOf.
        const uint64_t b = static_cast<uint64_t>(
            (static_cast<__uint128_t>(words[i]) * p.buckets) >> 64);
        const int64_t d = cdeltas[i];
        // ±1 deltas collapse the Mersenne product to the fingerprint (or
        // its negation), same as the L0 core's fast path.
        const uint64_t term =
            d == 1 ? fingers[i]
                   : (d == -1 ? SubMod61(0, fingers[i])
                              : MulMod61(residues[i], fingers[i]));
        row_cells[b].ApplyTerm(cids[i], d, term);
      }
    }
  }
}

RecoveryResult RecoveryCellsDecode(const RecoveryParams& p,
                                   const OneSparseCell* cells) {
  // Peel on a scratch copy of the cells.
  std::vector<OneSparseCell> work(cells, cells + p.CellsPerSketch());
  RecoveryResult result;

  auto cancel = [&](uint64_t index, int64_t value) {
    for (uint32_t r = 0; r < p.rows; ++r) {
      work[CellOf(p, r, index)].Update(
          index, -value, OneSparseCell::FingerOf(RowSeed(p, r), index));
    }
  };

  bool progress = true;
  while (progress) {
    progress = false;
    for (uint32_t r = 0; r < p.rows; ++r) {
      for (uint32_t b = 0; b < p.buckets; ++b) {
        auto one = work[static_cast<size_t>(r) * p.buckets + b].Decode(
            RowSeed(p, r));
        if (!one.has_value()) continue;
        // Defensive cap: a fingerprint false positive could otherwise peel
        // unbounded ghost entries.
        if (result.entries.size() >
            static_cast<size_t>(p.capacity) * 4 + 16) {
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
      // Residual mass: support exceeded capacity (or an unpeelable
      // collision pattern). Report FAIL per Theorem 2.2.
      result.entries.clear();
      return result;
    }
  }

  // Combine duplicate indices (an index can be peeled in opposite
  // directions in pathological collision patterns) and drop zeros.
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

bool RecoveryCellsIsZero(const RecoveryParams& p,
                         const OneSparseCell* cells) {
  size_t total = p.CellsPerSketch();
  for (size_t i = 0; i < total; ++i) {
    if (!cells[i].IsZero()) return false;
  }
  return true;
}

SparseRecovery::SparseRecovery(uint64_t domain, uint32_t capacity,
                               uint32_t rows, uint64_t seed)
    : params_(RecoveryParams::Make(domain, capacity, rows, seed)) {
  cells_.resize(params_.CellsPerSketch());
}

void SparseRecovery::Merge(const SparseRecovery& other) {
  assert(params_ == other.params_);
  for (size_t i = 0; i < cells_.size(); ++i) cells_[i].Merge(other.cells_[i]);
}

void SparseRecovery::Subtract(const SparseRecovery& other) {
  assert(params_ == other.params_);
  for (size_t i = 0; i < cells_.size(); ++i) {
    cells_[i].Subtract(other.cells_[i]);
  }
}

void SparseRecovery::AppendTo(std::string* out) const {
  ByteWriter w(out);
  w.U32(kRecoveryMagic);
  w.U64(params_.domain);
  w.U32(params_.capacity);
  w.U32(params_.rows);
  w.U64(params_.seed);
  AppendCells(&w, cells_.data(), cells_.size());
}

std::optional<SparseRecovery> SparseRecovery::Deserialize(ByteReader* r) {
  auto magic = r->U32();
  if (!magic || *magic != kRecoveryMagic) return std::nullopt;
  auto domain = r->U64();
  auto capacity = r->U32();
  auto rows = r->U32();
  auto seed = r->U64();
  if (!domain || !capacity || !rows || !seed || *domain == 0) {
    return std::nullopt;
  }
  SparseRecovery s(*domain, *capacity, *rows, *seed);
  if (!ParseCells(r, s.cells_.data(), s.cells_.size())) return std::nullopt;
  return s;
}

SparseRecovery SparseRecoveryView::Materialize() const {
  SparseRecovery s(params_->domain, params_->capacity, params_->rows,
                   params_->seed);
  std::memcpy(s.cells_.data(), cells_,
              s.cells_.size() * sizeof(OneSparseCell));
  return s;
}

}  // namespace gsketch
