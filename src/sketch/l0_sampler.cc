#include "src/sketch/l0_sampler.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/hash/splitmix.h"
#include "src/sketch/cell_kernels.h"

namespace gsketch {

namespace {
uint32_t LevelsFor(uint64_t domain) {
  uint32_t l = 0;
  while ((uint64_t{1} << l) < domain && l < 63) ++l;
  return l;
}

constexpr uint32_t kL0Magic = 0x4c30534bu;  // "L0SK"
}  // namespace

L0Params L0Params::Make(uint64_t domain, uint32_t repetitions, uint64_t seed) {
  L0Params p;
  p.domain = domain;
  p.repetitions = repetitions;
  p.levels = LevelsFor(domain);
  p.seed = seed;
  return p;
}

void L0CellsUpdate(const L0Params& p, OneSparseCell* cells, uint64_t index,
                   int64_t delta) {
  assert(index < p.domain);
  const uint32_t per_rep = p.levels + 1;
  for (uint32_t r = 0; r < p.repetitions; ++r) {
    uint64_t rep_seed = DeriveSeed(p.seed, r);
    // Element lives at levels 0..z where z counts leading coin successes.
    uint32_t z = GeometricLevel(Mix64(rep_seed, 0x5e7eu, index), p.levels);
    uint64_t finger = OneSparseCell::FingerOf(rep_seed, index);
    OneSparseCell* rep_cells = cells + static_cast<size_t>(r) * per_rep;
    for (uint32_t l = 0; l <= z; ++l) {
      rep_cells[l].Update(index, delta, finger);
    }
  }
}

void L0CellsUpdateTwo(const L0Params& p, OneSparseCell* cells_a,
                      OneSparseCell* cells_b, uint64_t index, int64_t delta_a,
                      int64_t delta_b) {
  assert(index < p.domain);
  const uint32_t per_rep = p.levels + 1;
  for (uint32_t r = 0; r < p.repetitions; ++r) {
    uint64_t rep_seed = DeriveSeed(p.seed, r);
    uint32_t z = GeometricLevel(Mix64(rep_seed, 0x5e7eu, index), p.levels);
    uint64_t finger = OneSparseCell::FingerOf(rep_seed, index);
    size_t base = static_cast<size_t>(r) * per_rep;
    for (uint32_t l = 0; l <= z; ++l) {
      cells_a[base + l].Update(index, delta_a, finger);
      cells_b[base + l].Update(index, delta_b, finger);
    }
  }
}

void L0CellsApply(const L0Params& p, OneSparseCell* cells,
                  const UpdateBatch& batch) {
  for (size_t i = 0; i < batch.count; ++i) assert(batch.ids[i] < p.domain);
  // Each repetition is one kernel call over hoisted Mix64 bases —
  // Mix64(s, tag, id) == SplitMix64(Mix64(s, tag) + id) — so a
  // repetition's seed is derived once per batch, and the batch stays in
  // L1 across the repetitions.
  const CellKernelTable::L0RepFn l0_rep = Kernels().l0_rep;
  const uint32_t per_rep = p.levels + 1;
  for (uint32_t r = 0; r < p.repetitions; ++r) {
    const uint64_t rep_seed = DeriveSeed(p.seed, r);
    l0_rep(Mix64(rep_seed, 0x5e7eu), Mix64(rep_seed, 0xf17eu), p.levels,
           batch, cells + static_cast<size_t>(r) * per_rep);
  }
}

void L0CellsUpdateBatch(const L0Params& p, OneSparseCell* cells,
                        const uint64_t* ids, const int64_t* deltas,
                        size_t count) {
  UpdateBatch batch;
  for (size_t start = 0; start < count; start += UpdateBatch::kMaxIds) {
    const size_t end = std::min(count, start + UpdateBatch::kMaxIds);
    batch.Clear();
    for (size_t i = start; i < end; ++i) batch.Push(ids[i], deltas[i]);
    L0CellsApply(p, cells, batch);
  }
}

std::optional<L0Sample> L0CellsSample(const L0Params& p,
                                      const OneSparseCell* cells) {
  const uint32_t per_rep = p.levels + 1;
  for (uint32_t r = 0; r < p.repetitions; ++r) {
    uint64_t rep_seed = DeriveSeed(p.seed, r);
    const OneSparseCell* rep_cells = cells + static_cast<size_t>(r) * per_rep;
    // Scan from the sparsest restriction downward; the first decodable
    // level yields the unique survivor, uniform over support by symmetry.
    for (uint32_t l = per_rep; l-- > 0;) {
      auto res = rep_cells[l].Decode(rep_seed);
      if (res.has_value()) {
        return L0Sample{res->index, res->value};
      }
    }
  }
  return std::nullopt;
}

bool L0CellsIsZero(const L0Params& p, const OneSparseCell* cells) {
  const uint32_t per_rep = p.levels + 1;
  for (uint32_t r = 0; r < p.repetitions; ++r) {
    if (!cells[static_cast<size_t>(r) * per_rep].IsZero()) return false;
  }
  return true;
}

void L0CellsAppendTo(const L0Params& p, const OneSparseCell* cells,
                     std::string* out) {
  ByteWriter w(out);
  w.U32(kL0Magic);
  w.U64(p.domain);
  w.U32(p.repetitions);
  w.U64(p.seed);
  AppendCells(&w, cells, p.CellsPerSampler());
}

bool L0ParseHeader(ByteReader* r, L0Params* p) {
  auto magic = r->U32();
  if (!magic || *magic != kL0Magic) return false;
  auto domain = r->U64();
  auto reps = r->U32();
  auto seed = r->U64();
  if (!domain || !reps || !seed || *domain == 0 || *reps == 0) return false;
  *p = L0Params::Make(*domain, *reps, *seed);
  // The cells must follow: reject a count the input cannot hold before
  // any caller sizes storage for it.
  return p->CellsPerSampler() <= r->remaining() / sizeof(OneSparseCell);
}

L0Sampler::L0Sampler(uint64_t domain, uint32_t repetitions, uint64_t seed)
    : params_(L0Params::Make(domain, repetitions, seed)) {
  cells_.resize(params_.CellsPerSampler());
}

void L0Sampler::Merge(const L0Sampler& other) {
  assert(params_ == other.params_);
  for (size_t i = 0; i < cells_.size(); ++i) cells_[i].Merge(other.cells_[i]);
}

std::optional<L0Sampler> L0Sampler::Deserialize(ByteReader* r) {
  L0Params p;
  if (!L0ParseHeader(r, &p)) return std::nullopt;
  L0Sampler s(p.domain, p.repetitions, p.seed);
  if (!ParseCells(r, s.cells_.data(), s.cells_.size())) return std::nullopt;
  return s;
}

L0Sampler L0SamplerView::Materialize() const {
  L0Sampler s(params_->domain, params_->repetitions, params_->seed);
  std::memcpy(s.cells_.data(), cells_,
              s.cells_.size() * sizeof(OneSparseCell));
  return s;
}

}  // namespace gsketch
