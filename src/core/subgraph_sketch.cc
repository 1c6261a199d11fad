#include "src/core/subgraph_sketch.h"

#include <algorithm>
#include <cassert>

#include "src/graph/subgraph_census.h"
#include "src/hash/splitmix.h"

namespace gsketch {

SubgraphSketch::SubgraphSketch(NodeId n, uint32_t order,
                               uint32_t num_samplers, uint32_t repetitions,
                               uint64_t seed)
    : n_(n),
      order_(order),
      columns_(Binomial(n, order)),
      support_(Binomial(n, order), 15, DeriveSeed(seed, 0x59a4u)) {
  assert(order == 3 || order == 4);
  assert(n >= order);
  samplers_.reserve(num_samplers);
  for (uint32_t s = 0; s < num_samplers; ++s) {
    samplers_.emplace_back(columns_, repetitions,
                           DeriveSeed(seed, 0x59a5u + s));
  }
}

void SubgraphSketch::Update(NodeId u, NodeId v, int64_t delta) {
  assert(u != v && u < n_ && v < n_);
  NodeId a = std::min(u, v), b = std::max(u, v);

  // Enumerate every k-subset containing {a, b} and push Δ·2^slot into the
  // subset's column, where slot is the (a,b) pair's position within the
  // sorted subset (Fig. 4's bit layout).
  auto apply = [&](const NodeId* subset, uint32_t k) {
    uint32_t ia = 0, ib = 0;
    for (uint32_t i = 0; i < k; ++i) {
      if (subset[i] == a) ia = i;
      if (subset[i] == b) ib = i;
    }
    uint64_t rank = SubsetRank(subset, k);
    // Multiply instead of shifting: delta may be negative, and a left
    // shift of a negative value is UB in C++17.
    int64_t add = delta * (int64_t{1} << PairSlot(ia, ib));
    for (auto& sampler : samplers_) sampler.Update(rank, add);
    support_.Update(rank, add);
  };

  if (order_ == 3) {
    NodeId triple[3];
    for (NodeId w = 0; w < n_; ++w) {
      if (w == a || w == b) continue;
      if (w < a) {
        triple[0] = w, triple[1] = a, triple[2] = b;
      } else if (w < b) {
        triple[0] = a, triple[1] = w, triple[2] = b;
      } else {
        triple[0] = a, triple[1] = b, triple[2] = w;
      }
      apply(triple, 3);
    }
  } else {
    NodeId quad[4];
    for (NodeId w = 0; w < n_; ++w) {
      if (w == a || w == b) continue;
      for (NodeId x = w + 1; x < n_; ++x) {
        if (x == a || x == b) continue;
        NodeId vals[4] = {a, b, w, x};
        std::sort(vals, vals + 4);
        quad[0] = vals[0], quad[1] = vals[1];
        quad[2] = vals[2], quad[3] = vals[3];
        apply(quad, 4);
      }
    }
  }
}

void SubgraphSketch::Merge(const SubgraphSketch& other) {
  assert(order_ == other.order_ && samplers_.size() == other.samplers_.size());
  for (size_t s = 0; s < samplers_.size(); ++s) {
    samplers_[s].Merge(other.samplers_[s]);
  }
  support_.Merge(other.support_);
}

std::vector<uint32_t> SubgraphSketch::SampleCanonicalCodes() const {
  std::vector<uint32_t> codes;
  codes.reserve(samplers_.size());
  uint32_t max_code = 1u << (order_ * (order_ - 1) / 2);
  for (const auto& sampler : samplers_) {
    auto sample = sampler.Sample();
    if (!sample.has_value()) continue;
    int64_t value = sample->value;
    // Simple graphs give codes in [1, 2^C(k,2)); anything else indicates a
    // multigraph column or a decode glitch — skip it.
    if (value <= 0 || value >= static_cast<int64_t>(max_code)) continue;
    codes.push_back(
        CanonicalPatternCode(static_cast<uint32_t>(value), order_));
  }
  return codes;
}

SubgraphEstimate SubgraphSketch::EstimateGamma(uint32_t canonical_code) const {
  SubgraphEstimate est;
  std::vector<uint32_t> codes = SampleCanonicalCodes();
  est.samples_used = codes.size();
  est.sampler_failures = samplers_.size() - codes.size();
  if (codes.empty()) return est;
  size_t hits = 0;
  for (uint32_t c : codes) {
    if (c == canonical_code) ++hits;
  }
  est.gamma = static_cast<double>(hits) / static_cast<double>(codes.size());
  return est;
}

std::map<uint32_t, double> SubgraphSketch::EstimateDistribution() const {
  std::map<uint32_t, double> dist;
  std::vector<uint32_t> codes = SampleCanonicalCodes();
  if (codes.empty()) return dist;
  for (uint32_t c : codes) dist[c] += 1.0;
  for (auto& [code, mass] : dist) {
    (void)code;
    mass /= static_cast<double>(codes.size());
  }
  return dist;
}

namespace {
constexpr uint32_t kSubgMagic = 0x53554247u;  // "GBUS"
}

void SubgraphSketch::AppendTo(std::string* out) const {
  ByteWriter w(out);
  w.U32(kSubgMagic);
  w.U32(n_);
  w.U32(order_);
  w.U32(static_cast<uint32_t>(samplers_.size()));
  for (const auto& s : samplers_) s.AppendTo(out);
  support_.AppendTo(out);
}

std::optional<SubgraphSketch> SubgraphSketch::Deserialize(ByteReader* r) {
  auto magic = r->U32();
  if (!magic || *magic != kSubgMagic) return std::nullopt;
  auto n = r->U32();
  auto order = r->U32();
  auto count = r->U32();
  if (!n || !order || !count || (*order != 3 && *order != 4) ||
      *n < *order || *count == 0 ||
      *count > r->remaining() / kL0HeaderBytes) {
    return std::nullopt;  // including more samplers than the bytes left hold
  }
  uint64_t columns = Binomial(*n, *order);
  std::vector<L0Sampler> samplers;
  samplers.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto s = L0Sampler::Deserialize(r);
    if (!s || s->domain() != columns) return std::nullopt;
    samplers.push_back(std::move(*s));
  }
  auto support = SupportEstimator::Deserialize(r);
  if (!support || support->domain() != columns) return std::nullopt;
  SubgraphSketch sk(*n, *order, columns, std::move(*support));
  sk.samplers_ = std::move(samplers);
  return sk;
}

size_t SubgraphSketch::CellCount() const {
  size_t total = 0;
  for (const auto& s : samplers_) total += s.CellCount();
  return total;
}

}  // namespace gsketch
