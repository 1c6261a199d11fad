#include "src/core/min_cut.h"

#include <algorithm>
#include <cmath>

#include "src/graph/stoer_wagner.h"

namespace gsketch {

namespace {
constexpr uint32_t kMinCutMagic = 0x4d435554u;  // "TUCM"
}  // namespace

MinCutSketch::MinCutSketch(NodeId n, const MinCutOptions& opt, uint64_t seed)
    : SubsampledLevels(
          n,
          std::max<uint32_t>(
              static_cast<uint32_t>(std::ceil(
                  opt.k_scale * std::max<uint32_t>(CeilLog2(n), 1) /
                  (opt.epsilon * opt.epsilon))),
              2),
          opt.max_level, seed, /*tag=*/0x9c01u, opt.forest) {}

MinCutEstimate MinCutSketch::Estimate() const {
  MinCutEstimate est;
  for (uint32_t i = 0; i < num_levels(); ++i) {
    Graph witness = level(i).ExtractWitness();
    MinCutResult cut = StoerWagnerMinCut(witness);
    if (cut.value < static_cast<double>(k())) {
      est.value = std::ldexp(cut.value, static_cast<int>(i));  // 2^i * λ(H_i)
      est.level = i;
      est.side = std::move(cut.side);
      est.resolved = true;
      return est;
    }
  }
  // Every level stayed k-connected (can only happen for extremely dense
  // graphs relative to the hierarchy depth); report the deepest level.
  const uint32_t deepest = num_levels() - 1;
  MinCutResult cut = StoerWagnerMinCut(level(deepest).ExtractWitness());
  est.value = std::ldexp(cut.value, static_cast<int>(deepest));
  est.level = deepest;
  est.side = std::move(cut.side);
  est.resolved = false;
  return est;
}

void MinCutSketch::AppendTo(std::string* out) const {
  AppendWire(kMinCutMagic, out);
}

std::optional<MinCutSketch> MinCutSketch::Deserialize(ByteReader* r) {
  auto levels = ParseWire(kMinCutMagic, r);
  if (!levels) return std::nullopt;
  return MinCutSketch(std::move(*levels));
}

}  // namespace gsketch
