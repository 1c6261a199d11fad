// Helpers shared by the differential and stat tiers: building registered
// sketches and reading their text answers, and the stat tier's binomial
// pass rule.
#ifndef GRAPHSKETCH_TESTS_TIER_UTIL_H_
#define GRAPHSKETCH_TESTS_TIER_UTIL_H_

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/sketch_registry.h"
#include "src/graph/graph.h"
#include "src/graph/stream.h"

namespace gsketch {

// Parses the "u v w" edge-list answers (forest, witness, sparsifier).
inline Graph ParseEdgeList(const std::string& text, NodeId n) {
  Graph h(n);
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '@') continue;
    std::istringstream ss(line);
    NodeId u = 0, v = 0;
    double w = 0;
    if (ss >> u >> v >> w) h.AddEdge(u, v, w);
  }
  return h;
}

// The registered family `alg`'s sketch of `stream`, updated token by token.
inline std::unique_ptr<LinearSketch> SketchOf(const char* alg,
                                              const DynamicGraphStream& stream,
                                              uint64_t seed,
                                              const AlgOptions& opt = {}) {
  auto sk = FindAlg(alg)->make(stream.NumNodes(), opt, seed);
  stream.Replay([&](NodeId u, NodeId v, int64_t d) { sk->Update(u, v, d); });
  return sk;
}

inline std::string MustQuery(const LinearSketch& sk, const std::string& q) {
  std::string out, error;
  EXPECT_TRUE(sk.Query(q, &out, &error)) << q << ": " << error;
  return out;
}

// The stat tier's pass rule: the smallest c with P(Bin(n, p) > c) <= 1e-3.
// A claim of "never wrong" (p = 0) allows no failure.
inline uint32_t AllowedFailures(uint32_t n, double p) {
  if (p <= 0) return 0;
  double pmf = std::pow(1.0 - p, n);
  double cdf = pmf;
  uint32_t c = 0;
  while (1.0 - cdf > 1e-3 && c < n) {
    pmf *= static_cast<double>(n - c) / (c + 1) * p / (1.0 - p);
    ++c;
    cdf += pmf;
  }
  return c;
}

// AGM12 states most guarantees "with high probability", i.e. failure at
// most n^-c for a constant c that the sketch's constants choose; the stat
// tier claims c = 2 for an n-node input.
inline double WhpFailure(NodeId n) {
  return 1.0 / (static_cast<double>(n) * n);
}

// One row of the stat tier: a claim of the paper, the per-trial failure
// probability p it is held to, and the trials run against it. Check()
// passes when at most AllowedFailures(N, p) trials failed, and names the
// row, N, p, c and every failed trial.
class StatRow {
 public:
  StatRow(std::string claim, double p) : claim_(std::move(claim)), p_(p) {}

  const std::string& claim() const { return claim_; }

  // Records one trial; `trial` names its shape and seed.
  void Record(bool ok, const std::string& trial) {
    ++trials_;
    if (!ok) failed_.push_back(trial);
  }

  void Check() const {
    const uint32_t c = AllowedFailures(trials_, p_);
    std::printf("[stat] %s: N=%u p=%.3g c=%u failures=%zu\n", claim_.c_str(),
                trials_, p_, c, failed_.size());
    EXPECT_GT(trials_, 0u) << claim_;
    std::string names;
    for (const auto& t : failed_) names += "\n  failed: " + t;
    EXPECT_LE(failed_.size(), c)
        << claim_ << ": N=" << trials_ << " p=" << p_ << " c=" << c << names;
  }

 private:
  std::string claim_;
  double p_;
  uint32_t trials_ = 0;
  std::vector<std::string> failed_;
};

// "<shape> seed <seed>", the trial name every stat row records.
inline std::string TrialName(const std::string& shape, uint64_t seed) {
  return shape + " seed " + std::to_string(seed);
}

}  // namespace gsketch

#endif  // GRAPHSKETCH_TESTS_TIER_UTIL_H_
