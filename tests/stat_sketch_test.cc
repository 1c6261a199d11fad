// Stat tier (`ctest -L stat`), sketch primitives and subgraph sampling:
// ℓ₀ sampling (Theorem 2.1), k-RECOVERY (Theorem 2.2) and the γ_H
// estimate of the registered `triangles` family (Theorem 4.1). Every row
// states the per-trial failure probability p it claims and passes when
// its failures stay within the binomial bound of tests/tier_util.h. Seeds
// are fixed, and sketch bytes are the same on every kernel backend, so
// every run counts the same failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/sketch_registry.h"
#include "src/core/subgraph_patterns.h"
#include "src/core/subgraph_sketch.h"
#include "src/graph/generators.h"
#include "src/graph/stream.h"
#include "src/graph/subgraph_census.h"
#include "src/hash/random.h"
#include "src/sketch/l0_sampler.h"
#include "src/sketch/sparse_recovery.h"
#include "tests/tier_util.h"

namespace gsketch {
namespace {

// A random vector with `support` nonzero entries in [-4, 4] over
// [0, domain).
std::map<uint64_t, int64_t> RandomVector(uint64_t domain, size_t support,
                                         Rng* rng) {
  std::map<uint64_t, int64_t> x;
  while (x.size() < support) {
    int64_t v = static_cast<int64_t>(rng->Below(8)) - 4;
    x[rng->Below(domain)] = v >= 0 ? v + 1 : v;
  }
  return x;
}

// Row 1 — Theorem 2.1, at the forest's shipped ForestOptions::repetitions.
// A repetition decodes iff its deepest occupied level holds exactly one
// support element. For any support of size s >= 2 that happens with
// probability at least 2/3 (exactly 2/3 at s = 2), so a sampler fails
// with p <= 3^-6. A singleton always decodes, and a returned sample is
// always in the support with its exact value. Each vector also carries
// as many decoys, inserted and deleted again.
TEST(StatSketch, L0SamplingThm21) {
  const uint32_t reps = ForestOptions{}.repetitions;
  ASSERT_EQ(reps, 6u);
  StatRow fails("Thm 2.1 l0 sampler (6 repetitions) returns no sample",
                std::pow(3.0, -6.0));
  StatRow singleton("Thm 2.1 l0 sampler of a singleton returns no sample",
                    0.0);
  StatRow wrong("Thm 2.1 l0 sample outside the support or with a wrong value",
                0.0);
  constexpr uint64_t kDomain = uint64_t{1} << 20;
  struct Input {
    size_t support;
    int trials;
  };
  for (const Input& in : {Input{1, 500}, Input{2, 3000}, Input{3, 1000},
                          Input{8, 500}, Input{64, 200}, Input{512, 50}}) {
    for (int t = 0; t < in.trials; ++t) {
      const uint64_t seed = in.support * 100003 + t;
      const std::string trial =
          TrialName("support " + std::to_string(in.support), seed);
      SCOPED_TRACE(trial);
      Rng rng(seed);
      auto x = RandomVector(kDomain, in.support, &rng);
      auto decoys = RandomVector(kDomain, in.support, &rng);
      L0Sampler s(kDomain, reps, seed);
      for (const auto& [i, v] : decoys) {
        if (x.count(i) == 0) s.Update(i, v);
      }
      for (const auto& [i, v] : x) s.Update(i, v);
      for (const auto& [i, v] : decoys) {
        if (x.count(i) == 0) s.Update(i, -v);
      }
      auto r = s.Sample();
      (in.support == 1 ? singleton : fails).Record(r.has_value(), trial);
      if (r.has_value()) {
        auto it = x.find(r->index);
        wrong.Record(it != x.end() && it->second == r->value, trial);
      }
    }
  }
  for (uint64_t seed = 0; seed < 20; ++seed) {
    L0Sampler s(kDomain, reps, seed);
    s.Update(777, 5);
    auto r = s.Sample();
    const std::string trial = TrialName("singleton 777", seed);
    singleton.Record(r.has_value(), trial);
    if (r.has_value()) wrong.Record(r->index == 777 && r->value == 5, trial);
  }
  fails.Check();
  singleton.Check();
  wrong.Check();
}

// Row 1b — Theorem 2.1 at the count the registered `connectivity` and
// `forest` families ship (kConnectivityRepetitions), on row 1's vectors:
// a sampler of a support s >= 2 fails with p <= 3^-R, and a sample is
// always in the support with its exact value.
TEST(StatSketch, L0SamplingAtConnectivityRepetitions) {
  const uint32_t reps = kConnectivityRepetitions;
  StatRow fails("Thm 2.1 l0 sampler (" + std::to_string(reps) +
                    " repetitions, connectivity) returns no sample",
                std::pow(3.0, -static_cast<double>(reps)));
  StatRow wrong("Thm 2.1 l0 sample (" + std::to_string(reps) +
                    " repetitions) outside the support or with a wrong value",
                0.0);
  constexpr uint64_t kDomain = uint64_t{1} << 20;
  for (const auto& [support, trials] :
       {std::pair<size_t, int>{2, 3000}, {3, 1000}, {8, 500}, {64, 200},
        {512, 50}}) {
    for (int t = 0; t < trials; ++t) {
      const uint64_t seed = support * 100003 + t;
      const std::string trial =
          TrialName("support " + std::to_string(support), seed);
      SCOPED_TRACE(trial);
      Rng rng(seed);
      auto x = RandomVector(kDomain, support, &rng);
      auto decoys = RandomVector(kDomain, support, &rng);
      L0Sampler s(kDomain, reps, seed);
      for (const auto& [i, v] : decoys) {
        if (x.count(i) == 0) s.Update(i, v);
      }
      for (const auto& [i, v] : x) s.Update(i, v);
      for (const auto& [i, v] : decoys) {
        if (x.count(i) == 0) s.Update(i, -v);
      }
      auto r = s.Sample();
      fails.Record(r.has_value(), trial);
      if (r.has_value()) {
        auto it = x.find(r->index);
        wrong.Record(it != x.end() && it->second == r->value, trial);
      }
    }
  }
  fails.Check();
  wrong.Check();
}

// Row 2 — Theorem 2.2, k-RECOVERY with 3 rows of 2k cells (the rows Fig. 3
// and RECURSECONNECT build with). A decode at support s <= k fails only
// when peeling meets a stopping set. The dominant one is a pair sharing
// its cell in all three rows, expected C(s,2)/(2k)^3 <= 1/(16k) times, so
// each capacity's row claims p = 1/(8k). Above capacity a decode may
// FAIL, but one that succeeds is exact at every fill.
TEST(StatSketch, KRecoveryThm22) {
  StatRow wrong("Thm 2.2 k-RECOVERY decodes a wrong vector", 0.0);
  for (uint32_t cap : {4u, 16u, 64u}) {
    StatRow exact("Thm 2.2 k-RECOVERY k=" + std::to_string(cap) +
                      " not exact at support <= k",
                  1.0 / (8.0 * cap));
    for (double fill : {0.25, 0.5, 1.0, 2.0, 8.0}) {
      const size_t support = std::max<size_t>(1, cap * fill);
      for (int t = 0; t < 200; ++t) {
        const uint64_t seed = 100 * cap + t;
        const std::string trial = TrialName(
            "k=" + std::to_string(cap) + " support " + std::to_string(support),
            seed);
        SCOPED_TRACE(trial);
        Rng rng(t);
        auto x = RandomVector(1 << 16, support, &rng);
        SparseRecovery s(1 << 16, cap, 3, seed);
        for (const auto& [i, v] : x) s.Update(i, v);
        auto r = s.Decode();
        const bool is_exact =
            r.ok && r.entries == std::vector<std::pair<uint64_t, int64_t>>(
                                     x.begin(), x.end());
        if (r.ok) wrong.Record(is_exact, trial);
        if (support <= cap) exact.Record(is_exact, trial);
      }
    }
    if (cap == 16) {
      // Unit values at full capacity over a 2^18 domain.
      for (uint64_t seed = 0; seed < 30; ++seed) {
        Rng rng(seed + 100);
        std::map<uint64_t, int64_t> x;
        while (x.size() < cap) x[rng.Below(1 << 18)] = 1;
        SparseRecovery s(1 << 18, cap, 3, seed);
        for (const auto& [i, v] : x) s.Update(i, v);
        auto r = s.Decode();
        const bool is_exact =
            r.ok && r.entries == std::vector<std::pair<uint64_t, int64_t>>(
                                     x.begin(), x.end());
        const std::string trial = TrialName("k=16 full, domain 2^18", seed);
        if (r.ok) wrong.Record(is_exact, trial);
        exact.Record(is_exact, trial);
      }
    }
    exact.Check();
  }
  wrong.Check();
}

// Row 7 — Theorem 4.1, the registered `triangles` family (its default 200
// samplers) against the exact order-3 census. With s samples, Hoeffding
// bounds one pattern's additive error above ε by 2·exp(-2sε²); a trial
// fails when any of the three patterns misses, so the row claims the
// union 6·exp(-2sε²) at the fewest samples any trial used.
TEST(StatSketch, SubgraphGammaThm41) {
  constexpr double kEps = 0.15;
  struct Trial {
    std::string name;
    bool ok;
  };
  std::vector<Trial> trials;
  size_t min_samples = AlgOptions{}.triangle_samplers;
  auto run = [&](const std::string& shape, const DynamicGraphStream& stream,
                 uint64_t seed) {
    const std::string name = TrialName(shape, seed);
    SCOPED_TRACE(name);
    const Graph g = stream.Materialize();
    std::string bytes;
    SketchOf("triangles", stream, seed)->AppendTo(&bytes);
    ByteReader r(bytes);
    auto sub = SubgraphSketch::Deserialize(&r);
    ASSERT_TRUE(sub.has_value());
    const auto census = CensusOrder3(g);
    bool ok = true;
    for (const auto& pat : Order3Patterns()) {
      auto est = sub->EstimateGamma(pat.canonical_code);
      min_samples = std::min(min_samples, est.samples_used);
      ok = ok && std::abs(est.gamma - census.Gamma(pat.canonical_code)) <= kEps;
    }
    trials.push_back({name, ok});
  };
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    run("ER(24, 0.3)", DynamicGraphStream::FromGraph(ErdosRenyi(24, 0.3, seed)),
        seed);
    run("ER(24, 0.7)", DynamicGraphStream::FromGraph(ErdosRenyi(24, 0.7, seed)),
        seed);
    run("planted 3 x 8",
        DynamicGraphStream::FromGraph(PlantedPartition(24, 3, 0.8, 0.05, seed)),
        seed);
    run("BA(24, 3, 2)",
        DynamicGraphStream::FromGraph(BarabasiAlbert(24, 3, 2, seed)), seed);
    // Insert ER(24, 0.6), then delete every second edge again.
    DynamicGraphStream churn(24);
    const Graph dense = ErdosRenyi(24, 0.6, seed);
    for (const auto& e : dense.Edges()) churn.Push(e.u, e.v, 1);
    for (size_t i = 0; i < dense.NumEdges(); i += 2) {
      churn.Push(dense.Edges()[i].u, dense.Edges()[i].v, -1);
    }
    run("ER(24, 0.6) half deleted", churn, seed);
  }
  run("ER(24, 0.3) graph seed 3",
      DynamicGraphStream::FromGraph(ErdosRenyi(24, 0.3, 3)), 4);
  StatRow row("Thm 4.1 gamma_H additive error > 0.15, " +
                  std::to_string(min_samples) + " samples",
              6.0 * std::exp(-2.0 * min_samples * kEps * kEps));
  for (const Trial& t : trials) row.Record(t.ok, t.name);
  row.Check();
}

}  // namespace
}  // namespace gsketch
