// Cross-cutting property tests: invariants that must hold for every seed,
// workload, and parameterization — swept with TEST_P.
#include <gtest/gtest.h>

#include <tuple>

#include "src/core/k_edge_connect.h"
#include "src/core/min_cut.h"
#include "src/core/simple_sparsifier.h"
#include "src/core/spanning_forest.h"
#include "src/core/subgraph_patterns.h"
#include "src/core/subgraph_sketch.h"
#include "src/graph/cuts.h"
#include "src/graph/generators.h"
#include "src/graph/stoer_wagner.h"
#include "src/graph/stream.h"
#include "src/graph/subgraph_census.h"
#include "src/hash/random.h"

namespace gsketch {
namespace {

Graph MakeWorkload(int kind, NodeId n, uint64_t seed) {
  switch (kind) {
    case 0:
      return ErdosRenyi(n, 0.15, seed);
    case 1:
      return ErdosRenyi(n, 0.5, seed);
    case 2:
      return GridGraph(n / 6, 6);
    case 3:
      return BarabasiAlbert(n, 4, 2, seed);
    default:
      return PlantedPartition(n, 3, 0.4, 0.05, seed);
  }
}

// ---------------------------------------------------------------------
// Forest invariants: for any workload and seed, the extracted forest is
// (a) a subgraph, (b) acyclic (edges = n - components), (c) component-
// exact, and (d) invariant under stream order.
class ForestProperty
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(ForestProperty, ForestInvariants) {
  auto [kind, seed] = GetParam();
  const NodeId n = 36;
  Graph g = MakeWorkload(kind, n, seed);
  ForestOptions opt;
  opt.repetitions = 6;
  SpanningForestSketch sk(n, opt, seed * 31 + kind);
  for (const auto& e : g.Edges()) sk.Update(e.u, e.v, 1);
  Graph f = sk.ExtractForest();
  EXPECT_TRUE(g.ContainsEdgesOf(f));
  EXPECT_EQ(f.NumComponents(), g.NumComponents());
  EXPECT_EQ(f.NumEdges(), n - f.NumComponents());  // acyclic + spanning
}

TEST_P(ForestProperty, StreamOrderInvariance) {
  auto [kind, seed] = GetParam();
  const NodeId n = 36;
  Graph g = MakeWorkload(kind, n, seed);
  auto stream = DynamicGraphStream::FromGraph(g);
  Rng rng(seed);
  auto shuffled = stream.Shuffled(&rng);
  ForestOptions opt;
  opt.repetitions = 6;
  SpanningForestSketch a(n, opt, 99), b(n, opt, 99);
  stream.Replay([&a](NodeId u, NodeId v, int64_t d) { a.Update(u, v, d); });
  shuffled.Replay([&b](NodeId u, NodeId v, int64_t d) { b.Update(u, v, d); });
  // Linear sketches: same multiset of updates => identical state.
  Graph fa = a.ExtractForest(), fb = b.ExtractForest();
  EXPECT_EQ(fa.NumEdges(), fb.NumEdges());
  for (const auto& e : fa.Edges()) EXPECT_TRUE(fb.HasEdge(e.u, e.v));
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndSeeds, ForestProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values<uint64_t>(1, 2, 3)));

// ---------------------------------------------------------------------
// Witness invariants: the k-EDGECONNECT witness H satisfies, for every
// node subset A with |δ(A)| < k, δ_H(A) = δ_G(A) — checked exhaustively
// on small graphs.
class WitnessProperty
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(WitnessProperty, SmallCutsPreservedExhaustively) {
  auto [k, seed] = GetParam();
  const NodeId n = 12;
  Graph g = ErdosRenyi(n, 0.35, seed);
  ForestOptions opt;
  opt.repetitions = 6;
  KEdgeConnectSketch sk(n, k, opt, seed * 7 + k);
  for (const auto& e : g.Edges()) sk.Update(e.u, e.v, 1);
  Graph h = sk.ExtractWitness();
  EXPECT_TRUE(g.ContainsEdgesOf(h));
  for (const auto& side : EnumerateAllCuts(n)) {
    double cut_g = CutValue(g, side);
    if (cut_g < k) {
      EXPECT_DOUBLE_EQ(CutValue(h, side), cut_g)
          << "a <k cut lost an edge (k=" << k << ")";
    } else {
      EXPECT_GE(CutValue(h, side), static_cast<double>(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KAndSeeds, WitnessProperty,
    ::testing::Combine(::testing::Values<uint32_t>(2, 3, 5),
                       ::testing::Values<uint64_t>(1, 2, 3, 4)));

// ---------------------------------------------------------------------
// MINCUT never reports below the true min cut when resolved at level 0,
// and always reports 0 for disconnected graphs.
class MinCutProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinCutProperty, Level0IsExact) {
  uint64_t seed = GetParam();
  Graph g = ErdosRenyi(24, 0.2, seed);
  MinCutOptions opt;
  opt.epsilon = 0.5;
  opt.k_scale = 2.0;
  opt.forest.repetitions = 6;
  MinCutSketch sk(24, opt, seed + 500);
  for (const auto& e : g.Edges()) sk.Update(e.u, e.v, 1);
  auto est = sk.Estimate();
  double exact = StoerWagnerMinCut(g).value;
  if (est.level == 0) {
    EXPECT_DOUBLE_EQ(est.value, exact) << seed;
  }
  EXPECT_TRUE(est.resolved);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinCutProperty,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------
// Sparsifier: total weight approximates total edge mass, only real edges
// appear, and churn leaves the output bit-identical.
class SparsifierProperty
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(SparsifierProperty, MassAndMembership) {
  auto [kind, seed] = GetParam();
  const NodeId n = 36;
  Graph g = MakeWorkload(kind, n, seed);
  SimpleSparsifierOptions opt;
  opt.k_override = 10;
  opt.max_level = 8;
  opt.forest.repetitions = 6;
  SimpleSparsifier sk(n, opt, seed * 13 + kind);
  for (const auto& e : g.Edges()) sk.Update(e.u, e.v, 1);
  Graph h = sk.Extract();
  EXPECT_TRUE(g.ContainsEdgesOf(h));
  if (g.NumEdges() > 0) {
    EXPECT_GT(h.NumEdges(), 0u);
    EXPECT_NEAR(h.TotalWeight(), g.TotalWeight(), 0.75 * g.TotalWeight());
  }
}

TEST_P(SparsifierProperty, ChurnInvariance) {
  auto [kind, seed] = GetParam();
  const NodeId n = 36;
  Graph g = MakeWorkload(kind, n, seed);
  auto clean = DynamicGraphStream::FromGraph(g);
  Rng rng(seed);
  auto churned = clean.WithChurn(50, &rng);
  SimpleSparsifierOptions opt;
  opt.k_override = 8;
  opt.max_level = 8;
  opt.forest.repetitions = 6;
  SimpleSparsifier a(n, opt, 777), b(n, opt, 777);
  clean.Replay([&a](NodeId u, NodeId v, int64_t d) { a.Update(u, v, d); });
  churned.Replay([&b](NodeId u, NodeId v, int64_t d) { b.Update(u, v, d); });
  Graph ha = a.Extract(), hb = b.Extract();
  EXPECT_EQ(ha.NumEdges(), hb.NumEdges());
  for (const auto& e : ha.Edges()) {
    EXPECT_DOUBLE_EQ(hb.EdgeWeight(e.u, e.v), e.weight);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndSeeds, SparsifierProperty,
    ::testing::Combine(::testing::Values(0, 1, 3),
                       ::testing::Values<uint64_t>(1, 2)));

// ---------------------------------------------------------------------
// Subgraph sketch: the estimated distribution is a probability
// distribution supported on real isomorphism classes, and gamma estimates
// are within additive tolerance across densities.
class SubgraphProperty
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(SubgraphProperty, DistributionIsCalibrated) {
  auto [p, seed] = GetParam();
  const NodeId n = 24;
  Graph g = ErdosRenyi(n, p, seed);
  auto census = CensusOrder3(g);
  SubgraphSketch sk(n, 3, 150, 6, seed * 17 + 3);
  for (const auto& e : g.Edges()) sk.Update(e.u, e.v, 1);
  auto dist = sk.EstimateDistribution();
  double total = 0;
  for (const auto& [code, mass] : dist) {
    // Every sampled class must exist in the exact census.
    EXPECT_GT(census.counts.count(code), 0u) << "phantom pattern " << code;
    total += mass;
  }
  if (!dist.empty()) {
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  for (const auto& pat : Order3Patterns()) {
    double truth = census.Gamma(pat.canonical_code);
    auto est = sk.EstimateGamma(pat.canonical_code);
    EXPECT_NEAR(est.gamma, truth, 0.25) << pat.name << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DensitiesAndSeeds, SubgraphProperty,
    ::testing::Combine(::testing::Values(0.1, 0.3, 0.7),
                       ::testing::Values<uint64_t>(1, 2)));

}  // namespace
}  // namespace gsketch
