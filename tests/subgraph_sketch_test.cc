// Tests for the Section 4 subgraph sketch against the exact census.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/subgraph_patterns.h"
#include "src/core/subgraph_sketch.h"
#include "src/graph/generators.h"
#include "src/graph/stream.h"
#include "src/graph/subgraph_census.h"
#include "src/hash/random.h"

namespace gsketch {
namespace {

void Feed(SubgraphSketch* sk, const Graph& g) {
  for (const auto& e : g.Edges()) sk->Update(e.u, e.v, 1);
}

TEST(Patterns, CanonicalCodesDistinct) {
  auto p3 = Order3Patterns();
  EXPECT_EQ(p3.size(), 3u);
  std::set<uint32_t> codes3;
  for (const auto& p : p3) codes3.insert(p.canonical_code);
  EXPECT_EQ(codes3.size(), 3u);
  auto p4 = Order4Patterns();
  EXPECT_EQ(p4.size(), 10u);
  std::set<uint32_t> codes4;
  for (const auto& p : p4) codes4.insert(p.canonical_code);
  EXPECT_EQ(codes4.size(), 10u);
}

TEST(Patterns, NamesRoundTrip) {
  EXPECT_EQ(PatternName(3, TriangleCode()), "triangle");
  EXPECT_EQ(PatternName(4, Clique4Code()), "4-clique");
}

TEST(SubgraphSketch, CompleteGraphIsAllTriangles) {
  Graph g = CompleteGraph(12);
  SubgraphSketch sk(12, 3, /*samplers=*/30, /*reps=*/6, 1);
  Feed(&sk, g);
  auto est = sk.EstimateGamma(TriangleCode());
  EXPECT_GT(est.samples_used, 20u);
  EXPECT_DOUBLE_EQ(est.gamma, 1.0);  // every non-empty triple is a triangle
}

TEST(SubgraphSketch, StarHasNoTriangles) {
  Graph g(12);
  for (NodeId v = 1; v < 12; ++v) g.AddEdge(0, v);
  SubgraphSketch sk(12, 3, 30, 6, 2);
  Feed(&sk, g);
  auto est = sk.EstimateGamma(TriangleCode());
  EXPECT_DOUBLE_EQ(est.gamma, 0.0);
  // But wedges dominate.
  auto wedge = sk.EstimateGamma(WedgeCode());
  EXPECT_GT(wedge.gamma, 0.3);
}

TEST(SubgraphSketch, DistributionSumsToOne) {
  Graph g = ErdosRenyi(20, 0.25, 5);
  SubgraphSketch sk(20, 3, 60, 6, 6);
  Feed(&sk, g);
  auto dist = sk.EstimateDistribution();
  double total = 0;
  for (const auto& [code, mass] : dist) {
    (void)code;
    total += mass;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SubgraphSketch, DeletionsChangeEstimate) {
  // Complete graph (γ_triangle = 1), then delete down to a star
  // (γ_triangle = 0). The linear sketch must track the final graph.
  Graph g = CompleteGraph(10);
  SubgraphSketch sk(10, 3, 40, 6, 7);
  Feed(&sk, g);
  for (const auto& e : g.Edges()) {
    if (e.u != 0) sk.Update(e.u, e.v, -1);
  }
  auto tri = sk.EstimateGamma(TriangleCode());
  EXPECT_DOUBLE_EQ(tri.gamma, 0.0);
  auto wedge = sk.EstimateGamma(WedgeCode());
  EXPECT_GT(wedge.gamma, 0.3);
}

TEST(SubgraphSketch, EmptyGraphProducesNoSamples) {
  SubgraphSketch sk(10, 3, 20, 6, 8);
  auto est = sk.EstimateGamma(TriangleCode());
  EXPECT_EQ(est.samples_used, 0u);
  EXPECT_DOUBLE_EQ(est.gamma, 0.0);
}

TEST(SubgraphSketch, MergeMatchesSingleStream) {
  Graph g = ErdosRenyi(16, 0.3, 9);
  auto stream = DynamicGraphStream::FromGraph(g);
  Rng rng(10);
  auto parts = stream.Partition(2, &rng);
  SubgraphSketch a(16, 3, 25, 6, 11), b(16, 3, 25, 6, 11),
      whole(16, 3, 25, 6, 11);
  parts[0].Replay([&a](NodeId u, NodeId v, int64_t d) { a.Update(u, v, d); });
  parts[1].Replay([&b](NodeId u, NodeId v, int64_t d) { b.Update(u, v, d); });
  stream.Replay(
      [&whole](NodeId u, NodeId v, int64_t d) { whole.Update(u, v, d); });
  a.Merge(b);
  EXPECT_EQ(a.SampleCanonicalCodes(), whole.SampleCanonicalCodes());
}

TEST(SubgraphSketch, Order4CliqueDetection) {
  Graph g = CompleteGraph(8);
  SubgraphSketch sk(8, 4, 25, 6, 12);
  Feed(&sk, g);
  auto est = sk.EstimateGamma(Clique4Code());
  EXPECT_DOUBLE_EQ(est.gamma, 1.0);
}

TEST(SubgraphSketch, Order4MatchesCensus) {
  Graph g = ErdosRenyi(14, 0.35, 13);
  auto census = CensusOrder4(g);
  SubgraphSketch sk(14, 4, 150, 6, 14);
  Feed(&sk, g);
  for (const auto& p : Order4Patterns()) {
    double truth = census.Gamma(p.canonical_code);
    auto est = sk.EstimateGamma(p.canonical_code);
    EXPECT_NEAR(est.gamma, truth, 0.22) << p.name;
  }
}

TEST(SubgraphSketch, NonEmptyEstimateWithinConstantFactor) {
  Graph g = ErdosRenyi(24, 0.3, 21);
  auto census = CensusOrder3(g);
  SubgraphSketch sk(24, 3, 10, 6, 22);
  Feed(&sk, g);
  uint64_t truth = census.NonEmpty();
  uint64_t est = sk.EstimateNonEmpty();
  EXPECT_GE(est, truth / 16);
  EXPECT_LE(est, truth * 16);
}

TEST(SubgraphSketch, CountEstimateTracksTrend) {
  // Footnote 1: absolute counts via gamma * non-empty. The estimate is a
  // trend signal (constant-factor in the support term); a planted clique
  // must raise the triangle-count estimate by a large factor.
  Graph sparse = ErdosRenyi(32, 0.05, 23);
  SubgraphSketch before(32, 3, 100, 6, 24);
  Feed(&before, sparse);
  double count_before = before.EstimateCount(TriangleCode());

  Graph with_clique = sparse;
  for (NodeId u = 0; u < 10; ++u) {
    for (NodeId v = u + 1; v < 10; ++v) {
      if (!with_clique.HasEdge(u, v)) with_clique.AddEdge(u, v);
    }
  }
  SubgraphSketch after(32, 3, 100, 6, 24);
  Feed(&after, with_clique);
  double count_after = after.EstimateCount(TriangleCode());
  EXPECT_GT(count_after, count_before * 4 + 10);
}

TEST(SubgraphSketch, TriangleDensityTracksPlantedClique) {
  // Sparse background + planted clique raises triangle fraction.
  Graph g = ErdosRenyi(30, 0.05, 15);
  for (NodeId u = 0; u < 8; ++u) {
    for (NodeId v = u + 1; v < 8; ++v) {
      if (!g.HasEdge(u, v)) g.AddEdge(u, v);
    }
  }
  auto census = CensusOrder3(g);
  SubgraphSketch sk(30, 3, 150, 6, 16);
  Feed(&sk, g);
  auto est = sk.EstimateGamma(TriangleCode());
  EXPECT_NEAR(est.gamma, census.Gamma(TriangleCode()), 0.15);
  EXPECT_GT(est.gamma, 0.02);
}

}  // namespace
}  // namespace gsketch
