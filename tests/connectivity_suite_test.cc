// Tests for the [4] connectivity toolkit: connectivity, bipartiteness,
// approximate MST weight, and k-connectivity testing.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/connectivity_suite.h"
#include "src/graph/generators.h"
#include "src/graph/stream.h"
#include "src/graph/union_find.h"
#include "src/hash/random.h"

namespace gsketch {
namespace {

ForestOptions Opt() {
  ForestOptions o;
  o.repetitions = 6;
  return o;
}

TEST(Connectivity, TracksComponentsUnderDeletions) {
  ConnectivitySketch sk(12, Opt(), 1);
  // A 12-cycle: connected.
  for (NodeId v = 0; v < 12; ++v) sk.Update(v, (v + 1) % 12, 1);
  EXPECT_TRUE(sk.IsConnected());
  // Cut it twice: two paths.
  sk.Update(0, 1, -1);
  sk.Update(6, 7, -1);
  EXPECT_EQ(sk.NumComponents(), 2u);
  EXPECT_FALSE(sk.IsConnected());
}

TEST(Connectivity, ForestIsValidWitness) {
  Graph g = ErdosRenyi(30, 0.2, 3);
  ConnectivitySketch sk(30, Opt(), 5);
  for (const auto& e : g.Edges()) sk.Update(e.u, e.v, 1);
  Graph f = sk.Forest();
  EXPECT_TRUE(g.ContainsEdgesOf(f));
  EXPECT_EQ(f.NumComponents(), g.NumComponents());
  // A forest: edges = n - components.
  EXPECT_EQ(f.NumEdges(), 30u - f.NumComponents());
}

TEST(Bipartiteness, EvenCycleYes) {
  BipartitenessSketch sk(8, Opt(), 7);
  for (NodeId v = 0; v < 8; ++v) sk.Update(v, (v + 1) % 8, 1);
  EXPECT_TRUE(sk.IsBipartite());
}

TEST(Bipartiteness, OddCycleNo) {
  BipartitenessSketch sk(7, Opt(), 9);
  for (NodeId v = 0; v < 7; ++v) sk.Update(v, (v + 1) % 7, 1);
  EXPECT_FALSE(sk.IsBipartite());
}

TEST(Bipartiteness, CompleteBipartiteYes) {
  Graph g = CompleteBipartite(5, 6);
  BipartitenessSketch sk(11, Opt(), 11);
  for (const auto& e : g.Edges()) sk.Update(e.u, e.v, 1);
  EXPECT_TRUE(sk.IsBipartite());
}

TEST(Bipartiteness, TriangleDetectedInLargeBipartiteGraph) {
  Graph g = CompleteBipartite(6, 6);
  BipartitenessSketch sk(12, Opt(), 13);
  for (const auto& e : g.Edges()) sk.Update(e.u, e.v, 1);
  EXPECT_TRUE(sk.IsBipartite());
  // Add one same-side edge: creates an odd cycle.
  sk.Update(0, 1, 1);
  EXPECT_FALSE(sk.IsBipartite());
  // Deleting it restores bipartiteness (linearity).
  sk.Update(0, 1, -1);
  EXPECT_TRUE(sk.IsBipartite());
}

TEST(Bipartiteness, DeletionMakesBipartite) {
  // Odd cycle -> delete one edge -> path (bipartite).
  BipartitenessSketch sk(5, Opt(), 15);
  for (NodeId v = 0; v < 5; ++v) sk.Update(v, (v + 1) % 5, 1);
  EXPECT_FALSE(sk.IsBipartite());
  sk.Update(4, 0, -1);
  EXPECT_TRUE(sk.IsBipartite());
}

TEST(Bipartiteness, MixedComponents) {
  // One even cycle + one odd cycle: not bipartite overall.
  BipartitenessSketch sk(9, Opt(), 17);
  for (NodeId v = 0; v < 4; ++v) sk.Update(v, (v + 1) % 4, 1);
  for (NodeId v = 4; v < 9; ++v) sk.Update(v, v + 1 == 9 ? 4 : v + 1, 1);
  EXPECT_FALSE(sk.IsBipartite());
}

TEST(ApproxMst, PathWithKnownWeights) {
  // Path 0-1-2-3 with weights 1, 2, 4: MST = the path itself, weight 7.
  // Thresholds are exact powers here, so the estimate is exact.
  ApproxMstSketch sk(4, 4, 1.0, Opt(), 23);
  sk.Update(0, 1, 1, 1);
  sk.Update(1, 2, 1, 2);
  sk.Update(2, 3, 1, 4);
  EXPECT_DOUBLE_EQ(sk.EstimateWeight(), 7.0);
}

TEST(ApproxMst, HeavyEdgeAvoidedWhenCheapCycleExists) {
  // Cycle with one heavy edge: MST uses the cheap edges only.
  ApproxMstSketch sk(4, 64, 1.0, Opt(), 25);
  sk.Update(0, 1, 1, 1);
  sk.Update(1, 2, 1, 1);
  sk.Update(2, 3, 1, 1);
  sk.Update(3, 0, 1, 64);  // heavy chord, not needed
  EXPECT_DOUBLE_EQ(sk.EstimateWeight(), 3.0);
}

TEST(ApproxMst, WithinOnePlusEpsilonOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Graph g = ErdosRenyi(20, 0.4, seed);
    if (g.NumComponents() != 1) continue;
    Graph w = WithRandomWeights(g, 30, seed + 50);
    // Exact MST via Kruskal on the materialized graph.
    std::vector<WeightedEdge> edges = w.Edges();
    std::sort(edges.begin(), edges.end(),
              [](const WeightedEdge& a, const WeightedEdge& b) {
                return a.weight < b.weight;
              });
    UnionFind uf(20);
    double exact = 0;
    for (const auto& e : edges) {
      if (uf.Union(e.u, e.v)) exact += e.weight;
    }
    double eps = 0.25;
    ApproxMstSketch sk(20, 30, eps, Opt(), seed + 100);
    for (const auto& e : w.Edges()) {
      sk.Update(e.u, e.v, 1, static_cast<int64_t>(e.weight));
    }
    double est = sk.EstimateWeight();
    EXPECT_GE(est, exact * 0.999) << seed;  // never underestimates
    EXPECT_LE(est, exact * (1 + eps) + 1e-9) << seed;
  }
}

TEST(ApproxMst, DisconnectedGivesForestWeight) {
  ApproxMstSketch sk(6, 4, 1.0, Opt(), 27);
  sk.Update(0, 1, 1, 2);
  sk.Update(3, 4, 1, 4);
  EXPECT_DOUBLE_EQ(sk.EstimateWeight(), 6.0);
}

TEST(KConnectivity, DisconnectedNeverKConnected) {
  KConnectivityTester sk(8, 1, Opt(), 41);
  sk.Update(0, 1, 1);
  sk.Update(2, 3, 1);
  EXPECT_FALSE(sk.IsKConnected());
  EXPECT_DOUBLE_EQ(sk.WitnessMinCut(), 0.0);
}

TEST(Suite, DistributedMergeAllSketches) {
  Graph g = ErdosRenyi(20, 0.3, 43);
  auto stream = DynamicGraphStream::FromGraph(g);
  Rng rng(45);
  auto parts = stream.Partition(2, &rng);

  BipartitenessSketch ba(20, Opt(), 47), bb(20, Opt(), 47),
      bw(20, Opt(), 47);
  ApproxMstSketch ma(20, 1, 0.5, Opt(), 49), mb(20, 1, 0.5, Opt(), 49),
      mw(20, 1, 0.5, Opt(), 49);
  parts[0].Replay([&](NodeId u, NodeId v, int64_t d) {
    ba.Update(u, v, d);
    ma.Update(u, v, d, 1);
  });
  parts[1].Replay([&](NodeId u, NodeId v, int64_t d) {
    bb.Update(u, v, d);
    mb.Update(u, v, d, 1);
  });
  stream.Replay([&](NodeId u, NodeId v, int64_t d) {
    bw.Update(u, v, d);
    mw.Update(u, v, d, 1);
  });
  ba.Merge(bb);
  ma.Merge(mb);
  EXPECT_EQ(ba.IsBipartite(), bw.IsBipartite());
  EXPECT_DOUBLE_EQ(ma.EstimateWeight(), mw.EstimateWeight());
}

}  // namespace
}  // namespace gsketch
