// Stat tier (`ctest -L stat`), connectivity and spanners: forest decode
// of the registered `connectivity` family, the k-EDGECONNECT witness
// (Theorem 2.3), the registered bipartite / mst / kconnect answers, and
// the Section 5 spanners (Baswana–Sen and RECURSECONNECT, at their option
// defaults). Every row states the per-trial failure probability p it
// claims and passes when its failures stay within the binomial bound of
// tests/tier_util.h.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/baswana_sen.h"
#include "src/core/k_edge_connect.h"
#include "src/core/recurse_connect.h"
#include "src/core/sketch_registry.h"
#include "src/graph/bfs.h"
#include "src/graph/cuts.h"
#include "src/graph/generators.h"
#include "src/graph/spanner_check.h"
#include "src/graph/stoer_wagner.h"
#include "src/graph/stream.h"
#include "src/graph/union_find.h"
#include "src/hash/random.h"
#include "tests/tier_util.h"

namespace gsketch {
namespace {

Graph Cycle(NodeId n) {
  Graph g(n);
  for (NodeId v = 0; v < n; ++v) g.AddEdge(v, (v + 1) % n);
  return g;
}

// Row 3 — forest decode of the registered `connectivity` family at its
// shipped ForestOptions, n = 1024, against union-find truth: the
// component count and two `connected` queries. AGM12's Borůvka decode
// succeeds with high probability.
TEST(StatGraph, ForestDecode) {
  constexpr NodeId kN = 1024;
  StatRow row("forest decode (registered connectivity, n=1024)",
              WhpFailure(kN));
  Graph path(kN), star(kN);
  for (NodeId v = 1; v < kN; ++v) {
    path.AddEdge(v - 1, v);
    star.AddEdge(0, v);
  }
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    // 2n edges, 60 % of them deleted again.
    DynamicGraphStream churn(kN);
    const Graph dense = ErdosRenyiM(kN, 2 * kN, seed);
    Rng rng(seed);
    for (const auto& e : dense.Edges()) churn.Push(e.u, e.v, 1);
    for (const auto& e : dense.Edges()) {
      if (rng.Below(10) < 6) churn.Push(e.u, e.v, -1);
    }
    const std::vector<std::pair<std::string, DynamicGraphStream>> shapes = {
        {"path", DynamicGraphStream::FromGraph(path)},
        {"star", DynamicGraphStream::FromGraph(star)},
        {"grid 32x32", DynamicGraphStream::FromGraph(GridGraph(32, 32))},
        {"ER(n, 0.6n)",
         DynamicGraphStream::FromGraph(ErdosRenyiM(kN, 6 * kN / 10, seed))},
        {"dumbbell 2 x ER(512, 0.02)",
         DynamicGraphStream::FromGraph(Dumbbell(kN / 2, 0.02, 1, seed))},
        {"ER(n, 2n), 60% deleted", churn},
    };
    for (const auto& [shape, stream] : shapes) {
      const std::string trial = TrialName(shape, seed);
      SCOPED_TRACE(trial);
      const Graph g = stream.Materialize();
      UnionFind truth(kN);
      for (const auto& e : g.Edges()) truth.Union(e.u, e.v);
      auto sk = SketchOf("connectivity", stream, seed);
      bool ok = MustQuery(*sk, "components") ==
                std::to_string(truth.NumComponents());
      const NodeId u = static_cast<NodeId>(rng.Below(kN));
      for (NodeId v : {kN - 1, static_cast<NodeId>(rng.Below(kN))}) {
        if (u == v) continue;
        const std::string q =
            "connected " + std::to_string(u) + " " + std::to_string(v);
        ok = ok && MustQuery(*sk, q) == (truth.Connected(u, v) ? "yes" : "no");
      }
      row.Record(ok, trial);
    }
  }
  row.Check();
}

// Row 4 — Theorem 2.3: the k-EDGECONNECT witness H satisfies, for every
// node subset A with |δ(A)| < k, δ_H(A) = δ_G(A), and every other cut of
// H has at least k edges — checked exhaustively on small graphs. H ⊆ G
// holds always.
TEST(StatGraph, WitnessThm23) {
  constexpr NodeId kN = 12;
  StatRow cuts("Thm 2.3 witness cut preservation (n=12)", WhpFailure(kN));
  StatRow subgraph("Thm 2.3 witness edges are edges of G", 0.0);
  for (uint32_t k : {2u, 3u, 5u}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const std::string trial =
          TrialName("ER(12, 0.35) k=" + std::to_string(k), seed);
      SCOPED_TRACE(trial);
      Graph g = ErdosRenyi(kN, 0.35, seed);
      KEdgeConnectSketch sk(kN, k, ForestOptions{}, seed * 7 + k);
      for (const auto& e : g.Edges()) sk.Update(e.u, e.v, 1);
      Graph h = sk.ExtractWitness();
      subgraph.Record(g.ContainsEdgesOf(h), trial);
      bool ok = true;
      for (const auto& side : EnumerateAllCuts(kN)) {
        const double cut_g = CutValue(g, side);
        const double cut_h = CutValue(h, side);
        ok = ok && (cut_g < k ? cut_h == cut_g : cut_h >= k);
      }
      cuts.Record(ok, trial);
    }
  }
  cuts.Check();
  subgraph.Check();
}

// Row 10 — the [4] connectivity suite through the registry: `bipartite`
// against BFS 2-colouring, unweighted `mst` against n - components, and
// the `kconnect` threshold against the Stoer–Wagner min cut λ (below k
// the witness cut is λ exactly; otherwise it is at least k). Each is
// exact with high probability.
TEST(StatGraph, ConnectivitySuite) {
  StatRow bipartite("bipartite exact (registered, n>=64)", WhpFailure(64));
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Graph grid_odd = GridGraph(16, 16);
    grid_odd.AddEdge(0, 17);  // a triangle 0-1-17
    Graph two_cycles(65);
    for (NodeId v = 0; v < 32; ++v) two_cycles.AddEdge(v, (v + 1) % 32);
    for (NodeId v = 32; v < 65; ++v) {
      two_cycles.AddEdge(v, v + 1 == 65 ? 32 : v + 1);
    }
    // K(30, 34) with a same-side edge inserted, and deleted again.
    Graph kb = CompleteBipartite(30, 34);
    DynamicGraphStream kb_churn = DynamicGraphStream::FromGraph(kb);
    kb_churn.Push(0, 1, 1);
    DynamicGraphStream kb_odd = DynamicGraphStream::FromGraph(kb);
    kb_odd.Push(0, 1, 1);
    kb_churn.Push(0, 1, -1);
    const std::vector<std::pair<std::string, DynamicGraphStream>> shapes = {
        {"grid 16x16", DynamicGraphStream::FromGraph(GridGraph(16, 16))},
        {"grid 16x16 + diagonal", DynamicGraphStream::FromGraph(grid_odd)},
        {"cycle 64", DynamicGraphStream::FromGraph(Cycle(64))},
        {"cycle 65", DynamicGraphStream::FromGraph(Cycle(65))},
        {"cycles 32 + 33", DynamicGraphStream::FromGraph(two_cycles)},
        {"tree BA(64, 2, 1)",
         DynamicGraphStream::FromGraph(BarabasiAlbert(64, 2, 1, seed))},
        {"ER(64, 0.03)",
         DynamicGraphStream::FromGraph(ErdosRenyi(64, 0.03, seed))},
        {"K(30, 34) + same-side edge", kb_odd},
        {"K(30, 34) + same-side edge, deleted", kb_churn},
    };
    for (const auto& [shape, stream] : shapes) {
      const std::string trial = TrialName(shape, seed);
      SCOPED_TRACE(trial);
      auto sk = SketchOf("bipartite", stream, seed);
      bipartite.Record(MustQuery(*sk, "bipartite") ==
                           (IsBipartiteExact(stream.Materialize()) ? "yes"
                                                                   : "no"),
                       trial);
    }
  }
  bipartite.Check();

  StatRow mst("unweighted mst = n - components (registered, n>=24)",
              WhpFailure(24));
  const std::vector<std::tuple<std::string, Graph, uint64_t>> mst_inputs = {
      {"ER(64, 0.03)", ErdosRenyi(64, 0.03, 1), 1},
      {"ER(64, 0.03)", ErdosRenyi(64, 0.03, 2), 2},
      {"grid 16x16", GridGraph(16, 16), 3},
      {"cycle 64", Cycle(64), 4},
      {"dumbbell 2 x ER(32, 0.3)", Dumbbell(32, 0.3, 1, 5), 5},
      {"ER(24, 0.3) graph seed 19", ErdosRenyi(24, 0.3, 19), 21},
  };
  for (const auto& [shape, g, seed] : mst_inputs) {
    const std::string trial = TrialName(shape, seed);
    SCOPED_TRACE(trial);
    auto sk = SketchOf("mst", DynamicGraphStream::FromGraph(g), seed);
    mst.Record(MustQuery(*sk, "mstweight") ==
                   std::to_string(g.NumNodes() - g.NumComponents()),
               trial);
  }
  mst.Check();

  StatRow kconnect("kconnect threshold exact (registered, n>=20)",
                   WhpFailure(20));
  std::vector<std::tuple<std::string, Graph, uint32_t, uint64_t>> k_inputs;
  for (uint32_t bridges = 1; bridges <= 4; ++bridges) {
    k_inputs.emplace_back("dumbbell 2 x ER(32, 0.5), " +
                              std::to_string(bridges) + " bridges",
                          Dumbbell(32, 0.5, bridges, bridges), 3, bridges);
  }
  k_inputs.emplace_back("grid 16x16", GridGraph(16, 16), 3, 5);
  k_inputs.emplace_back("K_16", CompleteGraph(16), 3, 6);
  k_inputs.emplace_back("planted 4 x 16",
                        PlantedPartition(64, 4, 0.5, 0.02, 7), 3, 7);
  // A small dense dumbbell with min cut 3, at k = 3 and k = 4.
  for (auto [k, seed] : {std::pair<uint32_t, uint64_t>{3, 33}, {4, 34},
                         {3, 37}, {4, 39}}) {
    k_inputs.emplace_back("dumbbell 2 x ER(10, 0.9), 3 bridges",
                          Dumbbell(10, 0.9, 3, 29), k, seed);
  }
  for (const auto& [shape, g, k, seed] : k_inputs) {
    const std::string trial =
        TrialName(shape + " k=" + std::to_string(k), seed);
    SCOPED_TRACE(trial);
    AlgOptions opt;
    opt.k = k;
    auto sk = SketchOf("kconnect", DynamicGraphStream::FromGraph(g), seed, opt);
    const double lambda = StoerWagnerMinCut(g).value;
    const double witness = std::stod(MustQuery(*sk, "witnesscut"));
    const bool connected = MustQuery(*sk, "kconnected") == "yes";
    kconnect.Record(lambda < k ? witness == lambda && !connected
                               : witness >= k && connected,
                    trial);
  }
  kconnect.Check();
}

// The spanner rows' inputs: the four graphs of the Section 5 experiments
// and a churned stream (a third of the edges inserted and deleted again,
// shuffled).
std::vector<std::tuple<std::string, Graph, DynamicGraphStream>>
SpannerInputs() {
  std::vector<std::tuple<std::string, Graph, DynamicGraphStream>> inputs;
  for (auto [name, g] : {std::pair<std::string, Graph>{"ER(96, 0.2)",
                                                       ErdosRenyi(96, 0.2, 3)},
                         {"ER(96, 0.5)", ErdosRenyi(96, 0.5, 5)},
                         {"grid 10x10", GridGraph(10, 10)},
                         {"BA(96, 4, 3)", BarabasiAlbert(96, 4, 3, 7)}}) {
    inputs.emplace_back(name, g, DynamicGraphStream::FromGraph(g));
  }
  Graph er = ErdosRenyi(96, 0.2, 3);
  Rng rng(303);
  inputs.emplace_back("ER(96, 0.2) + churn", er,
                      DynamicGraphStream::FromGraph(er)
                          .WithChurn(er.NumEdges() / 3, &rng)
                          .Shuffled(&rng));
  return inputs;
}

// Rows 8 and 9 — Section 5: a scheme's spanner H is a subgraph of G, it
// runs its stated number of passes, and w.h.p. it connects every pair G
// connects within the stretch bound (2k-1 for Baswana–Sen, k^log2(5) - 1
// for RECURSECONNECT).
template <typename Spanner, typename Options>
void CheckSpannerRow(const std::string& scheme, uint32_t (*passes)(uint32_t),
                     double (*stretch_bound)(uint32_t)) {
  StatRow stretch(scheme + " stretch and connectivity (n>=96)",
                  WhpFailure(96));
  StatRow exact(scheme + " passes and H subgraph of G", 0.0);
  const auto inputs = SpannerInputs();
  for (uint32_t k : {2u, 3u, 4u}) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      const auto& [shape, g, stream] = inputs[i];
      for (uint64_t seed : {100 * k + i, 200 * k + i}) {
        const std::string trial =
            TrialName(shape + " k=" + std::to_string(k), seed);
        SCOPED_TRACE(trial);
        Options opt;
        opt.k = k;
        Spanner sp(g.NumNodes(), opt, seed);
        sp.Run(stream);
        auto stats = CheckSpanner(g, sp.Spanner(), 0, seed);
        exact.Record(stats.is_subgraph && sp.NumPasses() == passes(k), trial);
        stretch.Record(stats.disconnected_pairs == 0 &&
                           stats.max_stretch <= stretch_bound(k) + 1e-9,
                       trial);
      }
    }
  }
  stretch.Check();
  exact.Check();
}

TEST(StatGraph, BaswanaSenSec5) {
  CheckSpannerRow<BaswanaSenSpanner, BaswanaSenOptions>(
      "Baswana-Sen", [](uint32_t k) { return k; },
      [](uint32_t k) { return 2.0 * k - 1; });
}

TEST(StatGraph, RecurseConnectThm51) {
  CheckSpannerRow<RecurseConnectSpanner, RecurseConnectOptions>(
      "RECURSECONNECT",
      [](uint32_t k) {
        return static_cast<uint32_t>(std::ceil(std::log2(k))) + 1;
      },
      [](uint32_t k) { return std::pow(k, std::log2(5.0)) - 1; });
}

}  // namespace
}  // namespace gsketch
