// Stat tier (`ctest -L stat`), connectivity and spanners: forest decode
// of the registered `connectivity` family, the k-EDGECONNECT witness
// (Theorem 2.3), the registered bipartite / mst / kconnect answers, and
// the Section 5 spanners (Baswana–Sen and RECURSECONNECT, at their option
// defaults). Every row states the per-trial failure probability p it
// claims and passes when its failures stay within the binomial bound of
// tests/tier_util.h.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
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

// Row 3's inputs at n = 1024 for one seed: a path, a star, a 32×32 grid,
// ER(n, 0.6n), a dumbbell of two ER(512, 0.02) halves, and 2n edges with
// 60 % deleted again (its deletions draw from `rng`).
constexpr NodeId kForestN = 1024;
constexpr uint32_t kAutoRounds = 12;  // ⌈log₂ n⌉ + 2 at n = 1024

std::vector<std::pair<std::string, DynamicGraphStream>> ForestShapes(
    uint64_t seed, Rng* rng) {
  Graph path(kForestN), star(kForestN);
  for (NodeId v = 1; v < kForestN; ++v) {
    path.AddEdge(v - 1, v);
    star.AddEdge(0, v);
  }
  DynamicGraphStream churn(kForestN);
  const Graph dense = ErdosRenyiM(kForestN, 2 * kForestN, seed);
  for (const auto& e : dense.Edges()) churn.Push(e.u, e.v, 1);
  for (const auto& e : dense.Edges()) {
    if (rng->Below(10) < 6) churn.Push(e.u, e.v, -1);
  }
  return {
      {"path", DynamicGraphStream::FromGraph(path)},
      {"star", DynamicGraphStream::FromGraph(star)},
      {"grid 32x32", DynamicGraphStream::FromGraph(GridGraph(32, 32))},
      {"ER(n, 0.6n)", DynamicGraphStream::FromGraph(
                          ErdosRenyiM(kForestN, 6 * kForestN / 10, seed))},
      {"dumbbell 2 x ER(512, 0.02)",
       DynamicGraphStream::FromGraph(Dumbbell(kForestN / 2, 0.02, 1, seed))},
      {"ER(n, 2n), 60% deleted", churn},
  };
}

// One forest-decode trial: the registered `connectivity` family's
// `components` answer and two `connected u v` answers (u and v drawn from
// `rng`), against union-find truth.
struct ForestTrial {
  bool count_wrong = false;    // the count differs from the truth
  bool count_flagged = false;  // the count says "(unresolved)"
  bool wrong = false;          // any answer differs, flag aside
  bool wrong_unflagged = false;  // a wrong answer without the flag
};

ForestTrial RunForestTrial(const DynamicGraphStream& stream, uint64_t seed,
                           const AlgOptions& opt, Rng* rng) {
  const Graph g = stream.Materialize();
  UnionFind truth(kForestN);
  for (const auto& e : g.Edges()) truth.Union(e.u, e.v);
  // One ApplyBatch per endpoint: the bytes of SketchOf's token-by-token
  // ingestion (linearity; the parity tier proves it), at a fraction of
  // its cost.
  auto sk = FindAlg("connectivity")->make(kForestN, opt, seed);
  std::vector<std::vector<NodeId>> others(kForestN);
  std::vector<std::vector<int64_t>> deltas(kForestN);
  stream.Replay([&](NodeId u, NodeId v, int64_t d) {
    others[u].push_back(v);
    deltas[u].push_back(d);
    others[v].push_back(u);
    deltas[v].push_back(d);
  });
  for (NodeId x = 0; x < kForestN; ++x) {
    sk->ApplyBatch(x, others[x], deltas[x]);
  }
  ForestTrial t;
  auto check = [&t](const std::string& answer, const std::string& want) {
    const bool flagged = answer.find(" (unresolved)") != std::string::npos;
    const bool wrong = answer.substr(0, answer.find(' ')) != want;
    t.wrong = t.wrong || wrong;
    t.wrong_unflagged = t.wrong_unflagged || (wrong && !flagged);
    return std::pair<bool, bool>{wrong, flagged};
  };
  std::tie(t.count_wrong, t.count_flagged) =
      check(MustQuery(*sk, "components"),
            std::to_string(truth.NumComponents()));
  const NodeId u = static_cast<NodeId>(rng->Below(kForestN));
  for (NodeId v : {kForestN - 1, static_cast<NodeId>(rng->Below(kForestN))}) {
    if (u == v) continue;
    check(MustQuery(*sk, "connected " + std::to_string(u) + " " +
                             std::to_string(v)),
          truth.Connected(u, v) ? "yes" : "no");
  }
  return t;
}

// Row 3 — forest decode of the registered `connectivity` family at the
// options it ships (kConnectivityRepetitions), n = 1024, against
// union-find truth: the component count, right and unflagged, and two
// `connected` queries, right. AGM12's Borůvka decode succeeds with high
// probability.
TEST(StatGraph, ForestDecode) {
  StatRow row("forest decode (registered connectivity, n=1024)",
              WhpFailure(kForestN));
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    for (const auto& [shape, stream] : ForestShapes(seed, &rng)) {
      const std::string trial = TrialName(shape, seed);
      SCOPED_TRACE(trial);
      const ForestTrial t = RunForestTrial(stream, seed, AlgOptions{}, &rng);
      row.Record(!t.wrong && !t.count_flagged, trial);
    }
  }
  row.Check();
}

// Row 3b — the unresolved flag, at a deliberately starved setting: one
// repetition and auto − 4 = 8 rounds on row 3's inputs, where many
// component counts come out wrong. Every wrong answer is flagged
// "(unresolved)", and no right count is: a wrong count leaves a final
// component with a crossing edge, whose cut sum the final zero test sees
// (up to a 2⁻⁶¹ fingerprint collision); a right one leaves none.
TEST(StatGraph, ForestDecodeFlagsWhatItCannotResolve) {
  StatRow unflagged("starved forest decode: a wrong answer is flagged", 0.0);
  StatRow overflagged("starved forest decode: a right count is not flagged",
                      0.0);
  AlgOptions starved;
  starved.forest.repetitions = 1;
  starved.forest.rounds = kAutoRounds - 4;
  uint32_t wrong_counts = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    for (const auto& [shape, stream] : ForestShapes(seed, &rng)) {
      const std::string trial = TrialName(shape, seed);
      SCOPED_TRACE(trial);
      const ForestTrial t = RunForestTrial(stream, seed, starved, &rng);
      wrong_counts += t.count_wrong;
      unflagged.Record(!t.wrong_unflagged, trial);
      overflagged.Record(t.count_wrong || !t.count_flagged, trial);
    }
  }
  std::printf("[stat] starved forest decode: %u wrong counts\n",
              wrong_counts);
  EXPECT_GT(wrong_counts, 0u) << "the starved setting no longer starves";
  unflagged.Check();
  overflagged.Check();
}

// The forest failure curve behind kConnectivityRepetitions (not run by
// ctest; docs/TESTING.md gives the command and the table it printed):
// registered `connectivity` at R = 1…6 ℓ₀ repetitions on row 3's inputs,
// seeds 1–100, at the auto round count and at auto − 2 and auto − 4. The
// shipped count is 1 + the smallest R with no wrong count at both auto
// and auto − 2 rounds.
TEST(StatGraph, DISABLED_ForestFailureCurve) {
  constexpr uint32_t kMaxReps = 6;
  constexpr uint64_t kSeeds = 100;
  const std::pair<uint32_t, const char*> round_counts[] = {
      {kAutoRounds, " (auto)"},
      {kAutoRounds - 2, " (auto − 2)"},
      {kAutoRounds - 4, " (auto − 4)"}};
  std::printf("| rounds |");
  for (uint32_t reps = 1; reps <= kMaxReps; ++reps) {
    std::printf(" R = %u |", reps);
  }
  std::printf("\n|---|");
  for (uint32_t reps = 1; reps <= kMaxReps; ++reps) std::printf("---|");
  std::printf("\n");
  // wrong[r][reps - 1]: wrong counts at round_counts[r].
  uint32_t wrong[3][kMaxReps] = {};
  uint32_t unflagged = 0, overflagged = 0;
  for (size_t r = 0; r < 3; ++r) {
    std::printf("| %u%s |", round_counts[r].first, round_counts[r].second);
    for (uint32_t reps = 1; reps <= kMaxReps; ++reps) {
      AlgOptions opt;
      opt.forest.repetitions = reps;
      opt.forest.rounds = round_counts[r].first;
      uint32_t trials = 0;
      for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        Rng rng(seed);
        for (const auto& [shape, stream] : ForestShapes(seed, &rng)) {
          const ForestTrial t = RunForestTrial(stream, seed, opt, &rng);
          ++trials;
          wrong[r][reps - 1] += t.count_wrong;
          unflagged += t.wrong_unflagged;
          overflagged += !t.count_wrong && t.count_flagged;
        }
      }
      std::printf(" %u/%u |", wrong[r][reps - 1], trials);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  uint32_t clean = 0;  // the smallest R clean at auto and auto − 2
  for (uint32_t reps = kMaxReps; reps >= 1; --reps) {
    if (wrong[0][reps - 1] == 0 && wrong[1][reps - 1] == 0) clean = reps;
  }
  std::printf("wrong answers not flagged: %u; right counts flagged: %u\n",
              unflagged, overflagged);
  std::printf("rule: 1 + the smallest clean R = %u\n", clean + 1);
  EXPECT_EQ(unflagged, 0u);
  EXPECT_EQ(overflagged, 0u);
  EXPECT_EQ(clean + 1, kConnectivityRepetitions);
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
