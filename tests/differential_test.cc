// Differential tier (`ctest -L differential`): every registry family is
// driven over seeded generated workloads (src/workload/) — through the
// same ingestion paths the CLI uses (sequential updates, the multi-worker
// driver at several gutter sizes, checkpoint/resume, shard/merge, and
// query-while-ingest snapshots) — and its decoded answers are checked
// against exact reference algorithms: DSU connectivity, BFS 2-coloring,
// Stoer-Wagner min cut, brute-force cut families, and the exact order-3
// subgraph census.
//
// Every assertion runs under a SCOPED_TRACE carrying a copy-pasteable
// repro command: regenerate the exact failing stream with
// `gsketch_cli gen <profile> <n> <updates> /tmp/s.gskb <seed>` and replay
// the failing family on it. Sketch seeds are pinned, so failures
// reproduce deterministically.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/sketch_registry.h"
#include "src/core/subgraph_patterns.h"
#include "src/core/weighted_sparsifier.h"
#include "src/driver/checkpoint.h"
#include "src/driver/sketch_driver.h"
#include "src/driver/snapshot.h"
#include "src/graph/bfs.h"
#include "src/graph/cuts.h"
#include "src/graph/graph.h"
#include "src/graph/stoer_wagner.h"
#include "src/graph/stream.h"
#include "src/graph/subgraph_census.h"
#include "src/graph/union_find.h"
#include "src/workload/stream_generator.h"
#include "tests/tier_util.h"

namespace gsketch {
namespace {

// ------------------------------------------------------------ harness --

struct Scenario {
  const char* profile;
  NodeId n;
  size_t updates;
  uint64_t stream_seed;
};

// Six profiles (>= 5 required by the tier contract), small universes so
// the exact references (Stoer-Wagner, cut enumeration, order-3 census)
// stay instant.
constexpr Scenario kScenarios[] = {
    {"uniform", 20, 600, 101},  {"powerlaw", 22, 700, 202},
    {"hotspot", 18, 500, 303},  {"sliding", 20, 640, 404},
    {"churn", 24, 800, 505},    {"mixed", 21, 720, 606},
};

constexpr uint64_t kSketchSeed = 7;

DynamicGraphStream MakeScenarioStream(const Scenario& sc) {
  const WorkloadProfile* p = FindWorkloadProfile(sc.profile);
  EXPECT_NE(p, nullptr) << sc.profile;
  return p->generate(sc.n, sc.updates, sc.stream_seed);
}

// The copy-pasteable failure repro: regenerate the stream, rerun the
// family. (Checkpoint/shard variants append their own second command.)
std::string Repro(const Scenario& sc, const char* alg) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "repro: gsketch_cli gen %s %u %zu /tmp/s.gskb %llu && "
                "gsketch_cli %s %u /tmp/s.gskb %llu",
                sc.profile, sc.n, sc.updates,
                static_cast<unsigned long long>(sc.stream_seed), alg, sc.n,
                static_cast<unsigned long long>(kSketchSeed));
  std::string s = buf;
  if (std::string(alg) == "triangles") {
    s += "  (test drives the support-indicator view of this trace)";
  }
  return s;
}

// The ingestion paths rotated across (scenario, family) pairs. Every pair
// still checks against the same exact reference, so any path that decodes
// differently from sequential ingestion fails its cell of the matrix.
enum class IngestPath { kSequential, kGutter12x3, kGutter64, kGutter4096x2 };

const char* PathName(IngestPath p) {
  switch (p) {
    case IngestPath::kSequential: return "sequential";
    case IngestPath::kGutter12x3: return "gutter-12B-3-workers";
    case IngestPath::kGutter64: return "gutter-64B";
    case IngestPath::kGutter4096x2: return "gutter-4KiB-2-workers";
  }
  return "?";
}

void Ingest(LinearSketch* sk, const DynamicGraphStream& stream,
            IngestPath path) {
  if (path == IngestPath::kSequential) {
    stream.Replay(
        [sk](NodeId u, NodeId v, int64_t d) { sk->Update(u, v, d); });
    return;
  }
  DriverOptions opt;
  switch (path) {
    case IngestPath::kGutter12x3:
      opt.num_workers = 3;
      opt.gutter_bytes = 12;
      break;
    case IngestPath::kGutter64:
      opt.num_workers = 1;
      opt.gutter_bytes = 64;
      break;
    case IngestPath::kGutter4096x2:
      opt.num_workers = 2;
      opt.gutter_bytes = 4096;
      break;
    default:
      break;
  }
  // Mirror the CLI: algorithms that are not endpoint-sharded (triangles)
  // ingest on one worker.
  if (!sk->EndpointSharded()) opt.num_workers = 1;
  SketchDriver<LinearSketch> driver(sk, opt);
  driver.ProcessStream(stream);
  driver.Drain();
}

// ---------------------------------------------------- exact references --

// The families split by what they measure. Connectivity-like answers
// (components, bipartiteness, forests, the kconnect witness) depend only
// on edge SUPPORT; cut-valued answers (mincut, sparsifier, kedge witness
// weights) recover full multiplicities, so their reference is the
// multiplicity-WEIGHTED multigraph.
struct ExactRefs {
  Graph support;
  Graph weighted;
};

ExactRefs MakeRefs(const DynamicGraphStream& stream) {
  ExactRefs refs;
  refs.weighted = stream.Materialize();
  refs.support = Graph(refs.weighted.NumNodes());
  for (const auto& e : refs.weighted.Edges()) {
    refs.support.AddEdge(e.u, e.v, 1.0);
  }
  return refs;
}

// The support-indicator view of a trace: +1 when an edge's multiplicity
// leaves zero, -1 when it returns to zero. Preserves the profile's
// temporal insert/delete dynamics while keeping every multiplicity in
// {0, 1} — the documented domain of the subgraph (triangles) sketch,
// whose squash-column codes alias under multi-edges.
DynamicGraphStream IndicatorStream(const DynamicGraphStream& s) {
  DynamicGraphStream out(s.NumNodes());
  std::map<std::pair<NodeId, NodeId>, int64_t> mult;
  for (const auto& e : s.Updates()) {
    NodeId a = e.u < e.v ? e.u : e.v;
    NodeId b = e.u < e.v ? e.v : e.u;
    int64_t& m = mult[{a, b}];
    const int64_t before = m;
    m += e.delta;
    if (before == 0 && m > 0) {
      out.Push(a, b, +1);
    } else if (before > 0 && m == 0) {
      out.Push(a, b, -1);
    }
  }
  return out;
}

// The stream a family is differentially driven with: the raw trace for
// every family except triangles, which gets the indicator view.
DynamicGraphStream StreamForFamily(const AlgInfo& info,
                                   const DynamicGraphStream& stream) {
  if (info.tag == AlgTag::kTriangles) return IndicatorStream(stream);
  DynamicGraphStream copy(stream.NumNodes());
  for (const auto& e : stream.Updates()) copy.Push(e.u, e.v, e.delta);
  return copy;
}

// A structured cut family probing the cuts sparsifiers/witnesses distort
// most: all degree cuts, community-boundary BFS balls, uniform subsets,
// and (for n <= 14) every cut outright.
std::vector<std::vector<bool>> CutFamily(const Graph& g, uint64_t seed) {
  if (g.NumNodes() <= 14) return EnumerateAllCuts(g.NumNodes());
  Rng rng(seed);
  auto cuts = SingletonCuts(g.NumNodes());
  for (auto& c : BfsBallCuts(g, 24, &rng)) cuts.push_back(std::move(c));
  for (auto& c : RandomCuts(g.NumNodes(), 48, &rng)) {
    cuts.push_back(std::move(c));
  }
  return cuts;
}

// Decodes `sk` and checks its answers against exact references computed
// from the trace: connectivity-shaped answers against the support graph,
// cut-valued answers against the weighted multigraph. `aopt` must be the
// options the sketch was built with (k matters for kconnect/kedge).
void ExpectMatchesExact(const AlgInfo& info, const LinearSketch& sk,
                        const ExactRefs& refs, const AlgOptions& aopt) {
  const Graph& g = refs.support;
  const Graph& gw = refs.weighted;
  const NodeId n = g.NumNodes();
  switch (info.tag) {
    case AlgTag::kConnectivity: {
      EXPECT_EQ(MustQuery(sk, "components"),
                std::to_string(g.NumComponents()));
      UnionFind exact(n);
      for (const auto& e : g.Edges()) exact.Union(e.u, e.v);
      for (NodeId u = 0; u + 1 < n; u += 3) {
        std::string q =
            "connected " + std::to_string(u) + " " + std::to_string(u + 1);
        EXPECT_EQ(MustQuery(sk, q), exact.Connected(u, u + 1) ? "yes" : "no")
            << q;
      }
      break;
    }
    case AlgTag::kBipartite: {
      EXPECT_EQ(MustQuery(sk, "bipartite"),
                IsBipartiteExact(g) ? "yes" : "no");
      break;
    }
    case AlgTag::kApproxMst: {
      // Unweighted streams: the MST weight is the spanning-forest edge
      // count, n - #components, exactly.
      EXPECT_EQ(MustQuery(sk, "mstweight"),
                std::to_string(n - g.NumComponents()));
      break;
    }
    case AlgTag::kSpanningForest: {
      EXPECT_EQ(MustQuery(sk, "components"),
                std::to_string(g.NumComponents()));
      Graph forest = ParseEdgeList(MustQuery(sk, "forest"), n);
      EXPECT_TRUE(g.ContainsEdgesOf(forest)) << "forest invented an edge";
      EXPECT_EQ(forest.NumEdges(), n - g.NumComponents())
          << "not a maximal spanning forest";
      break;
    }
    case AlgTag::kKConnectivity: {
      const double lambda = StoerWagnerMinCut(g).value;
      const double witness_cut = std::stod(MustQuery(sk, "witnesscut"));
      const bool k_connected = MustQuery(sk, "kconnected") == "yes";
      if (lambda < aopt.k) {
        EXPECT_EQ(witness_cut, lambda) << "below k the witness is exact";
        EXPECT_FALSE(k_connected);
      } else {
        EXPECT_GE(witness_cut, static_cast<double>(aopt.k));
        EXPECT_TRUE(k_connected);
      }
      break;
    }
    case AlgTag::kKEdgeConnect: {
      // Witness edge weights are recovered multiplicities, so the cut
      // preservation guarantee is stated against the weighted multigraph.
      Graph h = ParseEdgeList(MustQuery(sk, "witness"), n);
      EXPECT_TRUE(g.ContainsEdgesOf(h)) << "witness invented an edge";
      for (const auto& side : CutFamily(gw, /*seed=*/n * 1000003)) {
        const double cut_g = CutValue(gw, side);
        const double cut_h = CutValue(h, side);
        if (cut_g < aopt.k) {
          EXPECT_DOUBLE_EQ(cut_h, cut_g) << "a <k cut lost an edge";
        } else {
          EXPECT_GE(cut_h, static_cast<double>(aopt.k));
        }
      }
      break;
    }
    case AlgTag::kMinCut: {
      // The estimator sees multiplicities, so λ is the weighted min cut.
      const double lambda = StoerWagnerMinCut(gw).value;
      std::string ans = MustQuery(sk, "mincut");
      EXPECT_EQ(ans.find("unresolved"), std::string::npos) << ans;
      const double value = std::stod(ans);
      if (lambda == 0.0) {
        EXPECT_EQ(value, 0.0) << "disconnected graph has min cut 0";
      } else {
        // (1 ± ε) with the registry default ε = 0.5.
        EXPECT_GE(value, 0.5 * lambda) << "λ=" << lambda;
        EXPECT_LE(value, 1.5 * lambda) << "λ=" << lambda;
      }
      break;
    }
    case AlgTag::kSparsify: {
      // Sparsifier edge weights approximate multiplicities; cut error is
      // measured against the weighted multigraph.
      Graph h = ParseEdgeList(MustQuery(sk, "sparsifier"), n);
      EXPECT_TRUE(g.ContainsEdgesOf(h)) << "sparsifier invented an edge";
      if (gw.NumEdges() == 0) break;
      auto stats = CompareCuts(gw, h, CutFamily(gw, /*seed=*/n * 7919));
      EXPECT_GT(stats.cuts_checked, 0u);
      EXPECT_LT(stats.max_rel_error, 0.9)
          << "cut error beyond the ε=0.5 sparsifier's observed envelope";
      break;
    }
    case AlgTag::kWeightedSparsify: {
      // The streamed family scales each edge's multiplicity by its static
      // StreamWeight, so the exact reference is the weighted multigraph
      // rescaled by the same (pure) weight function.
      Graph h = ParseEdgeList(MustQuery(sk, "sparsifier"), n);
      EXPECT_TRUE(g.ContainsEdgesOf(h)) << "wsparsifier invented an edge";
      if (gw.NumEdges() == 0) break;
      Graph gww(n);
      for (const auto& e : gw.Edges()) {
        gww.AddEdge(e.u, e.v,
                    e.weight * static_cast<double>(
                                   WeightedSparsifier::StreamWeight(
                                       e.u, e.v, aopt.max_weight)));
      }
      auto stats = CompareCuts(gww, h, CutFamily(gww, /*seed=*/n * 7919));
      EXPECT_GT(stats.cuts_checked, 0u);
      EXPECT_LT(stats.max_rel_error, 0.9)
          << "cut error beyond the ε=0.5 sparsifier's observed envelope";
      break;
    }
    case AlgTag::kTriangles: {
      auto census = CensusOrder3(g);
      for (const auto& pat : Order3Patterns()) {
        if (pat.name != "triangle") continue;
        const double truth = census.Gamma(pat.canonical_code);
        const double est = std::stod(MustQuery(sk, "gamma triangle"));
        EXPECT_NEAR(est, truth, 0.25) << "gamma[triangle]";
      }
      break;
    }
  }
}

// -------------------------------------------------------------- tests --

// The core matrix: every scenario x every registry family, ingestion path
// rotated so each family meets each path across the matrix.
TEST(Differential, FamiliesMatchExactReferencesAcrossWorkloads) {
  const auto& registry = Registry();
  for (size_t si = 0; si < std::size(kScenarios); ++si) {
    const Scenario& sc = kScenarios[si];
    DynamicGraphStream stream = MakeScenarioStream(sc);
    ASSERT_EQ(stream.Size(), sc.updates);
    for (size_t fi = 0; fi < registry.size(); ++fi) {
      const AlgInfo& info = registry[fi];
      const IngestPath path = static_cast<IngestPath>((si + fi) % 4);
      SCOPED_TRACE(Repro(sc, info.name) + "  [ingest: " + PathName(path) +
                   "]");
      AlgOptions aopt;
      DynamicGraphStream fs = StreamForFamily(info, stream);
      auto sk = info.make(sc.n, aopt, kSketchSeed);
      Ingest(sk.get(), fs, path);
      ExpectMatchesExact(info, *sk, MakeRefs(fs), aopt);
    }
  }
}

// Generated workloads are valid dynamic graph streams: exact requested
// length, in-range endpoints, and no prefix drives a multiplicity
// negative (Definition 1). Profile-specific shape claims are asserted in
// workload_test.cc; this is the contract every profile must meet.
TEST(Differential, GeneratedStreamsKeepMultiplicitiesNonnegative) {
  for (const Scenario& sc : kScenarios) {
    SCOPED_TRACE(Repro(sc, "stats"));
    DynamicGraphStream stream = MakeScenarioStream(sc);
    EXPECT_EQ(stream.Size(), sc.updates);
    for (const auto& e : stream.Updates()) {
      ASSERT_LT(e.u, sc.n);
      ASSERT_LT(e.v, sc.n);
      ASSERT_NE(e.u, e.v);
      ASSERT_NE(e.delta, 0);
    }
    WorkloadStats stats = ComputeWorkloadStats(stream);
    EXPECT_TRUE(stats.nonnegative);
  }
}

// Checkpoint/resume differential: pause every family mid-stream through
// the real GSKC save/restore path, finish the stream on the restored
// sketch, and require byte equality with the uninterrupted run plus
// agreement with the exact references.
TEST(Differential, CheckpointResumeMatchesUninterruptedAndExact) {
  const Scenario& sc = kScenarios[4];  // churn: deletions cross the cut
  DynamicGraphStream stream = MakeScenarioStream(sc);
  for (const AlgInfo& info : Registry()) {
    AlgOptions aopt;
    DynamicGraphStream fs = StreamForFamily(info, stream);
    const size_t cut = fs.Size() / 2;
    SCOPED_TRACE(Repro(sc, info.name) + "  [checkpoint at " +
                 std::to_string(cut) + ", then resume]");
    auto prefix = info.make(sc.n, aopt, kSketchSeed);
    const auto& updates = fs.Updates();
    for (size_t i = 0; i < cut; ++i) {
      prefix->Update(updates[i].u, updates[i].v, updates[i].delta);
    }
    std::string path = testing::TempDir() + "differential_" +
                       std::string(info.name) + ".gskc";
    std::string error;
    ASSERT_TRUE(SaveCheckpoint(path, *prefix, cut, &error)) << error;

    auto ckpt = ReadCheckpointFile(path, &error);
    ASSERT_TRUE(ckpt.has_value()) << error;
    EXPECT_EQ(ckpt->alg, info.tag);
    EXPECT_EQ(ckpt->stream_pos, cut);
    auto resumed = RestoreSketch(*ckpt, &error);
    ASSERT_NE(resumed, nullptr) << error;
    for (size_t i = cut; i < updates.size(); ++i) {
      resumed->Update(updates[i].u, updates[i].v, updates[i].delta);
    }

    auto whole = info.make(sc.n, aopt, kSketchSeed);
    Ingest(whole.get(), fs, IngestPath::kSequential);
    std::string resumed_bytes, whole_bytes;
    resumed->AppendTo(&resumed_bytes);
    whole->AppendTo(&whole_bytes);
    EXPECT_EQ(resumed_bytes, whole_bytes)
        << "resume is not byte-identical to the uninterrupted run";
    ExpectMatchesExact(info, *resumed, MakeRefs(fs), aopt);
    std::remove(path.c_str());
  }
}

// Shard/merge differential: three sites sketch a round-robin partition of
// the stream independently; merging must reproduce the single-stream
// sketch byte-for-byte and agree with the exact references (linearity is
// what makes distributed sketching work at all).
TEST(Differential, ShardMergeMatchesSingleStreamAndExact) {
  const Scenario& sc = kScenarios[5];  // mixed: all regimes in one stream
  DynamicGraphStream stream = MakeScenarioStream(sc);
  constexpr size_t kShards = 3;
  for (const AlgInfo& info : Registry()) {
    SCOPED_TRACE(Repro(sc, info.name) + "  [3-way shard + merge]");
    AlgOptions aopt;
    DynamicGraphStream fs = StreamForFamily(info, stream);
    std::unique_ptr<LinearSketch> merged;
    std::string error;
    for (size_t j = 0; j < kShards; ++j) {
      auto site = info.make(sc.n, aopt, kSketchSeed);
      const auto& updates = fs.Updates();
      for (size_t i = j; i < updates.size(); i += kShards) {
        site->Update(updates[i].u, updates[i].v, updates[i].delta);
      }
      if (merged == nullptr) {
        merged = std::move(site);
      } else {
        ASSERT_TRUE(merged->Merge(*site, &error)) << error;
      }
    }
    auto whole = info.make(sc.n, aopt, kSketchSeed);
    Ingest(whole.get(), fs, IngestPath::kSequential);
    std::string merged_bytes, whole_bytes;
    merged->AppendTo(&merged_bytes);
    whole->AppendTo(&whole_bytes);
    EXPECT_EQ(merged_bytes, whole_bytes)
        << "shard-merge is not byte-identical to the single stream";
    ExpectMatchesExact(info, *merged, MakeRefs(fs), aopt);
  }
}

// Snapshot differential: a mid-stream snapshot taken while the driver
// keeps ingesting must answer exactly like the stream stopped at that
// position — checked against the exact reference of the PREFIX graph —
// and the final sketch must still match the full-stream reference.
TEST(Differential, MidStreamSnapshotMatchesExactPrefix) {
  const Scenario& sc = kScenarios[3];  // sliding: prefix differs sharply
  DynamicGraphStream stream = MakeScenarioStream(sc);
  for (const AlgInfo& info : Registry()) {
    AlgOptions aopt;
    DynamicGraphStream fs = StreamForFamily(info, stream);
    const size_t cut = fs.Size() / 2;
    SCOPED_TRACE(Repro(sc, info.name) + "  [snapshot at " +
                 std::to_string(cut) + " under ingest]");
    DynamicGraphStream prefix(sc.n);
    for (size_t i = 0; i < cut; ++i) {
      const auto& e = fs.Updates()[i];
      prefix.Push(e.u, e.v, e.delta);
    }
    auto sk = info.make(sc.n, aopt, kSketchSeed);
    DriverOptions opt;
    opt.num_workers = info.endpoint_sharded ? 2 : 1;
    opt.gutter_bytes = 256;
    SnapshotStore store;
    std::shared_ptr<const SketchSnapshot> snap;
    {
      SketchDriver<LinearSketch> driver(sk.get(), opt);
      for (size_t i = 0; i < fs.Size(); ++i) {
        const auto& e = fs.Updates()[i];
        driver.Push(e.u, e.v, e.delta);
        if (i + 1 == cut) snap = PublishSnapshot(&driver, &store);
      }
      driver.Drain();
    }
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->stream_pos, cut);
    ExpectMatchesExact(info, *snap->sketch, MakeRefs(prefix), aopt);
    ExpectMatchesExact(info, *sk, MakeRefs(fs), aopt);
  }
}

}  // namespace
}  // namespace gsketch
