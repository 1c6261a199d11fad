// Stat tier (`ctest -L stat`), cut sparsifiers: the registered `sparsify`
// (Fig. 2 SIMPLE-SPARSIFICATION, Theorem 3.3) and `wsparsify` (Theorem
// 3.8) families at their defaults. Every row states the per-trial failure
// probability p it claims and passes when its failures stay within the
// binomial bound of tests/tier_util.h.
//
// Theorem 3.3's cut bound (every cut within 1 ± ε) is not asserted here:
// at the registry's ε = 0.5 the degree cuts of complete-32 miss it
// (docs/TESTING.md lists it as not met at defaults).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/core/sketch_registry.h"
#include "src/core/weighted_sparsifier.h"
#include "src/graph/generators.h"
#include "src/graph/stream.h"
#include "src/hash/random.h"
#include "tests/tier_util.h"

namespace gsketch {
namespace {

Graph DecodeSparsifier(const char* alg, const DynamicGraphStream& stream,
                       uint64_t seed) {
  return ParseEdgeList(MustQuery(*SketchOf(alg, stream, seed), "sparsifier"),
                       stream.NumNodes());
}

// Complete-n, with every second edge deleted again.
DynamicGraphStream HalfDeleted(NodeId n) {
  const Graph g = CompleteGraph(n);
  DynamicGraphStream s = DynamicGraphStream::FromGraph(g);
  for (size_t i = 0; i < g.NumEdges(); i += 2) {
    s.Push(g.Edges()[i].u, g.Edges()[i].v, -1);
  }
  return s;
}

// Row 5 — Theorem 3.3's sparsifier H is a subgraph of the final graph: it
// never keeps an edge that is absent or was deleted again. The inputs
// are dense enough that the subsampling levels engage (the registry's k
// is below the degree).
TEST(StatCuts, SparsifierSubgraphThm33) {
  StatRow row("Thm 3.3 sparsify edges are edges of G", 0.0);
  const std::vector<std::pair<std::string, DynamicGraphStream>> inputs = {
      {"complete-32", DynamicGraphStream::FromGraph(CompleteGraph(32))},
      {"complete-48", DynamicGraphStream::FromGraph(CompleteGraph(48))},
      {"ER(32, 0.7)", DynamicGraphStream::FromGraph(ErdosRenyi(32, 0.7, 1))},
      {"complete-32, half deleted", HalfDeleted(32)},
  };
  for (const auto& [shape, stream] : inputs) {
    for (uint64_t seed : {1, 2}) {
      const std::string trial = TrialName(shape, seed);
      SCOPED_TRACE(trial);
      Graph h = DecodeSparsifier("sparsify", stream, seed);
      row.Record(stream.Materialize().ContainsEdgesOf(h), trial);
    }
  }
  row.Check();
}

// Row 6 — Theorem 3.8, registered `wsparsify` (W = 2) against the stream
// weighted by WeightedSparsifier::StreamWeight. Each weight class doubles
// the sparsifier's k, which at these sizes exceeds every degree, so no
// class subsamples and H reproduces the weighted graph exactly (w.h.p.,
// through its witnesses' forest decodes). This row is therefore not
// evidence for ε.
TEST(StatCuts, WeightedSparsifierThm38) {
  StatRow row("Thm 3.8 wsparsify (W=2) reproduces G exactly (n=32)",
              WhpFailure(32));
  const int64_t w = AlgOptions{}.max_weight;
  ASSERT_EQ(w, 2);
  const std::vector<std::pair<std::string, DynamicGraphStream>> inputs = {
      {"complete-32", DynamicGraphStream::FromGraph(CompleteGraph(32))},
      {"ER(32, 0.5)", DynamicGraphStream::FromGraph(ErdosRenyi(32, 0.5, 2))},
      {"planted 2 x 16",
       DynamicGraphStream::FromGraph(PlantedPartition(32, 2, 0.9, 0.1, 3))},
      {"complete-32, half deleted", HalfDeleted(32)},
  };
  for (const auto& [shape, stream] : inputs) {
    for (uint64_t seed : {1, 2}) {
      const std::string trial = TrialName(shape, seed);
      SCOPED_TRACE(trial);
      Graph h = DecodeSparsifier("wsparsify", stream, seed);
      const Graph g = stream.Materialize();
      bool ok = h.NumEdges() == g.NumEdges();
      for (const auto& e : g.Edges()) {
        ok = ok && h.EdgeWeight(e.u, e.v) ==
                       e.weight * static_cast<double>(
                                      WeightedSparsifier::StreamWeight(
                                          e.u, e.v, w));
      }
      row.Record(ok, trial);
    }
  }
  row.Check();
}

}  // namespace
}  // namespace gsketch
