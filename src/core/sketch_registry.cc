#include "src/core/sketch_registry.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <type_traits>
#include <utility>

#include "src/core/connectivity_suite.h"
#include "src/core/k_edge_connect.h"
#include "src/core/min_cut.h"
#include "src/core/simple_sparsifier.h"
#include "src/core/spanning_forest.h"
#include "src/core/subgraph_patterns.h"
#include "src/core/subgraph_sketch.h"
#include "src/core/weighted_sparsifier.h"
#include "src/graph/union_find.h"

namespace gsketch {

bool ParseQueryNode(const std::string& tok, NodeId n, NodeId* out,
                    std::string* error) {
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (errno != 0 || end == tok.c_str() || *end != '\0' || v >= n) {
    if (error != nullptr) {
      *error = "bad node '" + tok + "' (want an integer < " +
               std::to_string(n) + ")";
    }
    return false;
  }
  *out = static_cast<NodeId>(v);
  return true;
}

namespace {

// ------------------------------------------------- query plumbing --

std::vector<std::string> QueryTokens(const std::string& q) {
  std::istringstream ss(q);
  std::vector<std::string> out;
  std::string tok;
  while (ss >> tok) out.push_back(tok);
  return out;
}

std::string FormatDouble(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

// Connectivity between two nodes, decoded from a spanning-forest witness:
// u and v are connected in the streamed graph iff the forest joins them.
bool ForestConnected(const Graph& forest, NodeId u, NodeId v) {
  UnionFind uf(forest.NumNodes());
  for (const auto& e : forest.Edges()) uf.Union(e.u, e.v);
  return uf.Connected(u, v);
}

// `answer`, flagged when it rests on a component the forest decode could
// not resolve (mincut's query flags its estimate the same way).
std::string Flagged(std::string answer, bool unresolved) {
  return unresolved ? answer + " (unresolved)" : answer;
}

// The decoded component count. An unresolved component may join others,
// so the count is then only an upper bound.
std::string ComponentsAnswer(const ForestDecode& d, const char* unit = "") {
  return Flagged(std::to_string(d.components) + unit,
                 d.unresolved_components > 0);
}

// Whole-graph connectivity: one component is never unresolved.
std::string ConnectedAnswer(const ForestDecode& d) {
  return d.components == 1 ? "yes"
                           : Flagged("no", d.unresolved_components > 0);
}

// u and v joined by the decoded forest; a "no" rests on both components.
std::string ConnectedAnswer(const ForestDecode& d, NodeId u, NodeId v) {
  return ForestConnected(d.forest, u, v)
             ? "yes"
             : Flagged("no", d.unresolved[u] || d.unresolved[v]);
}

// Shared forwarding shell: holds the concrete sketch by value and routes
// the uniform contract to it. Derived adapters add only what genuinely
// differs per family (parameter summary, answer decoding, and the query
// vocabulary). CRTP: `Derived` is the final adapter class, which lets
// this shell implement Clone generically — a by-value copy of the
// concrete sketch rewrapped in a fresh adapter.
template <typename Derived, typename Sketch, AlgTag TagV>
class Adapter : public LinearSketch {
 public:
  explicit Adapter(Sketch sk) : sk_(std::move(sk)) {}

  AlgTag Tag() const override { return TagV; }
  NodeId num_nodes() const override { return sk_.num_nodes(); }
  size_t CellCount() const override { return sk_.CellCount(); }

  void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v,
                      int64_t delta) override {
    sk_.UpdateEndpoint(endpoint, u, v, delta);
  }

  void ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                  Span<const int64_t> deltas) override {
    if constexpr (AlgHasApplyBatch<Sketch>::value) {
      sk_.ApplyBatch(endpoint, others, deltas);
    } else {
      LinearSketch::ApplyBatch(endpoint, others, deltas);
    }
  }

  bool Merge(const LinearSketch& other, std::string* error) override {
    const auto* o = dynamic_cast<const Adapter*>(&other);
    if (o == nullptr) {
      if (error) {
        *error = std::string("algorithm mismatch: cannot merge ") +
                 AlgTagName(other.Tag()) + " into " + AlgTagName(TagV);
      }
      return false;
    }
    // Measurement identity, checked in every build before any cell
    // changes: every part's parameters, seeds included, must agree, or
    // the summed cells measure nothing.
    if (const char* field = sk_.MismatchWith(o->sk_)) {
      if (error) {
        *error = std::string(AlgTagName(TagV)) +
                 ": incompatible sketches: " + field + " differs";
      }
      return false;
    }
    sk_.Merge(o->sk_);
    return true;
  }

  void AppendTo(std::string* out) const override { sk_.AppendTo(out); }

  std::unique_ptr<LinearSketch> Clone() const override {
    return std::make_unique<Derived>(Sketch(sk_));
  }

  const Sketch& sketch() const { return sk_; }

 protected:
  Sketch sk_;
};

void PrintWeightedEdges(std::FILE* out, const Graph& g) {
  for (const auto& e : g.Edges()) {
    std::fprintf(out, "%u %u %.0f\n", e.u, e.v, e.weight);
  }
}

// ----------------------------------------------------------- adapters --

class ConnectivityAdapter final
    : public Adapter<ConnectivityAdapter, ConnectivitySketch,
                     AlgTag::kConnectivity> {
 public:
  using Adapter::Adapter;
  std::string Describe() const override {
    return "connectivity: n=" + std::to_string(sk_.num_nodes()) + ", " +
           std::to_string(sk_.CellCount()) + " cells";
  }
  void PrintAnswer(std::FILE* out) const override {
    const ForestDecode d = sk_.Decode();
    std::fprintf(out, "components: %s\nconnected:  %s\n",
                 ComponentsAnswer(d).c_str(), ConnectedAnswer(d).c_str());
  }
  bool Query(const std::string& q, std::string* out,
             std::string* error) const override {
    const auto t = QueryTokens(q);
    if (!t.empty() && t[0] == "components") {
      *out = ComponentsAnswer(sk_.Decode());
      return true;
    }
    if (!t.empty() && t[0] == "connected") {
      if (t.size() == 1) {
        *out = ConnectedAnswer(sk_.Decode());
        return true;
      }
      if (t.size() != 3) {
        if (error != nullptr) {
          *error = "connected takes zero or two node arguments";
        }
        return false;
      }
      NodeId u = 0, v = 0;
      if (!ParseQueryNode(t[1], sk_.num_nodes(), &u, error) ||
          !ParseQueryNode(t[2], sk_.num_nodes(), &v, error)) {
        return false;
      }
      *out = ConnectedAnswer(sk_.Decode(), u, v);
      return true;
    }
    return LinearSketch::Query(q, out, error);
  }
  std::string QueryVerbs() const override {
    return LinearSketch::QueryVerbs() + ", components, connected [u v]";
  }
};

class BipartiteAdapter final
    : public Adapter<BipartiteAdapter, BipartitenessSketch,
                     AlgTag::kBipartite> {
 public:
  using Adapter::Adapter;
  std::string Describe() const override {
    return "bipartite: n=" + std::to_string(sk_.num_nodes()) +
           " (double cover on 2n), " + std::to_string(sk_.CellCount()) +
           " cells";
  }
  void PrintAnswer(std::FILE* out) const override {
    std::fprintf(out, "bipartite: %s\n", sk_.IsBipartite() ? "yes" : "no");
  }
  bool Query(const std::string& q, std::string* out,
             std::string* error) const override {
    if (q == "bipartite") {
      *out = sk_.IsBipartite() ? "yes" : "no";
      return true;
    }
    return LinearSketch::Query(q, out, error);
  }
  std::string QueryVerbs() const override {
    return LinearSketch::QueryVerbs() + ", bipartite";
  }
};

class MstAdapter final
    : public Adapter<MstAdapter, ApproxMstSketch, AlgTag::kApproxMst> {
 public:
  using Adapter::Adapter;
  std::string Describe() const override {
    return "mst: n=" + std::to_string(sk_.num_nodes()) + ", " +
           std::to_string(sk_.thresholds().size()) + " weight thresholds, " +
           std::to_string(sk_.CellCount()) + " cells";
  }
  void PrintAnswer(std::FILE* out) const override {
    // Unweighted streams: the estimate is the spanning-forest edge count
    // (weight-1 Kruskal), i.e. n - #components.
    std::fprintf(out, "mst weight: %.0f\n", sk_.EstimateWeight());
  }
  bool Query(const std::string& q, std::string* out,
             std::string* error) const override {
    if (q == "mstweight") {
      *out = FormatDouble("%.0f", sk_.EstimateWeight());
      return true;
    }
    return LinearSketch::Query(q, out, error);
  }
  std::string QueryVerbs() const override {
    return LinearSketch::QueryVerbs() + ", mstweight";
  }
};

class KConnectAdapter final
    : public Adapter<KConnectAdapter, KConnectivityTester,
                     AlgTag::kKConnectivity> {
 public:
  using Adapter::Adapter;
  std::string Describe() const override {
    return "kconnect: n=" + std::to_string(sk_.num_nodes()) +
           ", k=" + std::to_string(sk_.k()) + ", " +
           std::to_string(sk_.CellCount()) + " cells";
  }
  void PrintAnswer(std::FILE* out) const override {
    const double cut = sk_.WitnessMinCut();
    std::fprintf(out, "witness min cut: %.0f\n%u-connected: %s\n", cut,
                 sk_.k(), sk_.Certifies(cut) ? "yes" : "no");
  }
  bool Query(const std::string& q, std::string* out,
             std::string* error) const override {
    if (q == "kconnected") {
      *out = sk_.IsKConnected() ? "yes" : "no";
      return true;
    }
    if (q == "witnesscut") {
      *out = FormatDouble("%.0f", sk_.WitnessMinCut());
      return true;
    }
    return LinearSketch::Query(q, out, error);
  }
  std::string QueryVerbs() const override {
    return LinearSketch::QueryVerbs() + ", kconnected, witnesscut";
  }
};

class KEdgeAdapter final
    : public Adapter<KEdgeAdapter, KEdgeConnectSketch,
                     AlgTag::kKEdgeConnect> {
 public:
  using Adapter::Adapter;
  std::string Describe() const override {
    return "kedge: n=" + std::to_string(sk_.num_nodes()) +
           ", k=" + std::to_string(sk_.k()) + ", " +
           std::to_string(sk_.CellCount()) + " cells";
  }
  void PrintAnswer(std::FILE* out) const override {
    Graph h = sk_.ExtractWitness();
    std::fprintf(out, "# witness: %zu edges (k=%u)\n", h.NumEdges(),
                 sk_.k());
    PrintWeightedEdges(out, h);
  }
  bool Query(const std::string& q, std::string* out,
             std::string* error) const override {
    if (q == "witness") {
      *out = AnswerString(*this);
      return true;
    }
    return LinearSketch::Query(q, out, error);
  }
  std::string QueryVerbs() const override {
    return LinearSketch::QueryVerbs() + ", witness";
  }
};

class ForestAdapter final
    : public Adapter<ForestAdapter, SpanningForestSketch,
                     AlgTag::kSpanningForest> {
 public:
  using Adapter::Adapter;
  std::string Describe() const override {
    return "forest: n=" + std::to_string(sk_.num_nodes()) + ", " +
           std::to_string(sk_.rounds()) + " rounds, " +
           std::to_string(sk_.CellCount()) + " cells";
  }
  void PrintAnswer(std::FILE* out) const override {
    const ForestDecode d = sk_.Decode();
    std::fprintf(out, "# forest: %zu edges, %s\n", d.forest.NumEdges(),
                 ComponentsAnswer(d, " components").c_str());
    PrintWeightedEdges(out, d.forest);
  }
  bool Query(const std::string& q, std::string* out,
             std::string* error) const override {
    const auto t = QueryTokens(q);
    if (!t.empty() && t[0] == "forest") {
      *out = AnswerString(*this);
      return true;
    }
    if (!t.empty() && t[0] == "components") {
      *out = ComponentsAnswer(sk_.Decode());
      return true;
    }
    if (!t.empty() && t[0] == "connected" && t.size() == 3) {
      NodeId u = 0, v = 0;
      if (!ParseQueryNode(t[1], sk_.num_nodes(), &u, error) ||
          !ParseQueryNode(t[2], sk_.num_nodes(), &v, error)) {
        return false;
      }
      *out = ConnectedAnswer(sk_.Decode(), u, v);
      return true;
    }
    return LinearSketch::Query(q, out, error);
  }
  std::string QueryVerbs() const override {
    return LinearSketch::QueryVerbs() +
           ", forest, components, connected u v";
  }
};

class MinCutAdapter final
    : public Adapter<MinCutAdapter, MinCutSketch, AlgTag::kMinCut> {
 public:
  using Adapter::Adapter;
  std::string Describe() const override {
    return "mincut: n=" + std::to_string(sk_.num_nodes()) +
           ", k=" + std::to_string(sk_.k()) + ", " +
           std::to_string(sk_.num_levels()) + " levels, " +
           std::to_string(sk_.CellCount()) + " cells";
  }
  void PrintAnswer(std::FILE* out) const override {
    auto est = sk_.Estimate();
    std::fprintf(out, "min cut: %.0f (level %u%s)\n", est.value, est.level,
                 est.resolved ? "" : ", UNRESOLVED");
    std::fprintf(out, "one side (%zu nodes):", est.side.size());
    for (NodeId v : est.side) std::fprintf(out, " %u", v);
    std::fprintf(out, "\n");
  }
  bool Query(const std::string& q, std::string* out,
             std::string* error) const override {
    if (q == "mincut") {
      auto est = sk_.Estimate();
      *out = FormatDouble("%.0f", est.value) +
             (est.resolved ? "" : " (unresolved)");
      return true;
    }
    return LinearSketch::Query(q, out, error);
  }
  std::string QueryVerbs() const override {
    return LinearSketch::QueryVerbs() + ", mincut";
  }
};

class SparsifyAdapter final
    : public Adapter<SparsifyAdapter, SimpleSparsifier, AlgTag::kSparsify> {
 public:
  using Adapter::Adapter;
  std::string Describe() const override {
    return "sparsify: n=" + std::to_string(sk_.num_nodes()) +
           ", k=" + std::to_string(sk_.k()) + ", " +
           std::to_string(sk_.num_levels()) + " levels, " +
           std::to_string(sk_.CellCount()) + " cells";
  }
  void PrintAnswer(std::FILE* out) const override {
    Graph h = sk_.Extract();
    std::fprintf(out, "# sparsifier: %zu edges (k=%u)\n", h.NumEdges(),
                 sk_.k());
    PrintWeightedEdges(out, h);
  }
  bool Query(const std::string& q, std::string* out,
             std::string* error) const override {
    if (q == "sparsifier") {
      *out = AnswerString(*this);
      return true;
    }
    return LinearSketch::Query(q, out, error);
  }
  std::string QueryVerbs() const override {
    return LinearSketch::QueryVerbs() + ", sparsifier";
  }
};

// Streamed weighted sparsifier (Theorem 3.8): each edge carries the
// static demonstration weight 1 + (hash{u, v} mod W), routed to its
// O(log W) weight class at update time; see
// src/core/weighted_sparsifier.h. Routing depends only on (u, v), so the
// map is linear in delta and every ingestion path agrees byte-for-byte
// with sequential.
class WSparsifyAdapter final
    : public Adapter<WSparsifyAdapter, WeightedSparsifier,
                     AlgTag::kWeightedSparsify> {
 public:
  using Adapter::Adapter;
  std::string Describe() const override {
    return "wsparsify: n=" + std::to_string(sk_.num_nodes()) +
           ", W=" + std::to_string(sk_.max_weight()) + ", " +
           std::to_string(sk_.num_classes()) + " weight classes, " +
           std::to_string(sk_.CellCount()) + " cells";
  }
  void PrintAnswer(std::FILE* out) const override {
    Graph h = sk_.Extract();
    std::fprintf(out, "# weighted sparsifier: %zu edges (%u classes)\n",
                 h.NumEdges(), sk_.num_classes());
    PrintWeightedEdges(out, h);
  }
  bool Query(const std::string& q, std::string* out,
             std::string* error) const override {
    if (q == "sparsifier") {
      *out = AnswerString(*this);
      return true;
    }
    return LinearSketch::Query(q, out, error);
  }
  std::string QueryVerbs() const override {
    return LinearSketch::QueryVerbs() + ", sparsifier";
  }
};

class TrianglesAdapter final
    : public Adapter<TrianglesAdapter, SubgraphSketch, AlgTag::kTriangles> {
 public:
  using Adapter::Adapter;
  std::string Describe() const override {
    return "triangles: n=" + std::to_string(sk_.num_nodes()) + ", order " +
           std::to_string(sk_.order()) + ", " +
           std::to_string(sk_.num_samplers()) + " samplers, " +
           std::to_string(sk_.CellCount()) + " cells";
  }
  void PrintAnswer(std::FILE* out) const override {
    for (const auto& p : Order3Patterns()) {
      auto est = sk_.EstimateGamma(p.canonical_code);
      std::fprintf(out, "gamma[%-11s] = %.4f   (count estimate ~%.0f)\n",
                   p.name.c_str(), est.gamma,
                   sk_.EstimateCount(p.canonical_code));
    }
  }
  bool EndpointSharded() const override { return false; }
  bool Query(const std::string& q, std::string* out,
             std::string* error) const override {
    const auto t = QueryTokens(q);
    if (t.size() == 2 && (t[0] == "gamma" || t[0] == "count")) {
      for (const auto& p : Order3Patterns()) {
        if (p.name != t[1]) continue;
        if (t[0] == "gamma") {
          *out = FormatDouble("%.4f",
                              sk_.EstimateGamma(p.canonical_code).gamma);
        } else {
          *out = FormatDouble("%.0f", sk_.EstimateCount(p.canonical_code));
        }
        return true;
      }
      if (error != nullptr) {
        std::string names;
        for (const auto& p : Order3Patterns()) {
          if (!names.empty()) names += ", ";
          names += p.name;
        }
        *error =
            "unknown order-3 pattern '" + t[1] + "' (want " + names + ")";
      }
      return false;
    }
    return LinearSketch::Query(q, out, error);
  }
  std::string QueryVerbs() const override {
    return LinearSketch::QueryVerbs() + ", gamma <pattern>, count <pattern>";
  }
};

// ---------------------------------------------------------- factories --
// Construction mirrors the historical per-command CLI setup exactly, so a
// registered run at seed s is byte-compatible with a pre-registry run.

template <typename A, typename Sketch>
std::unique_ptr<LinearSketch> WrapDeserialized(std::optional<Sketch> sk) {
  if (!sk.has_value()) return nullptr;
  return std::make_unique<A>(std::move(*sk));
}

// opt.forest with a repetition count of 0 resolved to the family's own.
ForestOptions ForestOf(const AlgOptions& opt,
                       uint32_t family_repetitions =
                           ForestOptions{}.repetitions) {
  ForestOptions forest = opt.forest;
  if (forest.repetitions == 0) forest.repetitions = family_repetitions;
  return forest;
}

std::unique_ptr<LinearSketch> MakeConnectivity(NodeId n,
                                               const AlgOptions& opt,
                                               uint64_t seed) {
  return std::make_unique<ConnectivityAdapter>(
      ConnectivitySketch(n, ForestOf(opt, kConnectivityRepetitions), seed));
}

std::unique_ptr<LinearSketch> MakeBipartite(NodeId n, const AlgOptions& opt,
                                            uint64_t seed) {
  return std::make_unique<BipartiteAdapter>(
      BipartitenessSketch(n, ForestOf(opt), seed));
}

std::unique_ptr<LinearSketch> MakeMst(NodeId n, const AlgOptions& opt,
                                      uint64_t seed) {
  // Unweighted stream ingestion: weight 1 for every edge, one threshold.
  return std::make_unique<MstAdapter>(
      ApproxMstSketch(n, /*max_weight=*/1, opt.epsilon, ForestOf(opt), seed));
}

std::unique_ptr<LinearSketch> MakeKConnect(NodeId n, const AlgOptions& opt,
                                           uint64_t seed) {
  return std::make_unique<KConnectAdapter>(
      KConnectivityTester(n, opt.k, ForestOf(opt), seed));
}

std::unique_ptr<LinearSketch> MakeKEdge(NodeId n, const AlgOptions& opt,
                                        uint64_t seed) {
  return std::make_unique<KEdgeAdapter>(
      KEdgeConnectSketch(n, opt.k, ForestOf(opt), seed));
}

std::unique_ptr<LinearSketch> MakeForest(NodeId n, const AlgOptions& opt,
                                         uint64_t seed) {
  return std::make_unique<ForestAdapter>(
      SpanningForestSketch(n, ForestOf(opt, kConnectivityRepetitions), seed));
}

std::unique_ptr<LinearSketch> MakeMinCut(NodeId n, const AlgOptions& opt,
                                         uint64_t seed) {
  MinCutOptions mopt;
  mopt.epsilon = opt.epsilon;
  mopt.k_scale = 2.0;
  mopt.max_level = opt.max_level;
  mopt.forest = ForestOf(opt);
  return std::make_unique<MinCutAdapter>(MinCutSketch(n, mopt, seed));
}

std::unique_ptr<LinearSketch> MakeSparsify(NodeId n, const AlgOptions& opt,
                                           uint64_t seed) {
  SimpleSparsifierOptions sopt;
  sopt.epsilon = opt.epsilon;
  sopt.k_override = opt.k_override;
  sopt.max_level = opt.max_level;
  sopt.forest = ForestOf(opt);
  return std::make_unique<SparsifyAdapter>(SimpleSparsifier(n, sopt, seed));
}

std::unique_ptr<LinearSketch> MakeWSparsify(NodeId n, const AlgOptions& opt,
                                            uint64_t seed) {
  SimpleSparsifierOptions sopt;
  sopt.epsilon = opt.epsilon;
  sopt.k_override = opt.k_override;
  sopt.max_level = opt.max_level;
  sopt.forest = ForestOf(opt);
  return std::make_unique<WSparsifyAdapter>(
      WeightedSparsifier(n, opt.max_weight, sopt, seed));
}

std::unique_ptr<LinearSketch> MakeTriangles(NodeId n, const AlgOptions& opt,
                                            uint64_t seed) {
  return std::make_unique<TrianglesAdapter>(
      SubgraphSketch(n, /*order=*/3, opt.triangle_samplers,
                     opt.triangle_reps, seed));
}

std::unique_ptr<LinearSketch> DeserializeConnectivity(ByteReader* r) {
  return WrapDeserialized<ConnectivityAdapter>(
      ConnectivitySketch::Deserialize(r));
}
std::unique_ptr<LinearSketch> DeserializeBipartite(ByteReader* r) {
  return WrapDeserialized<BipartiteAdapter>(
      BipartitenessSketch::Deserialize(r));
}
std::unique_ptr<LinearSketch> DeserializeMst(ByteReader* r) {
  return WrapDeserialized<MstAdapter>(ApproxMstSketch::Deserialize(r));
}
std::unique_ptr<LinearSketch> DeserializeKConnect(ByteReader* r) {
  return WrapDeserialized<KConnectAdapter>(
      KConnectivityTester::Deserialize(r));
}
std::unique_ptr<LinearSketch> DeserializeKEdge(ByteReader* r) {
  return WrapDeserialized<KEdgeAdapter>(KEdgeConnectSketch::Deserialize(r));
}
std::unique_ptr<LinearSketch> DeserializeForest(ByteReader* r) {
  return WrapDeserialized<ForestAdapter>(
      SpanningForestSketch::Deserialize(r));
}
std::unique_ptr<LinearSketch> DeserializeMinCut(ByteReader* r) {
  return WrapDeserialized<MinCutAdapter>(MinCutSketch::Deserialize(r));
}
std::unique_ptr<LinearSketch> DeserializeSparsify(ByteReader* r) {
  return WrapDeserialized<SparsifyAdapter>(SimpleSparsifier::Deserialize(r));
}
std::unique_ptr<LinearSketch> DeserializeTriangles(ByteReader* r) {
  return WrapDeserialized<TrianglesAdapter>(SubgraphSketch::Deserialize(r));
}
std::unique_ptr<LinearSketch> DeserializeWSparsify(ByteReader* r) {
  return WrapDeserialized<WSparsifyAdapter>(
      WeightedSparsifier::Deserialize(r));
}

}  // namespace

// ----------------------------------------- base query vocabulary --

bool LinearSketch::Query(const std::string& query, std::string* out,
                         std::string* error) const {
  const auto t = QueryTokens(query);
  if (t.size() == 1 && t[0] == "answer") {
    *out = AnswerString(*this);
    return true;
  }
  if (t.size() == 1 && t[0] == "describe") {
    *out = Describe();
    return true;
  }
  if (t.size() == 1 && t[0] == "cells") {
    *out = std::to_string(CellCount());
    return true;
  }
  if (error != nullptr) {
    *error = (t.empty() ? std::string("empty query")
                        : "unknown query '" + query + "'") +
             "; supported: " + QueryVerbs();
  }
  return false;
}

std::string LinearSketch::QueryVerbs() const {
  return "answer, describe, cells";
}

std::string AnswerString(const LinearSketch& sk) {
  // open_memstream: PrintAnswer writes through the one FILE* surface every
  // adapter already implements, and the bytes land in memory — the printed
  // answer and the served answer cannot drift apart.
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  if (f == nullptr) return std::string();
  sk.PrintAnswer(f);
  std::fclose(f);
  std::string out(buf, len);
  std::free(buf);
  return out;
}

const std::vector<AlgInfo>& Registry() {
  // Presentation order: the historical CLI commands first, then the
  // families the registry newly exposed.
  static const std::vector<AlgInfo> kRegistry = {
      {"connectivity", AlgTag::kConnectivity, "components / connected?",
       /*endpoint_sharded=*/true, /*uses_k=*/false, MakeConnectivity,
       DeserializeConnectivity},
      {"bipartite", AlgTag::kBipartite,
       "bipartiteness via the double cover", true, false, MakeBipartite,
       DeserializeBipartite},
      {"mincut", AlgTag::kMinCut, "(1+eps) minimum cut (eps = 0.5)", true,
       false, MakeMinCut, DeserializeMinCut},
      {"sparsify", AlgTag::kSparsify,
       "decode a cut sparsifier, print its edges", true, false, MakeSparsify,
       DeserializeSparsify},
      {"triangles", AlgTag::kTriangles, "order-3 pattern fractions",
       /*endpoint_sharded=*/false, false, MakeTriangles,
       DeserializeTriangles},
      {"kconnect", AlgTag::kKConnectivity,
       "k-edge-connectivity test (--k, default 3)", true, /*uses_k=*/true,
       MakeKConnect, DeserializeKConnect},
      {"kedge", AlgTag::kKEdgeConnect,
       "k-EDGECONNECT witness edges (--k, default 3)", true, true, MakeKEdge,
       DeserializeKEdge},
      {"forest", AlgTag::kSpanningForest,
       "spanning forest edges and components", true, false, MakeForest,
       DeserializeForest},
      {"mst", AlgTag::kApproxMst,
       "approximate spanning-forest weight (unweighted: edge count)", true,
       false, MakeMst, DeserializeMst},
      {"wsparsify", AlgTag::kWeightedSparsify,
       "weighted cut sparsifier (hashed demo weights in [1, --max-weight])",
       true, false, MakeWSparsify, DeserializeWSparsify},
  };
  return kRegistry;
}

const AlgInfo* FindAlg(const std::string& name) {
  for (const auto& info : Registry()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

const AlgInfo* FindAlg(AlgTag tag) {
  for (const auto& info : Registry()) {
    if (tag == info.tag) return &info;
  }
  return nullptr;
}

const char* AlgTagName(AlgTag tag) {
  const AlgInfo* info = FindAlg(tag);
  return info != nullptr ? info->name : "unknown";
}

namespace {

template <typename Pred>
std::string JoinNames(const char* sep, Pred pred) {
  std::string out;
  for (const auto& info : Registry()) {
    if (!pred(info)) continue;
    if (!out.empty()) out += sep;
    out += info.name;
  }
  return out;
}

}  // namespace

std::string RegistryNameList(const char* sep) {
  return JoinNames(sep, [](const AlgInfo&) { return true; });
}

std::string ShardedAlgNameList(const char* sep) {
  return JoinNames(sep, [](const AlgInfo& i) { return i.endpoint_sharded; });
}

std::string KAlgNameList(const char* sep) {
  return JoinNames(sep, [](const AlgInfo& i) { return i.uses_k; });
}

}  // namespace gsketch
