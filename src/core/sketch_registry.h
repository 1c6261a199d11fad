// The unified linear-sketch algorithm layer (Sec 1.1 made operational).
//
// AGM12's central structural property is that every sketch is a LINEAR
// measurement of the stream: sketches of partial streams merge by addition
// into the sketch of the whole stream. That one property powers parallel
// ingestion (src/driver/sketch_driver.h), mid-stream checkpointing
// (src/driver/checkpoint.h), and distributed shard-merge (gsketch shard /
// merge) — so instead of wiring each algorithm family into each consumer
// by hand, every family implements ONE contract here and every consumer is
// written once against it. Registering an algorithm in Registry() buys it
// CLI ingestion, checkpoint/resume, shard-merge, and query-while-ingest
// serving for free.
//
// The contract (LinearSketch):
//   * UpdateEndpoint — the endpoint half-update; the two halves of a
//     token compose to the full update.
//   * Merge         — sketch addition (requires identical construction:
//     same n, options, and seed; structural mismatches are rejected).
//   * AppendTo      — full-state serialization, byte-compatible with the
//     concrete sketch's own AppendTo (GSKC payloads are unchanged).
//   * Clone         — a copy of the whole sketch that shares its
//     copy-on-write pages (src/sketch/cow_arena.h): O(pages), not a deep
//     copy, and independent of the original from the first write on.
//   * SnapshotView/Query — the serving surface (src/driver/snapshot.h):
//     an immutable capture pinned at a stream position, and text queries
//     ("components", "connected 3 7", …) decoded from it without mutating
//     anything.
//   * Tag/Describe/PrintAnswer — identity, parameter summary, and the
//     decoded answer, for generic tooling (CLI dispatch, `inspect`).
//
// Adapters are thin: they hold the concrete sketch by value and forward.
#ifndef GRAPHSKETCH_SRC_CORE_SKETCH_REGISTRY_H_
#define GRAPHSKETCH_SRC_CORE_SKETCH_REGISTRY_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/span.h"
#include "src/core/spanning_forest.h"
#include "src/graph/graph.h"
#include "src/sketch/serde.h"

namespace gsketch {

/// Algorithm identity. The numeric values are the GSKC checkpoint wire
/// tags — stable forever; append, never renumber. Values 1-3 predate the
/// registry (GSKC format v1) and must keep reading old checkpoint files.
enum class AlgTag : uint32_t {
  kConnectivity = 1,
  kKConnectivity = 2,
  kMinCut = 3,
  kBipartite = 4,
  kApproxMst = 5,
  kKEdgeConnect = 6,
  kSpanningForest = 7,
  kSparsify = 8,
  kTriangles = 9,
  kWeightedSparsify = 10,
};

/// The uniform linear-sketch contract (see file comment).
class LinearSketch {
 public:
  virtual ~LinearSketch() = default;

  LinearSketch() = default;
  LinearSketch(const LinearSketch&) = delete;
  LinearSketch& operator=(const LinearSketch&) = delete;

  /// Wire tag of the wrapped algorithm.
  virtual AlgTag Tag() const = 0;

  /// Node universe size the sketch was built for.
  virtual NodeId num_nodes() const = 0;

  /// Total 1-sparse cells (space proxy).
  virtual size_t CellCount() const = 0;

  /// Endpoint half of one stream token (the SketchDriver Alg concept):
  /// UpdateEndpoint(u,u,v,d); UpdateEndpoint(v,v,u,d) composes to the full
  /// token (u,v,d).
  virtual void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v,
                              int64_t delta) = 0;

  /// Applies one full stream token via its two endpoint halves.
  void Update(NodeId u, NodeId v, int64_t delta) {
    UpdateEndpoint(u, u, v, delta);
    UpdateEndpoint(v, v, u, delta);
  }

  /// Applies a dense batch of half-updates all owned by `endpoint`: edge
  /// {endpoint, others[i]} += deltas[i] for every i. This is the gutter
  /// flush path (src/driver/gutter.h): node-incidence sketches override it
  /// to hash the endpoint's sampler slices once per batch and stream the
  /// cell updates in a tight loop. The default simply loops UpdateEndpoint,
  /// so adapters without a batch fast path stay correct. Must be
  /// bit-identical to the per-update loop (linearity: cell sums commute).
  virtual void ApplyBatch(NodeId endpoint, Span<const NodeId> others,
                          Span<const int64_t> deltas) {
    for (size_t i = 0; i < others.size(); ++i) {
      UpdateEndpoint(endpoint, endpoint, others[i], deltas[i]);
    }
  }

  /// Adds `other` (sketch addition). False with `*error` set, and this
  /// sketch unchanged, when `other` is a different algorithm or measures
  /// differently: the family's MismatchWith names the first parameter
  /// (n, k, rounds, a level count, a seed, ...) that differs. The concrete
  /// Merge methods only assert this, so shards must still be built with
  /// identical (n, options, seed) to add.
  virtual bool Merge(const LinearSketch& other, std::string* error) = 0;

  /// Serializes the full sketch state; byte-identical to the concrete
  /// sketch's AppendTo (this is the GSKC checkpoint payload).
  virtual void AppendTo(std::string* out) const = 0;

  /// Copy of the whole sketch. The COW-paged arena storage
  /// (src/sketch/cow_arena.h) makes this an O(pages) share, far cheaper
  /// than a deep copy or AppendTo + Deserialize. The clone is logically
  /// fully independent: updates to either side never touch the other
  /// (first-touch page copies), and both serialize to identical bytes at
  /// the moment of the copy.
  virtual std::unique_ptr<LinearSketch> Clone() const = 0;

  /// An immutable capture for serving (the query-while-ingest snapshot
  /// path, src/driver/snapshot.h). Semantically Clone() — and that is the
  /// default — but the contract is weaker: the result is only ever read,
  /// so families whose state is COW-shared or externally versioned may
  /// return an even cheaper view. Must be called at a quiescent point
  /// (the drain barrier in CaptureSnapshot, src/driver/snapshot.h,
  /// provides one).
  virtual std::unique_ptr<const LinearSketch> SnapshotView() const {
    return Clone();
  }

  /// Answers one text query ("components", "connected 3 7", "mincut", …)
  /// against the current sketch state into `*out`; false with `*error`
  /// set for unknown verbs or malformed arguments. Every family answers
  /// the common verbs ("answer" — the PrintAnswer text, "describe",
  /// "cells"); adapters extend the vocabulary per family. Pure decode:
  /// never mutates the sketch, so it is safe on an immutable snapshot.
  virtual bool Query(const std::string& query, std::string* out,
                     std::string* error) const;

  /// Comma-separated query verbs this sketch answers (usage/error text).
  virtual std::string QueryVerbs() const;

  /// One-line parameter summary, e.g. "kconnect: n=64, k=3, 24576 cells".
  virtual std::string Describe() const = 0;

  /// Decodes the sketch and prints the algorithm's answer (the exact
  /// output the dedicated CLI command historically printed).
  virtual void PrintAnswer(std::FILE* out) const = 0;

  /// True when distinct endpoints touch disjoint sketch state, making
  /// multi-worker ingestion under per-endpoint locks safe. False
  /// (SubgraphSketch) restricts the driver to one worker, and the
  /// pipeline applies the sketch's batches one at a time (its producer
  /// applies too).
  virtual bool EndpointSharded() const { return true; }
};

/// Detects whether an algorithm type implements the dense same-endpoint
/// batch fast path of the contract above —
///   ApplyBatch(NodeId, Span<const NodeId>, Span<const int64_t>)
/// — so generic callers (the registry adapters, the driver's gutter
/// flush) can fall back to a per-update UpdateEndpoint loop when it is
/// absent. One definition serves both sites; keep it in sync with the
/// LinearSketch::ApplyBatch signature.
template <typename Alg, typename = void>
struct AlgHasApplyBatch : std::false_type {};
template <typename Alg>
struct AlgHasApplyBatch<
    Alg, std::void_t<decltype(std::declval<Alg&>().ApplyBatch(
             NodeId{}, std::declval<Span<const NodeId>>(),
             std::declval<Span<const int64_t>>()))>> : std::true_type {};

/// The ℓ₀ repetition count the registered `connectivity` and `forest`
/// families ship: one more than the smallest count whose measured forest
/// failure curve read no wrong component count at the auto round count
/// and two rounds fewer (docs/TESTING.md, "The forest failure curve"). The
/// other forest-based families keep ForestOptions{}.repetitions until
/// each has a curve of its own.
inline constexpr uint32_t kConnectivityRepetitions = 3;

/// Construction knobs the registry factories understand. Defaults match
/// the historical CLI construction of each family, so registered runs are
/// byte-compatible with pre-registry runs at the same seed — except that
/// `connectivity` and `forest` build kConnectivityRepetitions ℓ₀
/// repetitions where they built 6. The non-CLI knobs below exist for
/// benchmarks and embedders that tune space.
struct AlgOptions {
  uint32_t k = 3;         ///< witness strength (kconnect, kedge)
  double epsilon = 0.5;   ///< target error (mincut, sparsify, mst)
  /// Forest parameters for every forest-based alg. Repetitions 0 is the
  /// family's own count, as rounds 0 is the automatic round count:
  /// kConnectivityRepetitions for connectivity and forest,
  /// ForestOptions{}.repetitions for the others.
  ForestOptions forest{/*rounds=*/0, /*repetitions=*/0};
  uint32_t max_level = 0;      ///< subsampling depth (mincut, sparsify);
                               ///< 0 = auto
  uint32_t k_override = 0;     ///< sparsify: exact k instead of the formula
  uint32_t triangle_samplers = 200;  ///< triangles: ℓ₀-sampler count
  uint32_t triangle_reps = 6;        ///< triangles: repetitions per sampler
  int64_t max_weight = 2;  ///< wsparsify: weight-class ceiling W
                           ///< (O(log W) classes, each a doubled-k
                           ///< sparsifier — raise deliberately)
};

/// One registered algorithm family: identity, capabilities, and factories.
struct AlgInfo {
  const char* name;     ///< CLI command / checkpoint-alg name
  AlgTag tag;           ///< GSKC wire tag
  const char* summary;  ///< one-line answer description (usage text)
  bool endpoint_sharded;  ///< safe for multi-worker ingestion
  bool uses_k;            ///< factory consumes AlgOptions::k

  /// Builds a fresh sketch; equal (n, opt, seed) build identically
  /// measuring (hence mergeable) sketches.
  std::unique_ptr<LinearSketch> (*make)(NodeId n, const AlgOptions& opt,
                                        uint64_t seed);

  /// Parses a serialized sketch of this family; nullptr on malformed
  /// input. Inverse of LinearSketch::AppendTo.
  std::unique_ptr<LinearSketch> (*deserialize)(ByteReader* r);
};

/// Parses a query's node argument: the whole token a decimal integer
/// below `n`. False otherwise, with `*error` (when non-null) set to the
/// adapters' error text. The one node parse of every Query() and of the
/// eager-cut fast path (src/driver/snapshot.h).
bool ParseQueryNode(const std::string& tok, NodeId n, NodeId* out,
                    std::string* error);

/// The exact text LinearSketch::PrintAnswer would write, as a string (the
/// "answer" query and the serve path both funnel through this).
std::string AnswerString(const LinearSketch& sk);

/// All registered algorithms, in stable presentation order.
const std::vector<AlgInfo>& Registry();

/// Lookup by CLI name; nullptr when unknown.
const AlgInfo* FindAlg(const std::string& name);

/// Lookup by wire tag; nullptr when unknown.
const AlgInfo* FindAlg(AlgTag tag);

/// Name of a tag ("connectivity", ...); "unknown" for unrecognized tags.
const char* AlgTagName(AlgTag tag);

/// All registered names joined by `sep` ("connectivity bipartite ...").
std::string RegistryNameList(const char* sep = " ");

/// Names of endpoint-sharded algorithms joined by `sep` (the ones that
/// accept multi-worker ingestion).
std::string ShardedAlgNameList(const char* sep = ", ");

/// Names of algorithms whose factory consumes AlgOptions::k.
std::string KAlgNameList(const char* sep = "/");

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_CORE_SKETCH_REGISTRY_H_
