// Batched multi-threaded stream ingestion, in the style of the
// GraphSketchDriver of production streaming-connectivity systems.
//
// Every stream token (u, v, δ) is split into its two endpoint halves,
// which buffer in per-node gutters (src/driver/gutter.h). A full gutter
// flushes one dense per-node batch into a bounded queue shared by every
// worker; any worker applies any node's batch in place, holding that
// node's apply stripe for the call. Linearity of the sketches makes the
// result bit-identical to sequential ingestion in any update order and
// with any worker count.
//
// The machinery itself — worker pool, shared queue, drain barrier, apply
// stripes — lives in the type-erased, multi-session IngestPipeline
// (src/driver/ingest_pipeline.h). SketchDriver<Alg> is the single-sketch
// FACADE over one private pipeline, for tests, benches, and single-graph
// CLI runs, while SessionManager (src/session/) co-hosts many sketches on
// one shared pipeline through the same channel mechanism.
//
// Alg concept:
//   void UpdateEndpoint(NodeId endpoint, NodeId u, NodeId v, int64_t delta);
// where the call touches only state owned by stream node `endpoint`
// (every registered family but triangles satisfies this; an Alg that does
// not says so with `bool EndpointSharded() const` returning false, and
// the pipeline then serializes its applies). Deltas are int64_t end to end
// in memory — the GSKB wire format stays int32 per record, but repeated
// pushes may accumulate any int64 aggregate per edge. Algs may
// additionally implement
//   void ApplyBatch(NodeId endpoint, Span<const NodeId> others,
//                   Span<const int64_t> deltas);
// the dense same-endpoint fast path gutter flushes apply through (without
// it, batches fall back to UpdateEndpoint).
//
// Flow control: the producer (the thread calling Push/ProcessStream)
// fills the gutters; `max_pending_batches` per worker bounds the shared
// queue, so a producer that outruns the workers applies the flush that
// found the queue full itself (backpressure), and Drain applies what is
// still queued before waiting for the workers.
//
// Concurrency contract: the driver itself owns no locks — every mutex it
// relies on is a capability-annotated gsketch::Mutex inside the pipeline
// (src/driver/ingest_pipeline.h) or the COW arenas, machine-checked by
// clang -Wthread-safety (src/core/sync.h). What the annotations CANNOT
// express is the single-producer rule — Push/Drain/PublishSnapshot from
// one thread — because the producer path is deliberately lock-free; that
// rule stays a documented contract, exercised by the TSan CI tier.
#ifndef GRAPHSKETCH_SRC_DRIVER_SKETCH_DRIVER_H_
#define GRAPHSKETCH_SRC_DRIVER_SKETCH_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/driver/binary_stream.h"
#include "src/driver/gutter.h"
#include "src/driver/ingest_pipeline.h"
#include "src/graph/stream.h"

namespace gsketch {

class LinearSketch;
struct SketchSnapshot;
class SnapshotStore;
struct SnapshotTiming;

/// Detects `NodeId num_nodes() const` on an Alg — the eager-connectivity
/// fast path needs the node-universe size; Algs without it (ad-hoc test
/// algs) silently skip the feature.
template <typename Alg, typename = void>
struct AlgHasNumNodes : std::false_type {};
template <typename Alg>
struct AlgHasNumNodes<
    Alg, std::void_t<decltype(std::declval<const Alg&>().num_nodes())>>
    : std::true_type {};

/// Detects `bool EndpointSharded() const` on an Alg (LinearSketch has
/// it); Algs without it are endpoint-sharded, as the driver concept says.
template <typename Alg, typename = void>
struct AlgHasEndpointSharded : std::false_type {};
template <typename Alg>
struct AlgHasEndpointSharded<
    Alg,
    std::void_t<decltype(std::declval<const Alg&>().EndpointSharded())>>
    : std::true_type {};

/// Tuning knobs for SketchDriver: the pipeline knobs plus the per-sketch
/// channel knobs, flattened for the single-sketch caller.
struct DriverOptions {
  uint32_t num_workers = 1;  ///< worker threads; 0 = hardware concurrency
  /// Queue bound per worker; a flush that finds the queue full is applied
  /// on the producer thread (backpressure).
  size_t max_pending_batches = 8;
  /// Per-node gutter bytes; values below one 12-byte entry clamp to one.
  size_t gutter_bytes = kDefaultGutterBytes;
  /// Maintain an exact union-find/spanning-forest inline at Push time
  /// (src/driver/eager_forest.h): while the stream stays insert-only,
  /// connectivity queries are answered exactly with zero drain/snapshot
  /// cost. Requires an Alg with num_nodes(); ignored otherwise.
  bool eager_connectivity = false;
};

/// The generic IngestSink over any Alg satisfying the driver concept:
/// forwards each batch through the Alg's fastest available path, using
/// the same trait detection the pre-pipeline driver used inline, so
/// behavior (and bytes) are unchanged. Also the adapter SessionManager
/// uses to attach registry sketches.
template <typename Alg>
class AlgIngestSink : public IngestSink {
 public:
  explicit AlgIngestSink(Alg* alg) : alg_(alg) {}

  void ApplyNode(const NodeBatch& batch) override {
    ApplyNodeBatch(alg_, batch);
  }

  bool EndpointSharded() const override {
    if constexpr (AlgHasEndpointSharded<Alg>::value) {
      return alg_->EndpointSharded();
    } else {
      return true;
    }
  }

 private:
  Alg* alg_;
};

template <typename Alg>
class SketchDriver {
 public:
  /// Drives `*alg`, which must outlive the driver. Workers start
  /// immediately and idle until updates arrive.
  explicit SketchDriver(Alg* alg, const DriverOptions& opt = DriverOptions())
      : alg_(alg),
        sink_(alg),
        pipeline_(PipelineOptionsOf(opt)) {
    ChannelOptions copt;
    copt.gutter_bytes = opt.gutter_bytes;
    if (opt.eager_connectivity) {
      if constexpr (AlgHasNumNodes<Alg>::value) {
        copt.eager_nodes = alg_->num_nodes();
      }
    }
    sid_ = pipeline_.Attach(&sink_, copt);
  }

  SketchDriver(const SketchDriver&) = delete;
  SketchDriver& operator=(const SketchDriver&) = delete;

  /// Buffers both endpoint halves of one stream token in the gutters.
  /// Producer-side only; not safe to call from multiple threads at once.
  void Push(NodeId u, NodeId v, int64_t delta) {
    pipeline_.Push(sid_, u, v, delta);
  }

  /// Flushes all gutters and blocks until every queued update has been
  /// applied. After Drain() returns, `*alg` reflects the whole stream
  /// pushed so far and may be queried safely from the calling thread.
  void Drain() { pipeline_.Drain(sid_); }

  /// Ingests a whole in-memory stream and drains.
  void ProcessStream(const DynamicGraphStream& stream) {
    for (const auto& e : stream.Updates()) Push(e.u, e.v, e.delta);
    Drain();
  }

  /// Ingests a whole binary stream file and drains. Returns false if the
  /// reader failed or the stream was not fully consumed (the driver still
  /// drains whatever was read); `*error`, when given, then carries the
  /// reader's diagnostic.
  bool ProcessFile(BinaryStreamReader* reader, std::string* error = nullptr) {
    std::vector<EdgeUpdate> batch;
    batch.reserve(kStreamReadChunk);
    while (!reader->Done() && reader->ok()) {
      batch.clear();
      if (reader->ReadBatch(kStreamReadChunk, &batch) == 0) break;
      for (const auto& e : batch) Push(e.u, e.v, e.delta);
    }
    Drain();
    if (reader->ok() && reader->Done()) return true;
    if (error != nullptr) {
      *error = !reader->error().empty()
                   ? reader->error()
                   : "stream ended before the declared update count";
    }
    return false;
  }

  /// Endpoint half-updates applied so far (2 per stream token). Safe to
  /// read from any thread; progress reporters poll this. Half-updates
  /// still buffered in gutters count only once flushed and applied.
  uint64_t TotalUpdates() const { return pipeline_.AppliedHalves(sid_); }

  /// Stream tokens pushed so far (producer-side count).
  uint64_t StreamUpdates() const { return pipeline_.StreamUpdates(sid_); }

  uint32_t num_workers() const { return pipeline_.num_workers(); }

  /// Half-updates applied by worker `w` so far. Safe from any thread.
  /// Shows how evenly the shared queue spread the stream (tests assert a
  /// hot-spot stream reaches every worker).
  uint64_t WorkerAppliedHalves(uint32_t w) const {
    return pipeline_.WorkerAppliedHalves(w);
  }

  /// Half-updates the producer applied itself (full-queue flushes and
  /// Drain's help). Safe from any thread.
  uint64_t ProducerAppliedHalves() const {
    return pipeline_.ProducerAppliedHalves();
  }

  /// The gutter layer's stats.
  const GutterSystem* gutters() const { return pipeline_.gutters(sid_); }

 private:
  // The query-while-ingest capture (src/driver/snapshot.h) drains and
  // forks this driver's channel through the routine sessions use.
  friend std::shared_ptr<const SketchSnapshot> PublishSnapshot(
      SketchDriver<LinearSketch>* driver, SnapshotStore* store,
      SnapshotTiming* timing);

  static PipelineOptions PipelineOptionsOf(const DriverOptions& opt) {
    PipelineOptions popt;
    popt.num_workers = opt.num_workers;
    popt.max_pending_batches = opt.max_pending_batches;
    return popt;
  }

  Alg* alg_;
  AlgIngestSink<Alg> sink_;  // must outlive pipeline_ (declared first)
  IngestPipeline pipeline_;
  IngestPipeline::SessionId sid_ = 0;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_DRIVER_SKETCH_DRIVER_H_
