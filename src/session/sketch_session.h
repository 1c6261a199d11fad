// One hosted tenant: a named registry sketch plus everything private to
// serving it — the ingest channel on the shared pipeline and its optional
// eager forest, which queries read only through the eager cut a Publish
// captures.
//
// A SketchSession never owns threads, holds no snapshots and keeps no
// clock: it captures when its caller asks (a serve run asks exactly at
// the stream positions its script queries). All ingestion machinery
// lives in the SessionManager's shared IngestPipeline
// (src/driver/ingest_pipeline.h); the session is the per-tenant state a
// channel carries plus the serving state built on top. Publish hands each
// capture to its caller, and the queries pinned to it own it from there.
// Lifecycle and the producer-side threading contract are the
// SessionManager's (src/session/session_manager.h) — sessions are
// created, pushed to, drained, published and closed from the one
// producer thread, while snapshot readers (QueryEngine) may live
// anywhere.
#ifndef GRAPHSKETCH_SRC_SESSION_SKETCH_SESSION_H_
#define GRAPHSKETCH_SRC_SESSION_SKETCH_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/core/sketch_registry.h"
#include "src/driver/ingest_pipeline.h"
#include "src/driver/sketch_driver.h"
#include "src/driver/snapshot.h"

namespace gsketch {

/// Everything needed to build one session's sketch and channel. The
/// sketch-construction fields mirror the registry factory signature;
/// the channel fields mirror ChannelOptions.
struct SessionConfig {
  NodeId num_nodes = 0;   ///< node-universe size [0, n)
  uint64_t seed = 0;      ///< sketch hash seed (equal seeds merge)
  AlgOptions options;     ///< family knobs (k, epsilon, forest, ...)
  /// Per-node gutter bytes; values below one 12-byte entry clamp to one.
  size_t gutter_bytes = kDefaultGutterBytes;
  bool eager_connectivity = false;  ///< exact DSU fast path at Push time
};

/// One named tenant (see file comment). Created only by SessionManager;
/// producer-side mutators follow the pipeline's single-producer contract.
class SketchSession {
 public:
  SketchSession(const SketchSession&) = delete;
  SketchSession& operator=(const SketchSession&) = delete;

  const std::string& name() const { return name_; }
  const AlgInfo& info() const { return *info_; }
  const LinearSketch& sketch() const { return *sketch_; }

  /// Routes one stream token into this session's channel. Producer-side.
  void Push(NodeId u, NodeId v, int64_t delta) {
    pipeline_->Push(sid_, u, v, delta);
  }

  /// Blocks until every queued update of THIS session is applied; other
  /// sessions keep flowing. Producer-side.
  void Drain() { pipeline_->Drain(sid_); }

  /// Drain-barrier capture (CaptureSnapshot, src/driver/snapshot.h):
  /// flushes gutters and queues and returns a COW SnapshotView pinned to
  /// the drained stream position, plus the eager cut when valid. The
  /// session keeps no reference, so the capture lives as long as its
  /// caller and the queries pinned to it. Producer-side.
  std::shared_ptr<const SketchSnapshot> Publish(
      SnapshotTiming* timing = nullptr) {
    return CaptureSnapshot(pipeline_, sid_, *sketch_, nullptr, timing);
  }

  /// Stream tokens this session has ingested. Producer-side.
  uint64_t stream_pos() const { return pipeline_->StreamUpdates(sid_); }

  /// Endpoint half-updates applied so far (2 per token once flushed).
  /// Safe from any thread.
  uint64_t applied_halves() const { return pipeline_->AppliedHalves(sid_); }

  /// Bytes this session holds right now: sketch cells (arena banks) plus
  /// half-updates buffered in its gutters. Producer-side (the gutter term
  /// is producer state).
  size_t MemoryBytes() const {
    return sketch_->CellCount() * sizeof(OneSparseCell) +
           pipeline_->GutterBufferedBytes(sid_);
  }

  /// The session's gutter layer.
  const GutterSystem* gutters() const { return pipeline_->gutters(sid_); }

 private:
  friend class SessionManager;

  SketchSession(std::string name, const AlgInfo* info,
                std::unique_ptr<LinearSketch> sketch,
                IngestPipeline* pipeline)
      : name_(std::move(name)),
        info_(info),
        sketch_(std::move(sketch)),
        sink_(sketch_.get()),
        pipeline_(pipeline) {}

  std::string name_;
  const AlgInfo* info_;
  std::unique_ptr<LinearSketch> sketch_;
  AlgIngestSink<LinearSketch> sink_;
  IngestPipeline* pipeline_;
  IngestPipeline::SessionId sid_ = 0;  // set by SessionManager on attach
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_SESSION_SKETCH_SESSION_H_
