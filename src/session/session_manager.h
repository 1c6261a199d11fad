// The multi-tenant session layer: N named sketch sessions co-hosted on
// ONE shared IngestPipeline (worker pool + queue fabric).
//
// AGM linear sketches make co-hosting cheap — all tenants share the same
// cell/kernel machinery, per-tenant state is just arenas — so the
// SessionManager keeps a name → SketchSession map over one pipeline:
//
//   SessionManager
//   ├── IngestPipeline (shared: workers, queues, drain barrier, stripes)
//   ├── "social"  → SketchSession { connectivity sketch, gutters,
//   │                               eager forest, channel 0 }
//   ├── "roads"   → SketchSession { mst sketch, ..., channel 1 }
//   └── "billing" → SketchSession { kconnect sketch, ..., channel 2 }
//
// `gsketch_cli serve` runs every graph this way: `serve multi` opens one
// session per trace tenant, and single-graph `serve` is one session with
// an empty label. A session captures only when its caller publishes:
// serve publishes at the stream positions its script queries.
//
// Isolation invariant (tests/session_test.cc): sessions apply to disjoint
// sketch objects, so each tenant's sketch bytes and query answers under
// co-hosting are byte-identical to that tenant running solo — in every
// ingestion mode. Drains are per-session: publishing one tenant's capture
// never stalls the others' ingestion (they keep flowing through the same
// workers during the barrier).
//
// The manager only creates and closes sessions. It has no checkpoint
// surface of its own: the CLI checkpoints and resumes a sketch through
// SaveCheckpoint and RestoreSketch (src/driver/checkpoint.h).
//
// Threading: all SessionManager calls are producer-side (the pipeline's
// single-producer contract), which is why `sessions_` and the memory
// accounting need no lock and carry no GSKETCH_GUARDED_BY — one thread
// mutates them, by contract. A published capture reaches query threads
// through QueryEngine's capability-annotated queue (src/core/sync.h);
// everything the manager touches concurrently goes through the
// pipeline's annotated capabilities.
#ifndef GRAPHSKETCH_SRC_SESSION_SESSION_MANAGER_H_
#define GRAPHSKETCH_SRC_SESSION_SESSION_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/driver/ingest_pipeline.h"
#include "src/session/sketch_session.h"

namespace gsketch {

/// Name → session map over one shared pipeline (see file comment).
class SessionManager {
 public:
  /// The pipeline options (worker count, queue bound) are process-wide:
  /// every session ingests through this one pool.
  explicit SessionManager(const PipelineOptions& opt = PipelineOptions());

  /// Closes every remaining session (draining each), then stops the pool.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a fresh session `name` running registry family `alg`.
  /// Returns nullptr with `*error` set when the family is unknown, the
  /// name is taken, or the config is rejected (multi-worker ingestion of
  /// a non-sharded family); the sketch is built only after those checks
  /// pass. The session pointer stays valid until Close.
  SketchSession* Create(const std::string& name, const std::string& alg,
                        const SessionConfig& cfg, std::string* error);

  /// Drains and destroys the session (its channel id is retired).
  /// False when no such session.
  bool Close(const std::string& name, std::string* error = nullptr);

  /// Sum of every session's MemoryBytes(): aggregate sketch-cell arena
  /// plus gutter-buffered bytes across tenants.
  size_t TotalMemoryBytes() const;

  size_t size() const { return sessions_.size(); }

  IngestPipeline& pipeline() { return pipeline_; }

 private:
  IngestPipeline pipeline_;
  std::map<std::string, std::unique_ptr<SketchSession>> sessions_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_SESSION_SESSION_MANAGER_H_
