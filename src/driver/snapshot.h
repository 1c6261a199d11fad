// Query-while-ingest serving: consistent sketch snapshots plus a query
// thread that answers from them while ingestion keeps running.
//
// AGM12's headline property is that a linear sketch answers structural
// queries at ANY point of the stream, not just at the end — but decoding
// (forest extraction, cut search) takes orders of magnitude longer than
// applying one update, so decoding in the ingest path would stall the
// stream. The split here mirrors the buffered-ingest / queryable-state
// architecture of production streaming-connectivity systems:
//
//   ingest thread                        query thread
//   ─────────────                        ────────────
//   Push Push Push ...                   Submit(label, query, snap)
//   CaptureSnapshot() ──┐                  │ decodes against the pinned
//     drain barrier     │ SnapshotView()   │ capture, answers with the
//     (gutters +        ├──► snapshot ─────┘ stream_pos it reflects,
//      worker queues)   │    (owned by the   then drops it
//                       │     queries)
//   Push Push ... ◄─────┘ resumes immediately
//
// A snapshot is a SnapshotView of the sketch pinned to the stream position
// the drain barrier reached. With the COW-paged arenas
// (src/sketch/cow_arena.h) that is an O(pages) fork — microseconds to
// low milliseconds — not a deep clone: the live sketch and the snapshot
// share every arena page until ingestion first touches one, which then
// pays a single ~64 KiB first-touch copy. Snapshots are immutable and
// handed out as shared_ptr<const>, so a slow query keeps its pages alive
// while newer snapshots supersede it, and every answer states exactly
// which stream prefix it reflects. A capture lives exactly as long as
// something holds it: the queries pinned to it, or a SnapshotStore for
// readers that ask for the latest one. Once the last holder lets go, the
// live sketch re-owns the shared pages instead of copying them on first
// touch. Linearity makes each answer byte-identical to stopping
// ingestion at that position and querying (tests/snapshot_test.cc proves
// it per registered family and per worker count and gutter size).
//
// Snapshots may also carry an EagerCut (src/driver/eager_forest.h): while
// the stream prefix is insert-only, `connected`/`components` queries are
// answered from the exact DSU partition in O(1) with zero sketch decode;
// the first invalidating deletion drops the cut and queries transparently
// fall back to sketch decoding.
#ifndef GRAPHSKETCH_SRC_DRIVER_SNAPSHOT_H_
#define GRAPHSKETCH_SRC_DRIVER_SNAPSHOT_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "src/core/sketch_registry.h"
#include "src/core/sync.h"
#include "src/driver/eager_forest.h"
#include "src/driver/ingest_pipeline.h"
#include "src/driver/sketch_driver.h"

namespace gsketch {

/// Where a snapshot's latency went: `drain_ms` is the barrier — flushing
/// gutters, applying what is still queued, and waiting for the workers'
/// in-flight batches (relocated ingestion work, not overhead);
/// `publish_ms` is the capture itself — with COW arenas, an O(pages) fork
/// plus, when a store keeps it, the store publish.
struct SnapshotTiming {
  double drain_ms = 0;
  double publish_ms = 0;
};

/// One immutable capture of sketch state: the (COW-shared) view plus the
/// stream position (in stream tokens) it reflects, and — when the driver
/// maintains a still-valid eager forest — the exact connectivity
/// partition at that position.
struct SketchSnapshot {
  uint64_t stream_pos = 0;
  std::unique_ptr<const LinearSketch> sketch;
  /// Exact partition at stream_pos (insert-only prefix); nullptr when the
  /// eager path is off or a deletion invalidated it. Queries it can serve
  /// skip sketch decode entirely.
  std::shared_ptr<const EagerCut> eager;
};

/// Thread-safe latest-snapshot slot: the ingest thread publishes, any
/// number of query threads read. Readers get a shared_ptr that stays
/// valid (and immutable) however far ingestion advances past it.
class SnapshotStore {
 public:
  /// Publishes a new snapshot and returns it. Positions at or past the
  /// current latest replace it; an out-of-order (older) publish is
  /// dropped and the existing newer snapshot is returned instead.
  std::shared_ptr<const SketchSnapshot> Publish(
      uint64_t stream_pos, std::unique_ptr<const LinearSketch> sketch,
      std::shared_ptr<const EagerCut> eager = nullptr);

  /// The most recent snapshot, or nullptr before the first Publish.
  std::shared_ptr<const SketchSnapshot> Latest() const;

  /// Snapshots accepted by Publish so far.
  uint64_t published() const;

 private:
  // Leaf lock (sync.h): held only around the slot swap/read, never while
  // forking or decoding a sketch.
  mutable Mutex mu_;
  std::shared_ptr<const SketchSnapshot> latest_ GSKETCH_GUARDED_BY(mu_);
  uint64_t published_ GSKETCH_GUARDED_BY(mu_) = 0;
};

/// THE drain-barrier capture, which every publish path runs. It takes
/// channel `sid`'s eager cut (which reflects every token pushed, exactly
/// where the drain lands), drains the channel, and forks a COW
/// SnapshotView of `sketch`, the sketch that channel applies to, pinned
/// to the drained stream position. With a `store`, the capture is
/// published there inside the publish timer, and the store's answer is
/// returned; without one, the caller holds the only reference. When
/// `timing` is given it receives the drain-wait vs fork/publish split.
/// Producer-side only; ingestion may resume immediately after return.
std::shared_ptr<const SketchSnapshot> CaptureSnapshot(
    IngestPipeline* pipeline, IngestPipeline::SessionId sid,
    const LinearSketch& sketch, SnapshotStore* store,
    SnapshotTiming* timing);

/// CaptureSnapshot of the driver's sketch, published into `store`;
/// returns the published snapshot (for callers that want to pin queries
/// to exactly this capture). Producer-side only, like SketchDriver::Push.
std::shared_ptr<const SketchSnapshot> PublishSnapshot(
    SketchDriver<LinearSketch>* driver, SnapshotStore* store,
    SnapshotTiming* timing = nullptr);

/// True for the families whose sketch path answers "components" and
/// "connected u v" — connectivity and forest — so an eager cut can answer
/// them instead. Serve turns the eager forest on for exactly these.
bool EagerCutServes(AlgTag tag);

/// Answers `query` from an exact eager cut when (a) the family (`tag`)
/// would accept exactly this query shape on its sketch path and (b) the
/// cut can serve it: "components", "connected u v", and — connectivity
/// only — bare "connected". Anything else, malformed node arguments
/// included, returns nullopt so the sketch path produces its usual answer
/// or error text. The two paths agree whenever both can answer: the cut
/// is exact and the sketch decodes the same partition.
std::optional<std::string> EagerAnswer(const EagerCut& cut, AlgTag tag,
                                       const std::string& query);

/// Decides when periodic snapshots are due, COALESCING overdue ticks:
/// when one publish takes longer than the interval, the ticks it ran
/// through collapse into the single snapshot that is already due next,
/// instead of queueing a backlog of stale captures (the pre-COW 100 ms
/// sweep in BENCH_E15 spent more time working off that backlog than
/// ingesting). Single-threaded, driven from the ingest loop. Its one
/// caller is E15's cadence sweep (bench/bench_serve.cc); serve captures
/// only where a query reads.
class SnapshotScheduler {
 public:
  /// Wall-clock cadence of `interval_seconds` (<= 0 disables); the first
  /// tick is due at `interval_seconds`. Times come from any monotone clock
  /// that starts at 0 when the cadence does.
  explicit SnapshotScheduler(double interval_seconds);

  /// True when at least one tick is overdue at `now_seconds`.
  bool Due(double now_seconds) const;

  /// Acknowledges a snapshot published at `now_seconds`: advances past
  /// every tick that is already overdue, counting the skipped ones.
  void Taken(double now_seconds);

  /// Overdue ticks collapsed into an already-taken snapshot.
  uint64_t coalesced() const { return coalesced_; }

 private:
  double interval_;
  double next_;
  uint64_t coalesced_ = 0;
};

/// Answers queries from snapshots on its own thread while the ingest
/// thread keeps pushing. Submitted queries are answered in submission
/// order; each answer is prefixed with the stream_pos it reflects:
///
///   @<stream_pos> <query> => <answer>          (single-line answers)
///   @<stream_pos> <query> =>\n<answer lines>   (multi-line answers)
///
/// Queries submitted with an explicit snapshot are pinned to it
/// (deterministic: the serve script path), and the pinned query is what
/// keeps that capture alive: the engine drops it once the answer is
/// written. Queries submitted bare resolve the store's latest snapshot
/// when they reach the front of the queue.
///
/// One engine answers for ANY number of sessions: a pinned query carries
/// its session's label, and is answered as
///
///   <label>@<stream_pos> <query> => <answer>
///
/// An empty label keeps the single-graph `@<stream_pos>` header.
class QueryEngine {
 public:
  /// Answers against `*store` (which must outlive the engine), writing
  /// to `out`. The worker thread starts immediately. `store` may be
  /// nullptr for an engine whose every Submit pins a snapshot.
  QueryEngine(const SnapshotStore* store, std::FILE* out);

  /// Drains the queue and joins the worker (idempotent).
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Enqueues an unlabeled query answered against the engine store's
  /// latest snapshot at execution time. Thread-safe.
  void Submit(std::string query);

  /// Enqueues a query pinned to `snap` (may be nullptr: answered as "no
  /// snapshot yet"); the answer header is `<label>@<pos>`, or `@<pos>`
  /// for an empty label. Thread-safe.
  void Submit(std::string label, std::string query,
              std::shared_ptr<const SketchSnapshot> snap);

  /// Blocks until every submitted query has been answered, then stops the
  /// worker. Further Submits are dropped. Idempotent.
  void Finish();

  /// Queries answered (including error answers) so far.
  uint64_t answered() const;

  /// Queries whose sketch rejected the query (unknown verb, bad args) or
  /// that arrived before any snapshot existed.
  uint64_t errors() const;

  /// Queries answered from a snapshot's exact eager cut (no sketch
  /// decode touched).
  uint64_t eager_answered() const;

 private:
  struct Item {
    std::string label;  // empty = single-graph header
    std::string query;
    std::shared_ptr<const SketchSnapshot> pin;
    bool pinned = false;  // false: resolve store_'s latest at answer time
  };

  void Enqueue(Item item);
  void Loop();

  const SnapshotStore* const store_;
  std::FILE* const out_;
  // Leaf lock (sync.h): guards the submission queue and counters only.
  // The worker decodes answers with mu_ RELEASED — a slow query must not
  // block Submit — so every guarded access sits in a short lock scope.
  mutable Mutex mu_;
  CondVar work_;
  CondVar idle_;
  std::deque<Item> queue_ GSKETCH_GUARDED_BY(mu_);
  bool stopping_ GSKETCH_GUARDED_BY(mu_) = false;
  bool finished_ GSKETCH_GUARDED_BY(mu_) = false;
  uint64_t submitted_ GSKETCH_GUARDED_BY(mu_) = 0;
  uint64_t answered_ GSKETCH_GUARDED_BY(mu_) = 0;
  uint64_t errors_ GSKETCH_GUARDED_BY(mu_) = 0;
  uint64_t eager_answered_ GSKETCH_GUARDED_BY(mu_) = 0;
  std::thread thread_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_DRIVER_SNAPSHOT_H_
