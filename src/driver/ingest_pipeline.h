// The shared, type-erased ingestion pipeline: ONE worker pool and queue
// serving ANY number of co-hosted sketches ("sessions").
//
// AGM linear sketches make co-hosting cheap — all tenants share the same
// cell/kernel machinery, per-tenant state is just arenas — so the reusable
// machinery (worker pool, bounded shared queue, drain barrier, apply
// stripes) lives here, type-erased behind IngestSink, and each tenant
// attaches a CHANNEL carrying only its private producer-side state
// (gutters, eager forest, counters). SketchDriver<Alg> is a thin
// single-session facade over one pipeline; SessionManager (src/session/)
// runs N named sessions over one.
//
// There is exactly one ingestion path. Each channel's per-node gutters
// (src/driver/gutter.h) flush dense NodeBatches into one bounded queue
// shared by every worker; any worker pops any batch and applies it in
// place through IngestSink::ApplyNode while holding the batch's
// per-(session, endpoint) apply stripe. Linearity makes the apply order
// irrelevant, so ingestion needs mutual exclusion per node, not ownership
// of nodes: a hot node's batches go to whichever worker is free. Every
// work item is tagged with its channel, so workers dispatch per batch on
// the session (one virtual call per batch, not per update).
//
// The producer is an applier too, never a sleeper. A flush that finds the
// queue full is applied on the producer thread (caller-runs backpressure:
// the queue stays bounded and the producer does useful work instead of
// waiting for a slot), and Drain applies queued batches itself before it
// waits for the ones workers hold. So even a one-worker pool has two
// appliers, and a sink whose endpoints share state (EndpointSharded() ==
// false) gets one stripe for all its endpoints. Isolation
// invariant: distinct sessions apply to DISJOINT sketch objects, so
// co-hosted ingestion leaves every tenant's sketch byte-identical to that
// tenant running solo (tests/session_test.cc proves it per family).
//
// Threading contract: ALL producer-side calls — Push, Drain, Attach,
// Detach, CaptureEagerCut — come from one thread (or are externally
// serialized). Workers are internal. Per-session drain only waits for
// THAT session's queued work; other sessions keep flowing through the
// same workers during the barrier.
//
// The locking invariants below are machine-checked: every mutex is a
// capability-annotated gsketch::Mutex (src/core/sync.h), guarded fields
// carry GSKETCH_GUARDED_BY, and clang -Wthread-safety rejects any access
// that cannot prove it holds the lock. Lock order (see sync.h):
// Shard::mu is never held while a batch is applied; an apply stripe —
// held by a worker or by the producer — may nest a CowCellArena
// own-stripe under it (the only nesting pair in the codebase);
// drained_mu_ is a leaf taken with nothing else held.
#ifndef GRAPHSKETCH_SRC_DRIVER_INGEST_PIPELINE_H_
#define GRAPHSKETCH_SRC_DRIVER_INGEST_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/sync.h"

#include "src/driver/eager_forest.h"
#include "src/driver/gutter.h"
#include "src/graph/stream.h"

namespace gsketch {

/// THE worker-count resolution rule, shared by the pipeline, the CLI, and
/// the benches (each used to hand-roll it): 0 means "use the hardware",
/// i.e. hardware_concurrency with a fallback of 1 for runtimes that
/// report 0; any explicit count is taken as-is.
uint32_t ResolveWorkerCount(uint32_t requested);

/// The type-erased per-session apply surface. One sink wraps one sketch
/// (see AlgIngestSink in src/driver/sketch_driver.h for the generic
/// adapter); workers and the producer call it at batch granularity, so
/// the virtual hop is amortized over a whole gutter flush. The pipeline
/// serializes calls per (session, endpoint) with its apply stripes, so an
/// implementation need only tolerate concurrent calls for DISTINCT
/// endpoints — or none at all, if it says so through EndpointSharded().
class IngestSink {
 public:
  virtual ~IngestSink() = default;

  /// Applies one dense per-node batch (a gutter flush) in place.
  virtual void ApplyNode(const NodeBatch& batch) = 0;

  /// False when applying one endpoint's batch may touch state another
  /// endpoint's batch also touches (e.g. min-endpoint sketches); the
  /// pipeline then serializes every apply of the session on one stripe.
  /// Read once, at Attach.
  virtual bool EndpointSharded() const { return true; }
};

/// Tuning knobs for the shared pipeline (the worker-pool half of
/// DriverOptions; per-session knobs live in ChannelOptions).
struct PipelineOptions {
  uint32_t num_workers = 1;  ///< worker threads; 0 = hardware concurrency
  /// Queue bound per worker: the shared queue holds at most
  /// max_pending_batches × workers batches; a flush that finds it full is
  /// applied on the producer thread (backpressure).
  size_t max_pending_batches = 8;
};

/// Per-session knobs: the private producer-side state a channel carries.
struct ChannelOptions {
  /// Per-node gutter bytes; values below one 12-byte entry clamp to one.
  size_t gutter_bytes = kDefaultGutterBytes;
  /// Nonzero enables the eager exact-connectivity forest over this many
  /// nodes (src/driver/eager_forest.h), maintained inline at Push.
  NodeId eager_nodes = 0;
};

/// The shared worker pool + queue fabric (see file comment). Channels
/// attach and detach while the pool runs; sessions are identified by the
/// SessionId Attach returns.
class IngestPipeline {
 public:
  using SessionId = uint32_t;

  explicit IngestPipeline(const PipelineOptions& opt = PipelineOptions());

  /// Drains every live channel, then stops and joins the workers.
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Registers a session around `*sink` (which must outlive its channel —
  /// i.e. stay valid until Detach or pipeline destruction). Returns the
  /// id all per-session calls take. Producer-side.
  SessionId Attach(IngestSink* sink,
                   const ChannelOptions& copt = ChannelOptions());

  /// Drains the session and removes its channel; the id is retired, not
  /// reused. Producer-side.
  void Detach(SessionId sid) GSKETCH_EXCLUDES(drained_mu_);

  /// Buffers both endpoint halves of one stream token of session `sid` in
  /// the session's gutters (a full gutter flushes to the shared queue, or
  /// is applied right here when the queue is full). Producer-side.
  void Push(SessionId sid, NodeId u, NodeId v, int64_t delta)
      GSKETCH_EXCLUDES(drained_mu_);

  /// Flushes the session's gutters, applies queued batches on the calling
  /// thread until the queue is empty, then blocks until every update OF
  /// THIS SESSION has been applied; its sketch then reflects the whole
  /// stream pushed so far and may be read safely. Other sessions' items
  /// keep flowing through the workers meanwhile. Producer-side.
  void Drain(SessionId sid) GSKETCH_EXCLUDES(drained_mu_);

  /// Drains every live session. Producer-side.
  void DrainAll() GSKETCH_EXCLUDES(drained_mu_);

  /// Endpoint half-updates applied so far for the session (2 per stream
  /// token; gutter-buffered halves count once flushed and applied). Safe
  /// from any thread.
  uint64_t AppliedHalves(SessionId sid) const;

  /// Stream tokens pushed so far. Producer-side.
  uint64_t StreamUpdates(SessionId sid) const;

  /// Bytes currently buffered in the session's gutters (memory
  /// accounting). Producer-side.
  size_t GutterBufferedBytes(SessionId sid) const;

  /// The session's gutter layer (nullptr for an unknown session).
  const GutterSystem* gutters(SessionId sid) const;

  /// Captures the session's exact partition at the current push position
  /// (no drain needed; the forest is maintained at Push time). nullptr
  /// when off or invalidated. Producer-side.
  std::shared_ptr<const EagerCut> CaptureEagerCut(SessionId sid);

  uint32_t num_workers() const {
    return static_cast<uint32_t>(threads_.size());
  }

  /// Half-updates applied by worker `w` so far, across all sessions.
  uint64_t WorkerAppliedHalves(uint32_t w) const {
    // relaxed: monotone stats counter, readers tolerate staleness.
    return worker_applied_[w].load(std::memory_order_relaxed);
  }

  /// Half-updates the producer applied itself so far (full-queue flushes
  /// and Drain's help), across all sessions. With every
  /// WorkerAppliedHalves it sums to all applied halves.
  uint64_t ProducerAppliedHalves() const {
    // relaxed: monotone stats counter, readers tolerate staleness.
    return producer_applied_.load(std::memory_order_relaxed);
  }

 private:
  // All private per-session state. Work items hold a shared_ptr to their
  // channel so a worker's post-apply counter peek stays valid even if the
  // producer Detaches the (already drained) channel first.
  struct Channel {
    Channel(SessionId sid, IngestSink* s, GutterSystem g)
        : id(sid),
          sink(s),
          endpoint_sharded(s->EndpointSharded()),
          gutter(std::move(g)) {}

    const SessionId id;
    IngestSink* const sink;
    const bool endpoint_sharded;
    GutterSystem gutter;  // producer-side
    std::unique_ptr<EagerForest> eager;  // producer-side (eager mode)
    uint64_t stream_updates = 0;  // producer-side token count
    // Producer-writes-only (documented single-producer contract); atomic
    // because workers peek at it for the drain-signal fast path.
    std::atomic<uint64_t> enqueued_halves{0};
    std::atomic<uint64_t> applied_halves{0};
  };

  // One gutter flush, tagged with its channel.
  struct WorkItem {
    std::shared_ptr<Channel> ch;
    NodeBatch batch;
  };

  struct Shard {
    Mutex mu;
    CondVar not_empty;
    std::deque<WorkItem> queue GSKETCH_GUARDED_BY(mu);
    bool stopping GSKETCH_GUARDED_BY(mu) = false;
  };

  Channel* Get(SessionId sid) const;
  void Enqueue(SessionId sid, NodeBatch&& batch)
      GSKETCH_EXCLUDES(drained_mu_);
  void DrainChannel(Channel* ch) GSKETCH_EXCLUDES(drained_mu_);
  void WorkerLoop(uint32_t w) GSKETCH_EXCLUDES(drained_mu_);
  // Applies one item under its stripe, credits `applied_by` (a worker's
  // counter or the producer's) and the channel, and wakes a pending
  // drain. Shared by the workers and the producer.
  void ApplyItem(const WorkItem& item, std::atomic<uint64_t>* applied_by)
      GSKETCH_EXCLUDES(drained_mu_);

  // Stripe count for the per-(session, endpoint) apply locks: comfortably
  // above any sane worker count so two hot nodes rarely share a stripe,
  // small enough that the mutex array stays cache-resident.
  static constexpr size_t kLockStripes = 64;

  Mutex& Stripe(const Channel& ch, NodeId endpoint) {
    // Distinct sessions hosting the same hot endpoint spread over
    // different stripes (golden-ratio session scatter); a collision only
    // costs contention, never correctness. A non-sharded sink keys every
    // endpoint to 0, so its applies never overlap.
    const NodeId key = ch.endpoint_sharded ? endpoint : 0;
    return stripes_[(key + ch.id * 0x9e3779b9u) % kLockStripes];
  }

  size_t queue_capacity_ = 0;  // max_pending_batches × workers
  Shard shard_;  // the one queue every worker pops from
  // A stripe is held across the sink apply call, so the wrapped sketch's
  // COW own-stripe may be acquired UNDER it (the one sanctioned nesting
  // pair; see src/core/sync.h). Dynamically striped, hence documented
  // rather than GSKETCH_ACQUIRED_BEFORE-annotated — the attribute cannot
  // name a runtime-chosen array element.
  Mutex stripes_[kLockStripes];
  // Indexed by SessionId; detached slots stay null (ids are not reused).
  // Producer-side mutation only; workers never touch this vector (their
  // channel arrives inside the work item).
  std::vector<std::shared_ptr<Channel>> channels_;
  std::vector<std::thread> threads_;
  std::unique_ptr<std::atomic<uint64_t>[]> worker_applied_;  // per worker
  std::atomic<uint64_t> producer_applied_{0};
  std::atomic<bool> drain_pending_{false};
  // Pure wakeup channel for the drain barrier: the predicate reads the
  // channel ATOMICS, so the mutex guards no fields — it only serializes
  // the Dekker-style wait/notify pairing (see DrainChannel/ApplyItem).
  // Leaf lock: taken with nothing else held, on both sides.
  Mutex drained_mu_;
  CondVar drained_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_DRIVER_INGEST_PIPELINE_H_
