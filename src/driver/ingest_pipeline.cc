#include "src/driver/ingest_pipeline.h"

#include <utility>

namespace gsketch {

uint32_t ResolveWorkerCount(uint32_t requested) {
  if (requested != 0) return requested;
  uint32_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

IngestPipeline::IngestPipeline(const PipelineOptions& opt) {
  const uint32_t workers = ResolveWorkerCount(opt.num_workers);
  const size_t per_worker =
      opt.max_pending_batches < 1 ? 1 : opt.max_pending_batches;
  queue_capacity_ = per_worker * workers;
  worker_applied_ = std::make_unique<std::atomic<uint64_t>[]>(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    // relaxed: workers have not started yet, the thread construction
    // below is the synchronization point for these initial values.
    worker_applied_[w].store(0, std::memory_order_relaxed);
  }
  for (uint32_t w = 0; w < workers; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

IngestPipeline::~IngestPipeline() {
  DrainAll();
  {
    MutexLock lock(shard_.mu);
    shard_.stopping = true;
    shard_.not_empty.NotifyAll();
  }
  for (auto& t : threads_) t.join();
}

IngestPipeline::SessionId IngestPipeline::Attach(
    IngestSink* sink, const ChannelOptions& copt) {
  const auto sid = static_cast<SessionId>(channels_.size());
  GutterSystem gutter(GutterOptions{copt.gutter_bytes},
                      [this, sid](NodeBatch&& batch) {
                        Enqueue(sid, std::move(batch));
                      });
  auto ch = std::make_shared<Channel>(sid, sink, std::move(gutter));
  if (copt.eager_nodes > 0) {
    ch->eager = std::make_unique<EagerForest>(copt.eager_nodes);
  }
  channels_.push_back(std::move(ch));
  return sid;
}

void IngestPipeline::Detach(SessionId sid) {
  Channel* ch = Get(sid);
  if (ch == nullptr) return;
  DrainChannel(ch);
  channels_[sid].reset();  // in-flight WorkItems keep the counters alive
}

IngestPipeline::Channel* IngestPipeline::Get(SessionId sid) const {
  return sid < channels_.size() ? channels_[sid].get() : nullptr;
}

void IngestPipeline::Push(SessionId sid, NodeId u, NodeId v,
                          int64_t delta) {
  Channel* ch = Get(sid);
  ++ch->stream_updates;
  if (ch->eager != nullptr) ch->eager->Apply(u, v, delta);
  ch->gutter.Push(u, v, delta);
}

void IngestPipeline::Drain(SessionId sid) {
  Channel* ch = Get(sid);
  if (ch != nullptr) DrainChannel(ch);
}

void IngestPipeline::DrainAll() {
  for (const auto& ch : channels_) {
    if (ch != nullptr) DrainChannel(ch.get());
  }
}

void IngestPipeline::DrainChannel(Channel* ch) {
  ch->gutter.FlushAll();
  // Help instead of sleeping: apply what is still queued on this thread.
  // Other sessions' batches are applied too — the queue is shared and
  // every apply holds its stripe — which is no worse than waiting behind
  // them. Only the batches workers already hold remain to wait for.
  for (;;) {
    WorkItem item;
    {
      MutexLock lock(shard_.mu);
      if (shard_.queue.empty()) break;
      item = std::move(shard_.queue.front());
      shard_.queue.pop_front();
    }
    ApplyItem(item, &producer_applied_);
  }
  // `enqueued_halves` is written only by this (producer) thread, so the
  // predicate's load always sees the final enqueue total; the atomic
  // exists for the workers' cross-thread peek in ApplyItem.
  const uint64_t target =
      ch->enqueued_halves.load(std::memory_order_relaxed);
  MutexLock lock(drained_mu_);
  // Announce the drain BEFORE the first predicate check. Workers check
  // drain_pending_ after bumping applied_halves; both sides use seq_cst,
  // so a worker that read drain_pending_ == false made its bump visible
  // to a predicate check that runs after this store (Dekker-style: no
  // lost wakeup, see ApplyItem).
  drain_pending_.store(true, std::memory_order_seq_cst);
  // seq_cst: the Dekker pairing above — this load must be in the single
  // total order with the workers' fetch_add / drain_pending_ load.
  while (ch->applied_halves.load(std::memory_order_seq_cst) != target) {
    drained_.Wait(drained_mu_);
  }
  drain_pending_.store(false, std::memory_order_seq_cst);
}

uint64_t IngestPipeline::AppliedHalves(SessionId sid) const {
  const Channel* ch = Get(sid);
  // relaxed: monotone progress peek for pollers; exactness comes from
  // Drain's seq_cst handshake, not from this read.
  return ch == nullptr
             ? 0
             : ch->applied_halves.load(std::memory_order_relaxed);
}

uint64_t IngestPipeline::StreamUpdates(SessionId sid) const {
  const Channel* ch = Get(sid);
  return ch == nullptr ? 0 : ch->stream_updates;
}

size_t IngestPipeline::GutterBufferedBytes(SessionId sid) const {
  const Channel* ch = Get(sid);
  return ch == nullptr
             ? 0
             : ch->gutter.buffered_entries() * kGutterEntryBytes;
}

const GutterSystem* IngestPipeline::gutters(SessionId sid) const {
  const Channel* ch = Get(sid);
  return ch != nullptr ? &ch->gutter : nullptr;
}

std::shared_ptr<const EagerCut> IngestPipeline::CaptureEagerCut(
    SessionId sid) {
  Channel* ch = Get(sid);
  return ch != nullptr && ch->eager != nullptr ? ch->eager->Capture()
                                               : nullptr;
}

// The gutter sink: hands one flush to the shared queue, or applies it
// right here when the queue is full (caller-runs backpressure: the queue
// stays bounded, and the producer works instead of waiting for a slot).
void IngestPipeline::Enqueue(SessionId sid, NodeBatch&& batch) {
  WorkItem item{channels_[sid], std::move(batch)};
  // relaxed: producer-only writer (single-producer contract); workers
  // re-read it seq_cst in the drain pairing, producers see it plain.
  item.ch->enqueued_halves.fetch_add(item.batch.halves,
                                     std::memory_order_relaxed);
  {
    MutexLock lock(shard_.mu);
    if (shard_.queue.size() < queue_capacity_) {
      shard_.queue.push_back(std::move(item));
      shard_.not_empty.NotifyOne();
      return;
    }
  }
  ApplyItem(item, &producer_applied_);
}

void IngestPipeline::WorkerLoop(uint32_t w) {
  for (;;) {
    WorkItem item;
    {
      MutexLock lock(shard_.mu);
      while (!shard_.stopping && shard_.queue.empty()) {
        shard_.not_empty.Wait(shard_.mu);
      }
      if (shard_.queue.empty()) return;  // stopping and fully drained
      item = std::move(shard_.queue.front());
      shard_.queue.pop_front();
    }
    ApplyItem(item, &worker_applied_[w]);
  }
}

void IngestPipeline::ApplyItem(const WorkItem& item,
                               std::atomic<uint64_t>* applied_by) {
  Channel& ch = *item.ch;
  {
    // Held across the sink call: the sketch's COW arena may take its
    // own-stripe under this stripe (the sanctioned nesting, sync.h).
    MutexLock lock(Stripe(ch, item.batch.endpoint));
    ch.sink->ApplyNode(item.batch);
  }
  const uint64_t applied = item.batch.halves;
  // relaxed: single-writer stats counter (one worker, or the producer),
  // staleness-tolerant readers.
  applied_by->fetch_add(applied, std::memory_order_relaxed);
  const uint64_t now_applied =
      ch.applied_halves.fetch_add(applied, std::memory_order_seq_cst) +
      applied;
  // Only touch the drain mutex when someone can be waiting: a drain is
  // pending, or this bump reached the channel's enqueue total (the
  // worker-side peek is advisory; the producer may be mid-dispatch).
  // Taking drained_mu_ after EVERY item would serialize all appliers on
  // one mutex that only matters at drain time. No lost wakeup: Drain
  // sets drain_pending_ (seq_cst) before its first predicate check, so
  // if the load below reads false, this fetch_add is ordered before
  // that check and the predicate already sees the final count.
  if (drain_pending_.load(std::memory_order_seq_cst) ||
      now_applied == ch.enqueued_halves.load(std::memory_order_seq_cst)) {
    MutexLock lock(drained_mu_);
    drained_.NotifyAll();
  }
}

}  // namespace gsketch
