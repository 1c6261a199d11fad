// Tests for the one ingestion path (src/driver/ingest_pipeline.h): gutter
// flushes on one shared queue, applied in place by any worker under the
// node's apply stripe.
//
// The load-bearing property is BYTE parity: the shared queue hands a
// node's batches to arbitrary workers in arbitrary order, and because the
// sketches are linear measurements none of that may change a single
// sketch byte. One-entry gutters put every half-update in its own batch,
// so many batches of one node are in flight at once and the stripes do
// real work; larger gutters exercise coalescing and dense batches.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/sketch_registry.h"
#include "src/core/sync.h"
#include "src/driver/sketch_driver.h"
#include "src/graph/generators.h"
#include "src/graph/stream.h"
#include "src/hash/random.h"

namespace gsketch {
namespace {

constexpr NodeId kN = 16;
constexpr uint64_t kSeed = 9;

// A stream with deletions, shuffled into adversarial order.
DynamicGraphStream TestStream(uint64_t seed) {
  Rng rng(seed);
  Graph g = ErdosRenyi(kN, 0.35, seed);
  DynamicGraphStream s = DynamicGraphStream::FromGraph(g);
  return s.WithChurn(/*extra=*/s.Size() / 3 + 4, &rng).Shuffled(&rng);
}

std::string Bytes(const LinearSketch& sk) {
  std::string out;
  sk.AppendTo(&out);
  return out;
}

// --------------------------------------------------- parity per family --

// Shared-queue ingestion must be byte-identical to plain sequential
// ingestion for every registered family, at one-entry and small gutters,
// and at multiple worker counts for the endpoint-sharded families.
TEST(SharedQueueParity, EveryRegisteredFamilyThreadsAndGutterSizes) {
  DynamicGraphStream s = TestStream(5);
  for (const AlgInfo& info : Registry()) {
    SCOPED_TRACE(info.name);
    auto sequential = info.make(kN, AlgOptions{}, kSeed);
    s.Replay([&](NodeId u, NodeId v, int64_t d) {
      sequential->Update(u, v, d);
    });
    const std::string expected = Bytes(*sequential);

    for (size_t gutter_bytes : {size_t{12}, size_t{256}}) {
      for (uint32_t threads : {1u, 3u}) {
        if (threads > 1 && !info.endpoint_sharded) continue;
        auto sk = info.make(kN, AlgOptions{}, kSeed);
        DriverOptions opt;
        opt.num_workers = threads;
        opt.gutter_bytes = gutter_bytes;
        SketchDriver<LinearSketch> driver(sk.get(), opt);
        driver.ProcessStream(s);
        EXPECT_EQ(driver.TotalUpdates(), 2 * s.Size());
        EXPECT_EQ(Bytes(*sk), expected)
            << "gutter=" << gutter_bytes << "B, threads=" << threads;
      }
    }
  }
}

// ------------------------------------------------ hot-spot distribution --

// Every token joins hub 0 to a node ≡ 0 (mod workers), so routing halves
// by endpoint % workers would pin the whole stream to worker 0. The
// shared queue must spread it: every worker applies work, and no worker
// applies everything. The producer applies the flushes that find the
// queue full, so workers and producer together apply every half.
TEST(SharedQueue, HotSpotStreamReachesEveryWorker) {
  constexpr NodeId n = 64;
  constexpr uint32_t kWorkers = 3;
  DynamicGraphStream s(n);
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const NodeId v = kWorkers * (1 + rng.Below((n - 1) / kWorkers));
    s.Push(0, v, +1);
  }

  auto sequential = FindAlg("connectivity")->make(n, AlgOptions{}, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) {
    sequential->Update(u, v, d);
  });
  const std::string expected = Bytes(*sequential);

  auto sk = FindAlg("connectivity")->make(n, AlgOptions{}, kSeed);
  DriverOptions opt;
  opt.num_workers = kWorkers;
  // Small gutters -> many NodeBatches, so the shared queue has real work
  // to distribute.
  opt.gutter_bytes = 256;
  uint64_t per_worker[kWorkers];
  {
    SketchDriver<LinearSketch> driver(sk.get(), opt);
    driver.ProcessStream(s);
    ASSERT_EQ(driver.num_workers(), kWorkers);
    uint64_t total = driver.ProducerAppliedHalves();
    for (uint32_t w = 0; w < kWorkers; ++w) {
      per_worker[w] = driver.WorkerAppliedHalves(w);
      total += per_worker[w];
    }
    EXPECT_EQ(total, 2 * s.Size());
  }
  EXPECT_EQ(Bytes(*sk), expected);
  for (uint32_t w = 0; w < kWorkers; ++w) {
    EXPECT_GT(per_worker[w], 0u) << "worker " << w << " never applied work "
                                 << "(hot spot pinned to one worker?)";
    EXPECT_LT(per_worker[w], 2 * s.Size())
        << "worker " << w << " applied the whole stream alone";
  }
}

// ----------------------------------------------- drain interleavings --

// Repeated mid-stream drains while gutters are flushing into a busy
// shared queue: the exact interleaving where Drain's condvar predicate
// races worker-side applied_halves bumps and the workers' advisory peek
// at enqueued_halves. Run under TSan in CI; the assertions also prove
// every drain is a consistent cut (all pushed halves applied).
TEST(SharedQueueDrain, DrainUnderGutterFlushInterleaving) {
  constexpr NodeId n = 32;
  DynamicGraphStream s(n);
  Rng rng(23);
  for (int i = 0; i < 6000; ++i) {
    NodeId u = rng.Below(n), v = rng.Below(n);
    if (u == v) v = (v + 1) % n;
    s.Push(u, v, rng.Below(4) == 0 ? -1 : +1);
  }

  auto sk = FindAlg("connectivity")->make(n, AlgOptions{}, kSeed);
  DriverOptions opt;
  opt.num_workers = 3;
  opt.gutter_bytes = 256;       // tiny gutters: flush storms mid-push
  opt.max_pending_batches = 2;  // tight queue: producer applies often
  SketchDriver<LinearSketch> driver(sk.get(), opt);
  uint64_t pushed = 0;
  for (const auto& e : s.Updates()) {
    driver.Push(e.u, e.v, e.delta);
    if (++pushed % 512 == 0) {
      driver.Drain();
      EXPECT_EQ(driver.TotalUpdates(), 2 * pushed);
    }
  }
  driver.Drain();
  EXPECT_EQ(driver.TotalUpdates(), 2 * s.Size());
}

// ------------------------------------------------- caller-runs --

// Holds every apply made off the constructing thread — the pool's
// worker — until Open() or a deadline, and records which came first. The
// deadline turns a producer that waits for the worker into a failure
// instead of a hang.
class LatchedSink : public IngestSink {
 public:
  explicit LatchedSink(LinearSketch* sk)
      : inner_(sk), producer_(std::this_thread::get_id()) {}

  void ApplyNode(const NodeBatch& batch) override {
    if (std::this_thread::get_id() != producer_) Hold();
    inner_.ApplyNode(batch);
  }

  // True once the worker is parked in Hold (false if `deadline` passes).
  bool WaitHeld(std::chrono::steady_clock::time_point deadline) {
    MutexLock lock(mu_);
    while (!held_ && cv_.WaitUntil(mu_, deadline)) {
    }
    return held_;
  }

  void Open() {
    MutexLock lock(mu_);
    open_ = true;
    cv_.NotifyAll();
  }

  bool timed_out() {
    MutexLock lock(mu_);
    return timed_out_;
  }

 private:
  // An expired latch stays open, so one deadline bounds the whole run.
  void Hold() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    MutexLock lock(mu_);
    held_ = true;
    cv_.NotifyAll();
    while (!open_ && !timed_out_) {
      if (!cv_.WaitUntil(mu_, deadline)) timed_out_ = true;
    }
  }

  AlgIngestSink<LinearSketch> inner_;
  const std::thread::id producer_;
  Mutex mu_;
  CondVar cv_;
  bool held_ GSKETCH_GUARDED_BY(mu_) = false;
  bool open_ GSKETCH_GUARDED_BY(mu_) = false;
  bool timed_out_ GSKETCH_GUARDED_BY(mu_) = false;
};

// One worker held on its first batch and a one-batch queue: every later
// flush finds the queue full. The producer must apply those itself and
// return from its pushes while the worker is still held; a producer that
// waited for a queue slot would stall until the latch's deadline.
TEST(SharedQueueCallerRuns, FullQueueFlushesApplyOnTheProducer) {
  // Node 0 appears only in the first token, so the worker's held batch
  // (endpoint 0) owns a stripe no later batch needs (one-entry gutters:
  // every half is its own batch; n < 64 stripes, one session).
  DynamicGraphStream s(kN);
  s.Push(0, 1, +1);
  for (NodeId i = 0; i < 90; ++i) {
    const NodeId u = 1 + i % (kN - 1);
    const NodeId v = 1 + (i * 7 + 3) % (kN - 1);
    if (u != v) s.Push(u, v, i % 5 == 4 ? -1 : +1);
  }
  auto sequential = FindAlg("connectivity")->make(kN, AlgOptions{}, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) {
    sequential->Update(u, v, d);
  });

  auto sk = FindAlg("connectivity")->make(kN, AlgOptions{}, kSeed);
  LatchedSink sink(sk.get());
  PipelineOptions popt;
  popt.num_workers = 1;
  popt.max_pending_batches = 1;
  IngestPipeline pipeline(popt);
  ChannelOptions copt;
  copt.gutter_bytes = 12;
  const IngestPipeline::SessionId sid = pipeline.Attach(&sink, copt);
  for (const auto& e : s.Updates()) pipeline.Push(sid, e.u, e.v, e.delta);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  ASSERT_TRUE(sink.WaitHeld(deadline)) << "the worker never took a batch";
  EXPECT_FALSE(sink.timed_out())
      << "the pushes returned only after the worker's latch expired";
  EXPECT_GT(pipeline.ProducerAppliedHalves(), 0u);
  EXPECT_EQ(pipeline.WorkerAppliedHalves(0), 0u);  // still held
  sink.Open();
  pipeline.Drain(sid);
  EXPECT_EQ(pipeline.AppliedHalves(sid), 2 * s.Size());
  EXPECT_EQ(pipeline.ProducerAppliedHalves() +
                pipeline.WorkerAppliedHalves(0),
            2 * s.Size());
  EXPECT_EQ(Bytes(*sk), Bytes(*sequential));
}

// ------------------------------------------------- resolved workers --

// DriverOptions::num_workers == 0 resolves through ResolveWorkerCount —
// THE shared resolution rule (pipeline, CLI, benches) — and the driver
// must REPORT the resolved count (benches and the CLI print it).
TEST(SharedQueueDriver, ZeroWorkersReportResolvedCount) {
  auto sk = FindAlg("connectivity")->make(kN, AlgOptions{}, kSeed);
  DriverOptions opt;
  opt.num_workers = 0;
  SketchDriver<LinearSketch> driver(sk.get(), opt);
  EXPECT_EQ(driver.num_workers(), ResolveWorkerCount(0));
}

}  // namespace
}  // namespace gsketch
