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

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/sketch_registry.h"
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
// applies everything.
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
    uint64_t total = 0;
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
  opt.max_pending_batches = 2;  // tight queue: producer blocks often
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
