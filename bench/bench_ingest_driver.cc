// E13: ingestion throughput of the batched parallel driver.
//
// Generates a multigraph update stream (inserts + churn deletions), writes
// it to a GSKB binary file, then ingests it into a ConnectivitySketch
// through SketchDriver at increasing worker counts, reporting updates/sec
// and speedup over one worker. The driver runs its one ingestion path:
// 4 KiB per-node gutters flush dense batches into a shared queue, and any
// worker applies any node's batch under that node's apply stripe, so
// scaling is limited only by cores and the single producer thread.
//
// Usage: bench_ingest_driver [n] [num_updates] [max_threads]
//   defaults: n=1024, num_updates=1000000, max_threads=8
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/connectivity_suite.h"
#include "src/driver/binary_stream.h"
#include "src/driver/sketch_driver.h"
#include "src/graph/stream.h"
#include "src/workload/stream_generator.h"

namespace gsketch {
namespace {

int Run(NodeId n, size_t updates, uint32_t max_threads) {
  bench::Banner("E13", "parallel stream ingestion",
                "shared-queue workers scale ingestion with cores; "
                "linearity keeps answers identical at every thread count");
  std::printf("hardware threads: %u\n", ResolveWorkerCount(0));

  // The "uniform" workload profile is this bench's historical generator
  // (seed-for-seed identical), so committed baselines stay comparable.
  DynamicGraphStream stream =
      FindWorkloadProfile("uniform")->generate(n, updates, /*seed=*/12345);
  std::string path = "/tmp/bench_ingest_driver.gskb";
  if (!WriteBinaryStream(path, stream)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("stream: n=%u, %zu updates, %.1f MiB binary\n\n", n,
              stream.Size(),
              static_cast<double>(kBinaryStreamHeaderBytes +
                                  kBinaryStreamRecordBytes * stream.Size()) /
                  (1024.0 * 1024.0));

  bench::Row("%-8s %14s %14s %10s %14s %12s", "threads", "seconds",
             "updates/s", "speedup", "bytes/node", "components");
  bench::BenchJson json("E13", "parallel stream ingestion");
  json.Metric("n", static_cast<double>(n));
  json.Metric("stream_updates", static_cast<double>(stream.Size()));
  double base_rate = 0.0;
  double best_rate = 0.0;
  for (uint32_t threads = 1; threads <= max_threads; threads *= 2) {
    ConnectivitySketch sketch(n, ForestOptions{}, /*seed=*/1);
    // Sketch cells dominate memory; with arena banks this is also (almost
    // exactly) the allocated footprint, not just a lower bound.
    double bytes_per_node =
        static_cast<double>(sketch.CellCount() * sizeof(OneSparseCell)) / n;
    DriverOptions opt;
    opt.num_workers = threads;

    BinaryStreamReader reader(path);
    if (!reader.ok()) {
      std::fprintf(stderr, "error: %s\n", reader.error().c_str());
      return 1;
    }
    uint32_t resolved = 0;  // driver-resolved worker count, not the flag
    bench::Timer timer;
    {
      SketchDriver<ConnectivitySketch> driver(&sketch, opt);
      resolved = driver.num_workers();
      if (!driver.ProcessFile(&reader)) {
        std::fprintf(stderr, "error: ingestion failed: %s\n",
                     reader.error().c_str());
        return 1;
      }
    }
    double seconds = timer.Seconds();
    double rate = static_cast<double>(stream.Size()) / seconds;
    if (threads == 1) {
      base_rate = rate;
      json.Metric("updates_per_sec_1thread", rate);
      json.Metric("bytes_per_node", bytes_per_node);
    }
    if (rate > best_rate) best_rate = rate;
    bench::Row("%-8u %14.3f %14.0f %9.2fx %14.0f %12zu", resolved, seconds,
               rate, rate / base_rate, bytes_per_node,
               sketch.NumComponents());
  }
  json.Metric("updates_per_sec_best", best_rate);
  json.Metric("speedup_best", base_rate > 0 ? best_rate / base_rate : 0.0);
  json.Write();
  std::remove(path.c_str());
  return 0;
}

}  // namespace
}  // namespace gsketch

int main(int argc, char** argv) {
  // Strict bounded parses: negative or garbage arguments must not wrap
  // into huge unsigned values.
  auto parse = [](const char* s, long long lo, long long hi,
                  long long* out) {
    char* end = nullptr;
    long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || v < lo || v > hi) return false;
    *out = v;
    return true;
  };
  long long n = 1024, updates = 1000000, max_threads = 8;
  bool ok = true;
  if (argc > 1) ok = ok && parse(argv[1], 2, 1 << 24, &n);
  if (argc > 2) ok = ok && parse(argv[2], 1, 1LL << 40, &updates);
  if (argc > 3) ok = ok && parse(argv[3], 1, 256, &max_threads);
  if (!ok) {
    std::fprintf(stderr,
                 "usage: %s [n in 2..2^24] [num_updates>0] "
                 "[max_threads in 1..256]\n",
                 argv[0]);
    return 2;
  }
  return gsketch::Run(static_cast<gsketch::NodeId>(n),
                      static_cast<size_t>(updates),
                      static_cast<uint32_t>(max_threads));
}
