// E14: gutter-buffered ingestion throughput.
//
// Generates a multigraph update stream (inserts + churn deletions) and
// ingests it into a ConnectivitySketch through SketchDriver on ONE worker
// at two gutter sizes — tiny (64 B/node ≈ 5 updates) and the default
// (4 KiB/node ≈ 341 updates) — so the measured delta is purely the gutter
// layer: per-node coalescing plus the ApplyBatch fast path that hashes an
// endpoint's sampler slices once per flush instead of once per update,
// amortized over more updates the larger the gutter. A skewed
// (hot-spot) stream shows the coalescing win separately from the
// batching win. Linearity keeps every answer identical across settings
// (ctest -L parity proves byte equality).
//
// Usage: bench_gutter [n] [num_updates]
//   defaults: n=1024, num_updates=1000000
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/connectivity_suite.h"
#include "src/driver/sketch_driver.h"
#include "src/graph/stream.h"
#include "src/workload/stream_generator.h"

namespace gsketch {
namespace {

struct Sample {
  double seconds = 0;
  double rate = 0;
  uint64_t flushes = 0;
  uint64_t coalesced = 0;
  size_t components = 0;
};

Sample RunOnce(const DynamicGraphStream& stream, NodeId n,
               size_t gutter_bytes) {
  ConnectivitySketch sketch(n, ForestOptions{}, /*seed=*/1);
  DriverOptions opt;
  opt.num_workers = 1;
  opt.gutter_bytes = gutter_bytes;
  Sample out;
  bench::Timer timer;
  {
    SketchDriver<ConnectivitySketch> driver(&sketch, opt);
    driver.ProcessStream(stream);
    out.flushes = driver.gutters()->flushes();
    out.coalesced = driver.gutters()->coalesced_halves();
  }
  out.seconds = timer.Seconds();
  out.rate = static_cast<double>(stream.Size()) / out.seconds;
  out.components = sketch.NumComponents();
  return out;
}

int Run(NodeId n, size_t updates) {
  bench::Banner("E14", "gutter-buffered ingestion",
                "per-node gutters coalesce updates and flush dense "
                "batches through the ApplyBatch fast path; linearity "
                "keeps answers identical at every setting");

  const size_t kSweep[] = {64, 4096};
  bench::BenchJson json("E14", "gutter-buffered ingestion");
  json.Metric("n", static_cast<double>(n));
  json.Metric("stream_updates", static_cast<double>(updates));

  // The workload library's "uniform" and "hotspot" profiles are this
  // bench's historical generators (seed-for-seed identical), so committed
  // baselines stay comparable.
  struct Workload {
    const char* name;
    DynamicGraphStream stream;
  } workloads[] = {
      {"uniform",
       FindWorkloadProfile("uniform")->generate(n, updates, /*seed=*/12345)},
      {"hotspot",
       FindWorkloadProfile("hotspot")->generate(n, updates, /*seed=*/54321)},
  };

  for (const auto& w : workloads) {
    std::printf("%s stream: n=%u, %zu updates\n", w.name, n,
                w.stream.Size());
    bench::Row("%-12s %14s %14s %10s %12s %12s %12s", "gutter", "seconds",
               "updates/s", "speedup", "flushes", "coalesced",
               "components");
    double base_rate = 0;
    for (size_t gutter : kSweep) {
      Sample s = RunOnce(w.stream, n, gutter);
      if (base_rate == 0) base_rate = s.rate;
      std::string label = std::to_string(gutter) + "B";
      bench::Row("%-12s %14.3f %14.0f %9.2fx %12llu %12llu %12zu",
                 label.c_str(), s.seconds, s.rate, s.rate / base_rate,
                 static_cast<unsigned long long>(s.flushes),
                 static_cast<unsigned long long>(s.coalesced),
                 s.components);
      std::string key = std::string("updates_per_sec_") + w.name + "_" +
                        std::to_string(gutter) + "B";
      json.Metric(key.c_str(), s.rate);
    }
    std::printf("\n");
  }
  json.Write();
  return 0;
}

}  // namespace
}  // namespace gsketch

int main(int argc, char** argv) {
  auto parse = [](const char* s, long long lo, long long hi,
                  long long* out) {
    char* end = nullptr;
    long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || v < lo || v > hi) return false;
    *out = v;
    return true;
  };
  long long n = 1024, updates = 1000000;
  bool ok = true;
  if (argc > 1) ok = ok && parse(argv[1], 2, 1 << 24, &n);
  if (argc > 2) ok = ok && parse(argv[2], 1, 1LL << 40, &updates);
  if (!ok) {
    std::fprintf(stderr, "usage: %s [n in 2..2^24] [num_updates>0]\n",
                 argv[0]);
    return 2;
  }
  return gsketch::Run(static_cast<gsketch::NodeId>(n),
                      static_cast<size_t>(updates));
}
