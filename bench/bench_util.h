// Shared helpers for the experiment harness binaries: aligned table
// printing, wall-clock timing and BENCH_<id>.json output. The benches are
// E1 bench_l0_sampler, E11 bench_distributed, E13 bench_ingest_driver,
// E14 bench_gutter and E15 bench_serve.
#ifndef GRAPHSKETCH_BENCH_BENCH_UTIL_H_
#define GRAPHSKETCH_BENCH_BENCH_UTIL_H_

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/sketch/cell_kernels.h"

namespace gsketch::bench {

/// Prints the experiment banner.
inline void Banner(const char* id, const char* title, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s: %s\n", id, title);
  std::printf("paper claim: %s\n", claim);
  std::printf("================================================================\n");
}

/// printf-style row helper (just forwards; exists for call-site symmetry).
inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

/// Wall-clock stopwatch in seconds.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// CPUs this process may run on (what `nproc` prints).
inline int NProc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Peak resident set of this process so far, in MB (ru_maxrss is KB).
inline double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// SIMD lanes of the selected cell-kernel backend: 8 avx512, 4 avx2,
/// 1 scalar (the flat BENCH format holds numbers only).
inline int KernelLanes() {
  const char* backend = CellKernelBackend();
  if (std::strcmp(backend, "avx512") == 0) return 8;
  if (std::strcmp(backend, "avx2") == 0) return 4;
  return 1;
}

/// Machine-readable result sink: collects flat numeric metrics and writes
/// them as BENCH_<id>.json in the working directory, so runs are diffable
/// across commits. Space metrics report bytes-per-node alongside
/// updates/sec — the two axes every arena/locality change moves. Every
/// file ends with the host that produced it: `nproc`, `peak_rss_mb` and
/// `kernel_lanes`. bench_compare gates only the keys a baseline holds, so
/// these record the host without gating it.
class BenchJson {
 public:
  BenchJson(const char* id, const char* title) : id_(id), title_(title) {}

  void Metric(const char* key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Writes BENCH_<id>.json; returns success (best-effort, benches still
  /// print their tables either way).
  bool Write() const {
    std::vector<std::pair<std::string, double>> metrics = metrics_;
    metrics.emplace_back("nproc", NProc());
    metrics.emplace_back("peak_rss_mb", PeakRssMb());
    metrics.emplace_back("kernel_lanes", KernelLanes());
    std::string path = "BENCH_" + id_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"title\": \"%s\",\n",
                 id_.c_str(), title_.c_str());
    std::fprintf(f, "  \"metrics\": {\n");
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::fprintf(f, "    \"%s\": %.6g%s\n", metrics[i].first.c_str(),
                   metrics[i].second, i + 1 < metrics.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    bool ok = std::fclose(f) == 0;
    if (ok) std::fprintf(stderr, "wrote %s\n", path.c_str());
    return ok;
  }

 private:
  std::string id_;
  std::string title_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace gsketch::bench

#endif  // GRAPHSKETCH_BENCH_BENCH_UTIL_H_
