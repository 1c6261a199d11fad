// In-memory spans recorded by the benchmark's own code around each call
// into a library layer (the library itself is not instrumented).
//
// A span has a name, an optional id shared by every span of one query
// ("<session>@<pos>"), a start and end on the steady clock, the span that
// caused it, and the repetition and thread it ran on. Spans stay in
// memory while the run is measured and are written out when it ends.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/sync.h"

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

struct Span {
  const char* name = "";  // static string
  std::string id;
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 while open
  int parent = -1;      // index of the causing span; -1 for a root
  int rep = 0;
  int thread = 0;  // 0 = producer, 1 = query thread
};

/// Thread-safe span store. Indices returned by Begin/Add stay valid.
class Tracer {
 public:
  /// Opens a span starting now; returns its index.
  int Begin(const char* name, int parent, int rep, std::string id = {},
            int thread = 0);

  /// Closes span `index` now (or at `end_ns` when given).
  void End(int index, int64_t end_ns = -1);

  /// Records a finished span.
  int Add(const char* name, int64_t start_ns, int64_t end_ns, int parent,
          int rep, std::string id = {}, int thread = 0);

  /// A copy of every span recorded so far.
  std::vector<Span> Snapshot() const;

  /// Writes one JSON object per span, in recording order.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable gsketch::Mutex mu_;
  std::vector<Span> spans_ GSKETCH_GUARDED_BY(mu_);
};

/// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
double Quantile(std::vector<double> v, double q);

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Self time of every span in ns: its duration minus the part of it that
/// its children's intervals cover. Open spans count as empty.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
