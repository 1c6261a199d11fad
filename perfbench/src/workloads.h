// The three benchmark workloads, their inputs, one measured repetition of
// each, and the single-thread layer probes of the traced run.
//
// Every workload runs `connectivity` at n = 1024 with 4 KiB gutters and
// endpoint sharding; only the worker count, the gutter size and (on
// serve) the eager forest are set, every other knob keeps its default.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/answers.h"
#include "src/streams.h"
#include "src/trace.h"

namespace perfbench {

enum class Kind { kIngestUniform, kIngestHotspot, kServeSliding };

struct WorkloadSpec {
  const char* name;
  Kind kind;
};

/// All workloads, in presentation order.
const std::vector<WorkloadSpec>& Workloads();

/// Lookup by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Pipeline worker threads of a workload (3 on ingest, 2 on serve).
uint32_t WorkersOf(Kind kind);

/// Query threads a workload starts besides the producer and the workers
/// (the serve workload's QueryEngine).
uint32_t QueryThreadsOf(Kind kind);

/// Stream sizes; the benchmark uses the defaults, the self-test shrinks
/// them. On serve, 1 M tokens per session at a 100 k cadence give every
/// repetition 20 answers (ten per session, the last at the stream's end).
struct Shape {
  uint32_t nodes = 1024;
  size_t tokens = 1000000;      ///< per session
  size_t query_every = 100000;  ///< serve: per-session query cadence
};

/// Everything generated before any clock starts.
struct Inputs {
  Kind kind = Kind::kIngestUniform;
  uint32_t nodes = 0;
  std::vector<std::vector<Token>> streams;  ///< one per session
  std::vector<uint8_t> order;  ///< session of each pushed token
  std::vector<std::vector<uint64_t>> positions;  ///< query positions
  std::vector<std::vector<uint64_t>> exact;  ///< exact components there

  size_t Tokens() const { return order.size(); }
  /// Queries one repetition asks, over all sessions.
  size_t Queries() const;
  /// Heap bytes the inputs occupy (subtracted from peak RSS).
  size_t Bytes() const;
};

/// Generates a workload's streams from `seed` and computes the exact
/// answer of every query it will ask.
Inputs MakeInputs(Kind kind, const Shape& shape, uint64_t seed);

/// What one repetition measured.
struct RepResult {
  double setup_s = 0;   ///< make + driver/sessions + engine, to first Push
  double ingest_s = 0;  ///< first Push to the return of the last Drain
  uint64_t tokens = 0;
  std::vector<double> latency_ms;  ///< per answered query
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Layer counters.
  uint64_t halves = 0;
  uint64_t coalesced = 0;
  uint64_t flushes = 0;
  std::vector<uint64_t> worker_halves;
  uint64_t answered = 0;
  uint64_t eager_answered = 0;
  double hosted_bytes = 0;  ///< sketch cells + gutter bytes after drain
};

/// Test seam: lets a test alter the emitted answers before they are
/// checked.
using Tamper = std::function<void(std::vector<AnswerLine>*)>;

/// One repetition: set up, push the whole input, answer every query,
/// check the answers, tear down. With `tracer`, spans are recorded under
/// repetition number `rep`.
RepResult RunRep(const Inputs& in, Tracer* tracer, int rep,
                 const Tamper& tamper = nullptr);

/// The set-up of a repetition alone, in seconds, then tear-down.
double SetupOnce(const Inputs& in);

/// Single-thread layer probes over the workload's own edge ids and
/// per-node batches (the gutter flushes its stream produces).
struct ProbeResult {
  double hash_ns_per_id = 0;
  double scatter_ns_per_half = 0;
  double apply_ns_per_half = 0;
};
ProbeResult RunProbes(const Inputs& in, Tracer* tracer);

/// Records five `AlgInfo::make` calls alone as core.make spans (serve
/// makes its sketches inside SessionManager::Create).
void ProbeMake(const Inputs& in, Tracer* tracer);

/// Records five `SessionManager::Create` calls alone as session.create
/// spans (the ingest workloads use no session).
void ProbeCreate(const Inputs& in, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
