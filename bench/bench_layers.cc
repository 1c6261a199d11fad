// E16: per-layer costs of the ingest apply path, on one thread.
//
// Pushes a fixed-seed stream of 400 k updates of the "uniform" workload
// profile at n = 1024 through 4 KiB per-node gutters, keeps the dense
// batches they flush, and times three layers of the apply path over those
// batches, best of 15 passes each, the layers' passes interleaved so each
// layer's best is drawn from the whole run rather than one short window
// of a shared host:
//   hash_ns_per_id       SplitMix64Batch + FingerBatch over every edge id,
//                        in 512-id chunks: the two hash kernels of one
//                        (update, repetition);
//   scatter_ns_per_half  L0CellsUpdateBatch of every batch into one node's
//                        sampler slice, with one forest round's parameters
//                        (6 repetitions), per raw half-update;
//   apply_ns_per_half    ConnectivitySketch::ApplyBatch of every batch (12
//                        rounds x 6 repetitions), per raw half-update.
// The apply sketch takes one untimed pass first, so no pass pays its
// arena's first-touch page faults, and each hash pass follows an untimed
// one, so it reads the ids from cache as the kernels do inside a batch.
//
// Nanoseconds depend on the host: how fast it is and how busy. So each
// pass also times a reference, one scalar SplitMix64 per edge id, which
// calls no code of the library (its formula is fixed by the wire format),
// and each layer's best is also reported in units of the reference's
// best, as hash_refs_per_id, scatter_refs_per_half and
// apply_refs_per_half. bench_compare gates those three lower-is-better
// against BENCH_E16.json, only when the run's kernel_lanes equals the
// baseline's; the nanosecond keys are reported, not gated.
//
// Usage: bench_layers   (about 4 s)
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/connectivity_suite.h"
#include "src/driver/gutter.h"
#include "src/hash/splitmix.h"
#include "src/workload/stream_generator.h"

namespace gsketch {
namespace {

constexpr NodeId kNodes = 1024;
constexpr size_t kUpdates = 400000;
constexpr int kPasses = 15;

// Keeps the reference pass's sums observable.
volatile uint64_t g_sink = 0;

// Lowers *best to fn()'s wall time, in ns, if that is lower.
template <typename Fn>
void TimePass(double* best, Fn&& fn) {
  bench::Timer timer;
  fn();
  *best = std::min(*best, timer.Seconds() * 1e9);
}

Span<const NodeId> Others(const NodeBatch& b) {
  return Span<const NodeId>(b.others.data(), b.others.size());
}

Span<const int64_t> Deltas(const NodeBatch& b) {
  return Span<const int64_t>(b.deltas.data(), b.deltas.size());
}

int Run() {
  bench::Banner("E16", "per-layer costs of the apply path",
                "each half-update costs its ℓ₀ hashes and cell sums in "
                "every round and repetition, and nothing per batch");
  const DynamicGraphStream stream =
      FindWorkloadProfile("uniform")->generate(kNodes, kUpdates, /*seed=*/16);
  std::vector<NodeBatch> batches;
  {
    GutterOptions gopt;
    gopt.bytes_per_gutter = kDefaultGutterBytes;
    GutterSystem gutters(
        gopt, [&batches](NodeBatch&& b) { batches.push_back(std::move(b)); });
    for (const EdgeUpdate& e : stream.Updates()) {
      gutters.Push(e.u, e.v, e.delta);
    }
    gutters.FlushAll();
  }
  std::vector<uint64_t> ids;
  std::vector<int64_t> signed_deltas;
  std::vector<size_t> offsets = {0};
  uint64_t halves = 0;
  {
    std::vector<uint64_t> batch_ids;
    std::vector<int64_t> batch_deltas;
    for (const NodeBatch& b : batches) {
      BatchEdgeIds(b.endpoint, Others(b), Deltas(b), &batch_ids,
                   &batch_deltas);
      ids.insert(ids.end(), batch_ids.begin(), batch_ids.end());
      signed_deltas.insert(signed_deltas.end(), batch_deltas.begin(),
                           batch_deltas.end());
      offsets.push_back(ids.size());
      halves += b.halves;
    }
  }
  std::printf("stream: n=%u, %zu updates -> %zu batches, %.0f entries "
              "mean, %llu halves; backend %s; best of %d passes\n\n",
              kNodes, stream.Size(), batches.size(),
              static_cast<double>(ids.size()) /
                  static_cast<double>(batches.size()),
              static_cast<unsigned long long>(halves), CellKernelBackend(),
              kPasses);

  const auto reference = [&] {
    uint64_t sum = 0;
    for (const uint64_t id : ids) sum += SplitMix64(id);
    g_sink = sum;
  };
  const uint64_t seed = 1;
  constexpr size_t kChunk = UpdateBatch::kMaxIds;
  std::vector<uint64_t> words(kChunk);
  std::vector<uint64_t> fingers(kChunk);
  const auto hash = [&] {
    for (size_t start = 0; start < ids.size(); start += kChunk) {
      const size_t chunk = std::min(kChunk, ids.size() - start);
      SplitMix64Batch(Mix64(seed, 0x5e7eu), ids.data() + start, chunk,
                      words.data());
      FingerBatch(Mix64(seed, 0xf17eu), ids.data() + start, chunk,
                  fingers.data());
    }
  };
  const L0Params params = L0Params::Make(
      EdgeDomain(kNodes), ForestOptions().repetitions, seed);
  std::vector<OneSparseCell> slice(params.CellsPerSampler());
  const auto scatter = [&] {
    for (size_t b = 0; b + 1 < offsets.size(); ++b) {
      L0CellsUpdateBatch(params, slice.data(), ids.data() + offsets[b],
                         signed_deltas.data() + offsets[b],
                         offsets[b + 1] - offsets[b]);
    }
  };
  ConnectivitySketch sketch(kNodes, ForestOptions{}, seed);
  const auto apply = [&] {
    for (const NodeBatch& b : batches) {
      sketch.ApplyBatch(b.endpoint, Others(b), Deltas(b));
    }
  };
  apply();  // first touch of the sketch's arena
  double ref_ns = std::numeric_limits<double>::infinity();
  double hash_ns = ref_ns;
  double scatter_ns = ref_ns;
  double apply_ns = ref_ns;
  for (int p = 0; p < kPasses; ++p) {
    TimePass(&ref_ns, reference);
    hash();
    TimePass(&hash_ns, hash);
    TimePass(&scatter_ns, scatter);
    TimePass(&apply_ns, apply);
  }

  const double ref_ns_per_id = ref_ns / static_cast<double>(ids.size());
  const double hash_ns_per_id = hash_ns / static_cast<double>(ids.size());
  const double scatter_ns_per_half = scatter_ns / static_cast<double>(halves);
  const double apply_ns_per_half = apply_ns / static_cast<double>(halves);
  bench::Row("%-22s %10s %10s", "layer", "ns", "refs");
  bench::Row("%-22s %10.3f %10.3f", "ref_ns_per_id", ref_ns_per_id, 1.0);
  bench::Row("%-22s %10.3f %10.3f", "hash_ns_per_id", hash_ns_per_id,
             hash_ns_per_id / ref_ns_per_id);
  bench::Row("%-22s %10.2f %10.2f", "scatter_ns_per_half",
             scatter_ns_per_half, scatter_ns_per_half / ref_ns_per_id);
  bench::Row("%-22s %10.1f %10.1f", "apply_ns_per_half", apply_ns_per_half,
             apply_ns_per_half / ref_ns_per_id);

  bench::BenchJson json("E16", "per-layer costs of the apply path");
  json.Metric("n", kNodes);
  json.Metric("stream_updates", static_cast<double>(stream.Size()));
  json.Metric("ref_ns_per_id", ref_ns_per_id);
  json.Metric("hash_ns_per_id", hash_ns_per_id);
  json.Metric("scatter_ns_per_half", scatter_ns_per_half);
  json.Metric("apply_ns_per_half", apply_ns_per_half);
  json.Metric("hash_refs_per_id", hash_ns_per_id / ref_ns_per_id);
  json.Metric("scatter_refs_per_half", scatter_ns_per_half / ref_ns_per_id);
  json.Metric("apply_refs_per_half", apply_ns_per_half / ref_ns_per_id);
  return json.Write() ? 0 : 1;
}

}  // namespace
}  // namespace gsketch

int main() { return gsketch::Run(); }
