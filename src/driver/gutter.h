// Guttering layer between the stream reader and the sketch workers, after
// the gutter systems of production streaming-connectivity pipelines.
//
// The sketches are linear, so updates may be applied in ANY order — the
// only thing ingestion speed depends on is mechanical sympathy. Applying
// half-updates one at a time touches a different node's sampler slices on
// every call (a cache miss per update) and re-derives per-repetition
// hash seeds each time. A gutter is a small per-node buffer that absorbs
// the stream's natural interleaving: half-updates for node u accumulate in
// gutter u until it fills, then flush as ONE dense batch that the sketch
// applies to u's (cache-resident) slices in a tight loop via ApplyBatch.
//
// Buffering policy:
//   * per-node capacity — `bytes_per_gutter` (default 4 KiB ≈ 341
//     updates); a full gutter flushes itself (leaf flush);
//   * duplicate coalescing — a half-update for the same (endpoint, other)
//     as the gutter's newest entry folds into it by delta addition
//     (every sketch is linear in delta, so this is exact, even when the
//     sum cancels to 0).
//
// The GutterSystem is single-producer (the stream reader thread) and
// synchronous: flushes invoke the sink inline, and the sink (the
// IngestPipeline's shared queue) does its own cross-thread handoff.
// Every buffered half-update is delivered exactly once; FlushAll()
// drains the rest.
#ifndef GRAPHSKETCH_SRC_DRIVER_GUTTER_H_
#define GRAPHSKETCH_SRC_DRIVER_GUTTER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/core/sketch_registry.h"  // AlgHasApplyBatch
#include "src/core/span.h"
#include "src/graph/edge_id.h"

namespace gsketch {

/// One dense per-node batch emitted by a gutter flush: for each i, apply
/// the half-update edge {endpoint, others[i]} += deltas[i] to `endpoint`'s
/// sketch state. `halves` counts the raw half-updates represented, which
/// exceeds others.size() when duplicates were coalesced — accounting
/// (progress, drain) is in raw halves.
struct NodeBatch {
  NodeId endpoint = 0;
  std::vector<NodeId> others;
  std::vector<int64_t> deltas;
  uint64_t halves = 0;
};

/// Default bytes per node gutter (≈ 341 entries): big enough that flush
/// overhead vanishes behind the ApplyBatch loop (E14).
inline constexpr size_t kDefaultGutterBytes = 4096;

/// Tuning knobs for GutterSystem.
struct GutterOptions {
  /// Buffered bytes per node gutter before it flushes itself; one entry
  /// (other, delta) costs 12 bytes. Values below one entry clamp to one.
  size_t bytes_per_gutter = kDefaultGutterBytes;
};

/// Per-node update buffers (see file comment). Not thread-safe; owned and
/// driven by the single producer thread.
class GutterSystem {
 public:
  using Sink = std::function<void(NodeBatch&&)>;

  GutterSystem(const GutterOptions& opt, Sink sink);

  /// Buffers both endpoint halves of one stream token.
  void Push(NodeId u, NodeId v, int64_t delta) {
    BufferHalf(u, v, delta);
    BufferHalf(v, u, delta);
  }

  /// Buffers one half-update into `endpoint`'s gutter, flushing it when
  /// full.
  void BufferHalf(NodeId endpoint, NodeId other, int64_t delta);

  /// Flushes every non-empty gutter to the sink (drain / shutdown).
  void FlushAll();

  /// Half-updates currently buffered (raw, including coalesced).
  uint64_t buffered_halves() const { return buffered_halves_; }

  /// Batches emitted to the sink so far.
  uint64_t flushes() const { return flushes_; }

  /// Half-updates folded into an existing entry instead of appending.
  uint64_t coalesced_halves() const { return coalesced_halves_; }

  /// Entries one gutter holds before flushing (derived from bytes).
  size_t entries_per_gutter() const { return capacity_; }

  /// Entries currently buffered across all gutters (post-coalescing —
  /// this, times kGutterEntryBytes, is the memory actually held).
  size_t buffered_entries() const { return total_entries_; }

 private:
  struct Gutter {
    std::vector<NodeId> others;
    std::vector<int64_t> deltas;
    uint64_t halves = 0;  // raw half-updates buffered (>= others.size())
  };

  void Flush(NodeId endpoint);

  size_t capacity_;            // entries per gutter
  size_t total_entries_ = 0;   // entries buffered across all gutters
  uint64_t buffered_halves_ = 0;
  uint64_t flushes_ = 0;
  uint64_t coalesced_halves_ = 0;
  std::vector<Gutter> gutters_;  // grown on demand to the touched node id
  Sink sink_;
};

/// Bytes one buffered gutter entry costs (NodeBatch SoA layout).
inline constexpr size_t kGutterEntryBytes =
    sizeof(NodeId) + sizeof(int64_t);

// Applies a NodeBatch through Alg's batch fast path when it has one
// (AlgHasApplyBatch, src/core/sketch_registry.h), falling back to
// per-update UpdateEndpoint otherwise. Both paths produce bit-identical
// sketch state (linearity; cell sums commute).
template <typename Alg>
void ApplyNodeBatch(Alg* alg, const NodeBatch& batch) {
  if constexpr (AlgHasApplyBatch<Alg>::value) {
    alg->ApplyBatch(batch.endpoint,
                    Span<const NodeId>(batch.others.data(),
                                       batch.others.size()),
                    Span<const int64_t>(batch.deltas.data(),
                                        batch.deltas.size()));
  } else {
    for (size_t i = 0; i < batch.others.size(); ++i) {
      alg->UpdateEndpoint(batch.endpoint, batch.endpoint, batch.others[i],
                          batch.deltas[i]);
    }
  }
}

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_DRIVER_GUTTER_H_
