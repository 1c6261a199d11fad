#include "src/driver/gutter.h"

#include <cassert>

namespace gsketch {

GutterSystem::GutterSystem(const GutterOptions& opt, Sink sink)
    : capacity_(opt.bytes_per_gutter / kGutterEntryBytes),
      sink_(std::move(sink)) {
  if (capacity_ < 1) capacity_ = 1;
}

void GutterSystem::BufferHalf(NodeId endpoint, NodeId other, int64_t delta) {
  if (endpoint >= gutters_.size()) gutters_.resize(endpoint + 1);
  Gutter& g = gutters_[endpoint];
  ++buffered_halves_;
  ++g.halves;
  if (!g.others.empty() && g.others.back() == other) {
    // Same edge as the newest entry: fold by delta addition (exact, by
    // linearity — a zero sum still applies as a no-op cell update).
    g.deltas.back() += delta;
    ++coalesced_halves_;
    return;
  }
  g.others.push_back(other);
  g.deltas.push_back(delta);
  ++total_entries_;
  if (g.others.size() >= capacity_) Flush(endpoint);
}

void GutterSystem::Flush(NodeId endpoint) {
  Gutter& g = gutters_[endpoint];
  assert(!g.others.empty());
  NodeBatch batch;
  batch.endpoint = endpoint;
  batch.others = std::move(g.others);
  batch.deltas = std::move(g.deltas);
  batch.halves = g.halves;
  // The moved-from vectors lost their capacity; re-reserve so the refill
  // cycle doesn't re-grow them geometrically after every flush.
  g.others.clear();
  g.deltas.clear();
  g.others.reserve(capacity_);
  g.deltas.reserve(capacity_);
  g.halves = 0;
  total_entries_ -= batch.others.size();
  buffered_halves_ -= batch.halves;
  ++flushes_;
  sink_(std::move(batch));
}

void GutterSystem::FlushAll() {
  for (NodeId v = 0; v < gutters_.size(); ++v) {
    if (!gutters_[v].others.empty()) Flush(v);
  }
}

}  // namespace gsketch
