#include "src/workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "src/core/node_sketch.h"
#include "src/core/sketch_registry.h"
#include "src/driver/gutter.h"
#include "src/driver/sketch_driver.h"
#include "src/driver/snapshot.h"
#include "src/graph/edge_id.h"
#include "src/hash/splitmix.h"
#include "src/reference.h"
#include "src/session/session_manager.h"
#include "src/sketch/cell_kernels.h"
#include "src/sketch/l0_sampler.h"

namespace perfbench {
namespace {

using gsketch::AlgInfo;
using gsketch::AlgOptions;
using gsketch::LinearSketch;
using gsketch::NodeBatch;
using gsketch::NodeId;
using gsketch::SketchSnapshot;
using gsketch::SnapshotTiming;

constexpr const char* kAlg = "connectivity";
constexpr uint64_t kSketchSeed = 1;  // the CLI's default sketch seed
constexpr size_t kGutterBytes = 4096;
constexpr size_t kPushChunk = 4096;  // tokens per traced push span
// Raw half-updates the apply, scatter and hash probes replay: enough for
// a steady per-half cost at a fraction of a second per pass.
constexpr uint64_t kProbeHalves = uint64_t{1} << 18;
constexpr int kProbePasses = 3;

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

const AlgInfo& ConnectivityInfo() {
  const AlgInfo* info = gsketch::FindAlg(kAlg);
  if (info == nullptr) Fatal(std::string("no registered family ") + kAlg);
  return *info;
}

std::string Label(uint8_t session) { return "s" + std::to_string(session); }

uint64_t DeriveSeed(uint64_t seed, uint64_t k) {
  return gsketch::Mix64(seed, k);
}

/// Records a span over the enclosing scope (nothing without a tracer).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int parent, int rep,
            std::string id = {}, int thread = 0)
      : tracer_(tracer),
        index_(tracer != nullptr
                   ? tracer->Begin(name, parent, rep, std::move(id), thread)
                   : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

/// A pinned snapshot whose Query records a decode span. QueryEngine calls
/// Query on its own thread, so this is how the benchmark times decode
/// from outside the library; every other call forwards unchanged.
class TracedQuerySketch final : public LinearSketch {
 public:
  TracedQuerySketch(std::shared_ptr<const SketchSnapshot> inner,
                    Tracer* tracer, int parent, int rep, std::string id)
      : inner_(std::move(inner)),
        tracer_(tracer),
        parent_(parent),
        rep_(rep),
        id_(std::move(id)) {}

  gsketch::AlgTag Tag() const override { return sk().Tag(); }
  NodeId num_nodes() const override { return sk().num_nodes(); }
  size_t CellCount() const override { return sk().CellCount(); }
  void UpdateEndpoint(NodeId, NodeId, NodeId, int64_t) override {
    std::abort();  // unreachable: snapshots are only read
  }
  bool Merge(const LinearSketch&, std::string* error) override {
    if (error != nullptr) *error = "read-only snapshot";
    return false;
  }
  void AppendTo(std::string* out) const override { sk().AppendTo(out); }
  std::unique_ptr<LinearSketch> Clone() const override { return sk().Clone(); }
  bool Query(const std::string& query, std::string* out,
             std::string* error) const override {
    SpanScope span(tracer_, "core.decode", parent_, rep_, id_, 1);
    return sk().Query(query, out, error);
  }
  std::string QueryVerbs() const override { return sk().QueryVerbs(); }
  std::string Describe() const override { return sk().Describe(); }
  void PrintAnswer(std::FILE* out) const override { sk().PrintAnswer(out); }

 private:
  const LinearSketch& sk() const { return *inner_->sketch; }

  std::shared_ptr<const SketchSnapshot> inner_;
  Tracer* tracer_;
  int parent_;
  int rep_;
  std::string id_;
};

std::shared_ptr<const SketchSnapshot> TraceDecode(
    std::shared_ptr<const SketchSnapshot> snap, Tracer* tracer, int parent,
    int rep, const std::string& id) {
  auto traced = std::make_shared<SketchSnapshot>();
  traced->stream_pos = snap->stream_pos;
  traced->eager = snap->eager;
  traced->sketch =
      std::make_unique<TracedQuerySketch>(std::move(snap), tracer, parent,
                                          rep, id);
  return traced;
}

/// The publish call's span over [start, end] and, inside it, the drain
/// and capture halves the library reports in SnapshotTiming.
void RecordPublish(Tracer* tracer, const char* name, int64_t start,
                   int64_t end, const SnapshotTiming& timing, int parent,
                   int rep, const std::string& id) {
  if (tracer == nullptr) return;
  int span = tracer->Add(name, start, end, parent, rep, id);
  const int64_t drained =
      start + static_cast<int64_t>(timing.drain_ms * 1e6);
  tracer->Add("driver.snapshot_drain", start, drained, span, rep, id);
  tracer->Add("driver.snapshot_publish", drained,
              drained + static_cast<int64_t>(timing.publish_ms * 1e6), span,
              rep, id);
}

/// Pushes every token in input order; right after the push that reaches
/// a query position, calls on_query(session, query index, time pushed).
/// Traced pushes are grouped into spans of up to kPushChunk tokens that
/// never straddle a query.
template <typename PushFn, typename QueryFn>
void PushAll(const Inputs& in, Tracer* tracer, int parent, int rep,
             PushFn&& push, QueryFn&& on_query) {
  std::vector<size_t> pushed(in.streams.size(), 0);
  std::vector<size_t> next(in.streams.size(), 0);
  int chunk = -1;
  size_t in_chunk = 0;
  for (uint8_t s : in.order) {
    if (tracer != nullptr && chunk < 0) {
      chunk = tracer->Begin("driver.push", parent, rep);
    }
    push(s, in.streams[s][pushed[s]]);
    ++pushed[s];
    const bool at_query = next[s] < in.positions[s].size() &&
                          pushed[s] == in.positions[s][next[s]];
    if (!at_query && (tracer == nullptr || ++in_chunk < kPushChunk)) {
      continue;
    }
    const int64_t now = NowNs();
    if (tracer != nullptr) {
      tracer->End(chunk, now);
      chunk = -1;
      in_chunk = 0;
    }
    if (at_query) on_query(s, next[s]++, now);
  }
  if (chunk >= 0) tracer->End(chunk);
}

/// Checks the emitted answers and closes each query span at its answer.
void Settle(AnswerSink* sink, const std::vector<Expected>& expected,
            const std::vector<int>& query_spans, const Tamper& tamper,
            Tracer* tracer, RepResult* r) {
  std::vector<AnswerLine> lines = sink->Lines();
  if (tamper) tamper(&lines);
  CheckResult check = CheckAnswers(expected, lines);
  r->attempted = check.attempted;
  r->failed = check.failed;
  for (size_t i = 0; i < expected.size(); ++i) {
    const double ms = check.latency_ms[i];
    if (ms < 0) continue;
    r->latency_ms.push_back(ms);
    if (tracer != nullptr) {
      tracer->End(query_spans[i],
                  expected[i].asked_ns + static_cast<int64_t>(ms * 1e6));
    }
  }
}

// ---------------------------------------------------------------- ingest --

struct IngestRig {
  std::unique_ptr<LinearSketch> sketch;
  std::unique_ptr<gsketch::SketchDriver<LinearSketch>> driver;
};

IngestRig SetUpIngest(const Inputs& in, Tracer* tracer, int parent,
                      int rep) {
  IngestRig rig;
  {
    SpanScope span(tracer, "core.make", parent, rep);
    rig.sketch =
        ConnectivityInfo().make(in.nodes, AlgOptions(), kSketchSeed);
  }
  gsketch::DriverOptions opt;
  opt.num_workers = WorkersOf(in.kind);
  opt.gutter_bytes = kGutterBytes;
  SpanScope span(tracer, "driver.start", parent, rep);
  rig.driver = std::make_unique<gsketch::SketchDriver<LinearSketch>>(
      rig.sketch.get(), opt);
  return rig;
}

RepResult RunIngestRep(const Inputs& in, Tracer* tracer, int rep,
                       const Tamper& tamper) {
  RepResult r;
  AnswerSink sink;
  SpanScope root(tracer, "rep", -1, rep);
  const int64_t t0 = NowNs();
  IngestRig rig;
  {
    SpanScope setup(tracer, "setup", root.index(), rep);
    rig = SetUpIngest(in, tracer, setup.index(), rep);
  }
  auto& driver = *rig.driver;
  const int64_t t_first = NowNs();
  int64_t t_drained = t_first;
  std::vector<Expected> expected;
  std::vector<int> query_spans;
  PushAll(
      in, tracer, root.index(), rep,
      [&driver](uint8_t, const Token& t) { driver.Push(t.u, t.v, t.delta); },
      [&](uint8_t s, size_t q, int64_t asked) {
        // The end-of-stream answer: drain, capture, decode on this thread
        // (a query thread would exceed the thread budget).
        const uint64_t pos = in.positions[s][q];
        const std::string id = "@" + std::to_string(pos);
        const int query =
            tracer != nullptr
                ? tracer->Add("query", asked, -1, root.index(), rep, id)
                : -1;
        {
          SpanScope drain(tracer, "driver.final_drain", query, rep, id);
          driver.Drain();
        }
        t_drained = NowNs();
        gsketch::SnapshotStore store;
        SnapshotTiming timing;
        auto snap = gsketch::PublishSnapshot(&driver, &store, &timing);
        RecordPublish(tracer, "driver.publish", t_drained, NowNs(), timing,
                      query, rep, id);
        std::string answer, error;
        bool ok = false;
        {
          SpanScope decode(tracer, "core.decode", query, rep, id);
          ok = snap->sketch->Query("components", &answer, &error);
        }
        std::fprintf(sink.file(), "@%llu components => %s\n",
                     static_cast<unsigned long long>(pos),
                     ok ? answer.c_str() : ("error: " + error).c_str());
        std::fflush(sink.file());
        expected.push_back({"", pos, in.exact[s][q], asked});
        query_spans.push_back(query);
      });
  r.setup_s = static_cast<double>(t_first - t0) / 1e9;
  r.ingest_s = static_cast<double>(t_drained - t_first) / 1e9;
  r.tokens = in.Tokens();
  r.halves = 2 * r.tokens;
  r.coalesced = driver.gutters()->coalesced_halves();
  r.flushes = driver.gutters()->flushes();
  for (uint32_t w = 0; w < driver.num_workers(); ++w) {
    r.worker_halves.push_back(driver.WorkerAppliedHalves(w));
  }
  r.answered = expected.size();
  // SketchSession::MemoryBytes' measure; the gutters are empty here.
  r.hosted_bytes = static_cast<double>(rig.sketch->CellCount() *
                                       sizeof(gsketch::OneSparseCell));
  Settle(&sink, expected, query_spans, tamper, tracer, &r);
  return r;
}

// ----------------------------------------------------------------- serve --

struct ServeRig {
  std::unique_ptr<gsketch::SessionManager> manager;
  std::vector<gsketch::SketchSession*> sessions;
  std::unique_ptr<gsketch::QueryEngine> engine;  // destroyed first
};

ServeRig SetUpServe(const Inputs& in, std::FILE* out, Tracer* tracer,
                    int parent, int rep) {
  ServeRig rig;
  gsketch::PipelineOptions popt;
  popt.num_workers = WorkersOf(in.kind);
  {
    SpanScope span(tracer, "session.manager", parent, rep);
    rig.manager = std::make_unique<gsketch::SessionManager>(popt);
  }
  for (uint8_t s = 0; s < in.streams.size(); ++s) {
    // What `gsketch_cli serve multi` sets for a connectivity session.
    gsketch::SessionConfig cfg;
    cfg.num_nodes = in.nodes;
    cfg.seed = kSketchSeed;
    cfg.gutter_bytes = kGutterBytes;
    cfg.eager_connectivity = true;
    std::string error;
    SpanScope span(tracer, "session.create", parent, rep);
    gsketch::SketchSession* session =
        rig.manager->Create(Label(s), kAlg, cfg, &error);
    if (session == nullptr) Fatal("create session: " + error);
    rig.sessions.push_back(session);
  }
  SpanScope span(tracer, "driver.engine_start", parent, rep);
  rig.engine = std::make_unique<gsketch::QueryEngine>(nullptr, out);
  return rig;
}

RepResult RunServeRep(const Inputs& in, Tracer* tracer, int rep,
                      const Tamper& tamper) {
  RepResult r;
  AnswerSink sink;  // outlives the engine that writes to it
  SpanScope root(tracer, "rep", -1, rep);
  const int64_t t0 = NowNs();
  ServeRig rig;
  {
    SpanScope setup(tracer, "setup", root.index(), rep);
    rig = SetUpServe(in, sink.file(), tracer, setup.index(), rep);
  }
  const int64_t t_first = NowNs();
  std::vector<Expected> expected;
  std::vector<int> query_spans;
  PushAll(
      in, tracer, root.index(), rep,
      [&rig](uint8_t s, const Token& t) {
        rig.sessions[s]->Push(t.u, t.v, t.delta);
      },
      [&](uint8_t s, size_t q, int64_t asked) {
        const uint64_t pos = in.positions[s][q];
        const std::string label = Label(s);
        const std::string id = label + "@" + std::to_string(pos);
        const int query =
            tracer != nullptr
                ? tracer->Add("query", asked, -1, root.index(), rep, id)
                : -1;
        SnapshotTiming timing;
        auto snap = rig.sessions[s]->Publish(&timing);
        RecordPublish(tracer, "session.publish", asked, NowNs(), timing,
                      query, rep, id);
        if (tracer != nullptr) {
          snap = TraceDecode(std::move(snap), tracer, query, rep, id);
        }
        rig.engine->Submit(label, "components", std::move(snap));
        expected.push_back({label, pos, in.exact[s][q], asked});
        query_spans.push_back(query);
      });
  for (auto* session : rig.sessions) {
    SpanScope drain(tracer, "driver.final_drain", root.index(), rep);
    session->Drain();
  }
  const int64_t t_drained = NowNs();
  rig.engine->Finish();
  r.setup_s = static_cast<double>(t_first - t0) / 1e9;
  r.ingest_s = static_cast<double>(t_drained - t_first) / 1e9;
  r.tokens = in.Tokens();
  r.halves = 2 * r.tokens;
  for (auto* session : rig.sessions) {
    r.coalesced += session->gutters()->coalesced_halves();
    r.flushes += session->gutters()->flushes();
  }
  const auto& pipeline = rig.manager->pipeline();
  for (uint32_t w = 0; w < pipeline.num_workers(); ++w) {
    r.worker_halves.push_back(pipeline.WorkerAppliedHalves(w));
  }
  r.answered = rig.engine->answered();
  r.eager_answered = rig.engine->eager_answered();
  r.hosted_bytes = static_cast<double>(rig.manager->TotalMemoryBytes());
  Settle(&sink, expected, query_spans, tamper, tracer, &r);
  return r;
}

// ---------------------------------------------------------------- probes --

/// The per-node batches the 4 KiB gutters flush for the workload's
/// streams, with everything flushed at each query position as the
/// snapshot barrier does; every stride-th batch is kept so the sample
/// holds about kProbeHalves raw halves with the run's batch-size mix.
std::vector<NodeBatch> ProbeBatches(const Inputs& in) {
  std::vector<NodeBatch> all;
  gsketch::GutterOptions gopt;
  gopt.bytes_per_gutter = kGutterBytes;
  for (size_t s = 0; s < in.streams.size(); ++s) {
    gsketch::GutterSystem gutters(
        gopt, [&all](NodeBatch&& b) { all.push_back(std::move(b)); });
    size_t next = 0;
    for (size_t i = 0; i < in.streams[s].size(); ++i) {
      const Token& t = in.streams[s][i];
      gutters.Push(t.u, t.v, t.delta);
      if (next < in.positions[s].size() && i + 1 == in.positions[s][next]) {
        gutters.FlushAll();
        ++next;
      }
    }
    gutters.FlushAll();
  }
  uint64_t halves = 0;
  for (const auto& b : all) halves += b.halves;
  const uint64_t stride = std::max<uint64_t>(1, halves / kProbeHalves);
  std::vector<NodeBatch> kept;
  for (size_t i = 0; i < all.size(); i += stride) {
    kept.push_back(std::move(all[i]));
  }
  return kept;
}

gsketch::Span<const NodeId> Others(const NodeBatch& b) {
  return gsketch::Span<const NodeId>(b.others.data(), b.others.size());
}

gsketch::Span<const int64_t> Deltas(const NodeBatch& b) {
  return gsketch::Span<const int64_t>(b.deltas.data(), b.deltas.size());
}

/// Median over passes of fn()'s wall time, in ns, with a probe span each.
template <typename Fn>
double MedianPassNs(Tracer* tracer, const char* name, Fn&& fn) {
  std::vector<double> passes;
  for (int p = 0; p < kProbePasses; ++p) {
    SpanScope span(tracer, name, -1, -1);
    const int64_t t0 = NowNs();
    fn();
    passes.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(passes);
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  // Why each exists: README.md beside this directory's sources.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"ingest-uniform", Kind::kIngestUniform},
      {"ingest-hotspot", Kind::kIngestHotspot},
      {"serve-sliding", Kind::kServeSliding},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint32_t WorkersOf(Kind kind) {
  return kind == Kind::kServeSliding ? 2 : 3;
}

uint32_t QueryThreadsOf(Kind kind) {
  return kind == Kind::kServeSliding ? 1 : 0;
}

size_t Inputs::Queries() const {
  size_t queries = 0;
  for (const auto& p : positions) queries += p.size();
  return queries;
}

size_t Inputs::Bytes() const {
  size_t bytes = order.capacity();
  for (const auto& s : streams) bytes += s.capacity() * sizeof(Token);
  for (const auto& p : positions) bytes += p.capacity() * sizeof(uint64_t);
  for (const auto& e : exact) bytes += e.capacity() * sizeof(uint64_t);
  return bytes;
}

Inputs MakeInputs(Kind kind, const Shape& shape, uint64_t seed) {
  Inputs in;
  in.kind = kind;
  in.nodes = shape.nodes;
  switch (kind) {
    case Kind::kIngestUniform:
      in.streams.push_back(UniformStream(shape.nodes, shape.tokens, seed));
      break;
    case Kind::kIngestHotspot:
      in.streams.push_back(HotspotStream(shape.nodes, shape.tokens, seed));
      break;
    case Kind::kServeSliding:
      for (uint64_t k = 0; k < 2; ++k) {
        in.streams.push_back(SlidingStream(shape.nodes, shape.tokens,
                                           DeriveSeed(seed, k)));
      }
      break;
  }
  std::vector<size_t> sizes;
  for (const auto& s : in.streams) sizes.push_back(s.size());
  if (kind == Kind::kServeSliding) {
    in.order = Interleave(sizes, DeriveSeed(seed, sizes.size()));
  } else {
    in.order.assign(sizes[0], 0);
  }
  for (const auto& s : in.streams) {
    std::vector<uint64_t> pos;
    if (kind == Kind::kServeSliding) {
      for (size_t p = shape.query_every; p < s.size(); p += shape.query_every) {
        pos.push_back(p);
      }
    }
    pos.push_back(s.size());  // every workload answers at the stream's end
    in.exact.push_back(ExactComponents(shape.nodes, s, pos));
    in.positions.push_back(std::move(pos));
  }
  return in;
}

RepResult RunRep(const Inputs& in, Tracer* tracer, int rep,
                 const Tamper& tamper) {
  return in.kind == Kind::kServeSliding
             ? RunServeRep(in, tracer, rep, tamper)
             : RunIngestRep(in, tracer, rep, tamper);
}

double SetupOnce(const Inputs& in) {
  AnswerSink sink;
  const int64_t t0 = NowNs();
  if (in.kind == Kind::kServeSliding) {
    ServeRig rig = SetUpServe(in, sink.file(), nullptr, -1, 0);
    return static_cast<double>(NowNs() - t0) / 1e9;
  }
  IngestRig rig = SetUpIngest(in, nullptr, -1, 0);
  return static_cast<double>(NowNs() - t0) / 1e9;
}

ProbeResult RunProbes(const Inputs& in, Tracer* tracer) {
  const std::vector<NodeBatch> batches = ProbeBatches(in);
  std::vector<uint64_t> ids;
  std::vector<int64_t> signed_deltas;
  std::vector<size_t> offsets = {0};
  uint64_t halves = 0;
  {
    std::vector<uint64_t> batch_ids;
    std::vector<int64_t> batch_deltas;
    for (const auto& b : batches) {
      gsketch::BatchEdgeIds(b.endpoint, Others(b), Deltas(b), &batch_ids,
                            &batch_deltas);
      ids.insert(ids.end(), batch_ids.begin(), batch_ids.end());
      signed_deltas.insert(signed_deltas.end(), batch_deltas.begin(),
                           batch_deltas.end());
      offsets.push_back(ids.size());
      halves += b.halves;
    }
  }
  ProbeResult out;

  // Kernels: one SplitMix64 and one fingerprint pass per id, in the
  // 256-id chunks L0CellsUpdateBatch hashes.
  {
    constexpr size_t kChunk = 256;
    uint64_t words[kChunk];
    uint64_t fingers[kChunk];
    const uint64_t word_base = gsketch::Mix64(kSketchSeed, 0x5e7eu);
    const uint64_t finger_base = gsketch::Mix64(kSketchSeed, 0xf17eu);
    const double ns = MedianPassNs(tracer, "probe.hash", [&] {
      for (size_t start = 0; start < ids.size(); start += kChunk) {
        const size_t chunk = std::min(kChunk, ids.size() - start);
        gsketch::SplitMix64Batch(word_base, ids.data() + start, chunk, words);
        gsketch::FingerBatch(finger_base, ids.data() + start, chunk,
                             fingers);
      }
    });
    out.hash_ns_per_id = ns / static_cast<double>(ids.size());
  }

  // Scatter: every batch into one node's sampler slice, with the
  // parameters each forest round of the connectivity sketch uses.
  {
    const auto params = gsketch::L0Params::Make(
        gsketch::EdgeDomain(in.nodes), gsketch::ForestOptions().repetitions,
        kSketchSeed);
    std::vector<gsketch::OneSparseCell> slice(params.CellsPerSampler());
    const double ns = MedianPassNs(tracer, "probe.scatter", [&] {
      for (size_t b = 0; b + 1 < offsets.size(); ++b) {
        gsketch::L0CellsUpdateBatch(params, slice.data(),
                                    ids.data() + offsets[b],
                                    signed_deltas.data() + offsets[b],
                                    offsets[b + 1] - offsets[b]);
      }
    });
    out.scatter_ns_per_half = ns / static_cast<double>(halves);
  }

  // ApplyBatch: the batches into a fresh sketch, as a worker applies them.
  {
    auto sketch = ConnectivityInfo().make(in.nodes, AlgOptions(), kSketchSeed);
    const double ns = MedianPassNs(tracer, "probe.apply", [&] {
      for (const auto& b : batches) {
        sketch->ApplyBatch(b.endpoint, Others(b), Deltas(b));
      }
    });
    out.apply_ns_per_half = ns / static_cast<double>(halves);
  }
  return out;
}

void ProbeMake(const Inputs& in, Tracer* tracer) {
  for (int p = 0; p < 5; ++p) {
    malloc_trim(0);  // from a trimmed heap, as in a repetition's set-up
    std::unique_ptr<LinearSketch> sketch;  // freed after the span ends
    SpanScope span(tracer, "core.make", -1, -1);
    sketch = ConnectivityInfo().make(in.nodes, AlgOptions(), kSketchSeed);
  }
}

void ProbeCreate(const Inputs& in, Tracer* tracer) {
  gsketch::PipelineOptions popt;
  popt.num_workers = WorkersOf(in.kind);
  gsketch::SessionManager manager(popt);
  for (int p = 0; p < 5; ++p) {
    gsketch::SessionConfig cfg;
    cfg.num_nodes = in.nodes;
    cfg.seed = kSketchSeed;
    cfg.gutter_bytes = kGutterBytes;
    std::string error;
    const std::string name = "probe" + std::to_string(p);
    malloc_trim(0);
    {
      SpanScope span(tracer, "session.create", -1, -1);
      if (manager.Create(name, kAlg, cfg, &error) == nullptr) {
        Fatal("create session: " + error);
      }
    }
    manager.Close(name);
  }
}

}  // namespace perfbench
