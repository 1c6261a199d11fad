#include "src/driver/snapshot.h"

#include <chrono>
#include <sstream>
#include <vector>

namespace gsketch {

std::shared_ptr<const SketchSnapshot> SnapshotStore::Publish(
    uint64_t stream_pos, std::unique_ptr<const LinearSketch> sketch,
    std::shared_ptr<const EagerCut> eager) {
  // Declared before the lock, so whichever capture this call gives up —
  // the superseded one, or an out-of-order new one — is released after
  // mu_ is: releasing a capture takes COW own-stripes, which must not
  // nest under this leaf lock.
  std::shared_ptr<const SketchSnapshot> snap = std::make_shared<
      const SketchSnapshot>(
      SketchSnapshot{stream_pos, std::move(sketch), std::move(eager)});
  MutexLock lock(mu_);
  if (latest_ != nullptr && stream_pos < latest_->stream_pos) {
    return latest_;  // out-of-order publish: keep the newer capture
  }
  latest_.swap(snap);
  ++published_;
  return latest_;
}

std::shared_ptr<const SketchSnapshot> SnapshotStore::Latest() const {
  MutexLock lock(mu_);
  return latest_;
}

uint64_t SnapshotStore::published() const {
  MutexLock lock(mu_);
  return published_;
}

std::shared_ptr<const SketchSnapshot> CaptureSnapshot(
    IngestPipeline* pipeline, IngestPipeline::SessionId sid,
    const LinearSketch& sketch, SnapshotStore* store,
    SnapshotTiming* timing) {
  using Clock = std::chrono::steady_clock;
  auto ms = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  // The eager cut reflects every token PUSHED, which is exactly the
  // position the drain barrier lands on (producer thread, so no pushes
  // can slip in between); capturing before the drain keeps it off the
  // publish critical path.
  auto eager = pipeline->CaptureEagerCut(sid);
  const auto t0 = Clock::now();
  pipeline->Drain(sid);
  const auto t1 = Clock::now();
  const uint64_t pos = pipeline->StreamUpdates(sid);
  std::shared_ptr<const SketchSnapshot> snap;
  if (store != nullptr) {
    snap = store->Publish(pos, sketch.SnapshotView(), std::move(eager));
  } else {
    snap = std::make_shared<const SketchSnapshot>(
        SketchSnapshot{pos, sketch.SnapshotView(), std::move(eager)});
  }
  if (timing != nullptr) {
    timing->drain_ms = ms(t0, t1);
    timing->publish_ms = ms(t1, Clock::now());
  }
  return snap;
}

std::shared_ptr<const SketchSnapshot> PublishSnapshot(
    SketchDriver<LinearSketch>* driver, SnapshotStore* store,
    SnapshotTiming* timing) {
  return CaptureSnapshot(&driver->pipeline_, driver->sid_, *driver->alg_,
                         store, timing);
}

bool EagerCutServes(AlgTag tag) {
  return tag == AlgTag::kConnectivity || tag == AlgTag::kSpanningForest;
}

std::optional<std::string> EagerAnswer(const EagerCut& cut, AlgTag tag,
                                       const std::string& query) {
  // Only the families whose adapters expose these verbs with these
  // shapes; intercepting a verb the sketch path would reject would change
  // serve output.
  if (!EagerCutServes(tag)) return std::nullopt;
  std::istringstream ss(query);
  std::vector<std::string> t;
  std::string tok;
  while (ss >> tok) t.push_back(tok);
  if (t.empty()) return std::nullopt;
  if (t[0] == "components") return std::to_string(cut.components);
  if (t[0] == "connected") {
    if (t.size() == 1) {
      // Bare "connected" is a connectivity-family verb only; the forest
      // adapter rejects it.
      if (tag != AlgTag::kConnectivity) return std::nullopt;
      return std::string(cut.components == 1 ? "yes" : "no");
    }
    if (t.size() != 3) return std::nullopt;  // sketch path emits the error
    // The adapters' own node parse: whatever it rejects falls through to
    // the sketch path for the canonical error text.
    const NodeId n = static_cast<NodeId>(cut.num_nodes());
    NodeId u = 0, v = 0;
    if (!ParseQueryNode(t[1], n, &u, nullptr) ||
        !ParseQueryNode(t[2], n, &v, nullptr)) {
      return std::nullopt;
    }
    return std::string(cut.Connected(u, v) ? "yes" : "no");
  }
  return std::nullopt;
}

SnapshotScheduler::SnapshotScheduler(double interval_seconds)
    : interval_(interval_seconds), next_(interval_seconds) {}

bool SnapshotScheduler::Due(double now_seconds) const {
  return interval_ > 0 && now_seconds >= next_;
}

void SnapshotScheduler::Taken(double now_seconds) {
  if (interval_ <= 0) return;
  uint64_t passed = 0;
  while (next_ <= now_seconds) {
    next_ += interval_;
    ++passed;
  }
  if (passed > 1) coalesced_ += passed - 1;
}

QueryEngine::QueryEngine(const SnapshotStore* store, std::FILE* out)
    : store_(store), out_(out), thread_([this] { Loop(); }) {}

QueryEngine::~QueryEngine() { Finish(); }

void QueryEngine::Submit(std::string query) {
  Enqueue(Item{std::string(), std::move(query), nullptr, false});
}

void QueryEngine::Submit(std::string label, std::string query,
                         std::shared_ptr<const SketchSnapshot> snap) {
  Enqueue(Item{std::move(label), std::move(query), std::move(snap), true});
}

void QueryEngine::Enqueue(Item item) {
  MutexLock lock(mu_);
  if (finished_) return;
  queue_.push_back(std::move(item));
  ++submitted_;
  work_.NotifyOne();
}

void QueryEngine::Finish() {
  {
    MutexLock lock(mu_);
    if (finished_) return;
    finished_ = true;  // no further Submits land
    while (answered_ != submitted_) idle_.Wait(mu_);
    stopping_ = true;
    work_.NotifyAll();
  }
  thread_.join();
}

uint64_t QueryEngine::answered() const {
  MutexLock lock(mu_);
  return answered_;
}

uint64_t QueryEngine::errors() const {
  MutexLock lock(mu_);
  return errors_;
}

uint64_t QueryEngine::eager_answered() const {
  MutexLock lock(mu_);
  return eager_answered_;
}

void QueryEngine::Loop() {
  for (;;) {
    Item item;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_.Wait(mu_);
      if (queue_.empty()) return;  // stopping and fully drained
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    std::shared_ptr<const SketchSnapshot> snap =
        item.pinned ? std::move(item.pin)
                    : (store_ != nullptr ? store_->Latest() : nullptr);
    // Empty for unlabeled queries, so the historical single-graph output
    // stays byte-identical; "<session>@<pos> ..." otherwise.
    const char* label = item.label.c_str();
    bool failed = false;
    bool from_eager = false;
    if (snap == nullptr) {
      std::fprintf(out_, "%s@- %s => error: no snapshot yet\n", label,
                   item.query.c_str());
      failed = true;
    } else {
      std::string answer, error;
      bool ok = false;
      // Exact fast path: answer from the eager cut without touching the
      // sketch. EagerAnswer only fires on query shapes whose sketch-path
      // answer it matches, so output is independent of which path ran.
      if (snap->eager != nullptr) {
        auto eager =
            EagerAnswer(*snap->eager, snap->sketch->Tag(), item.query);
        if (eager.has_value()) {
          answer = std::move(*eager);
          ok = from_eager = true;
        }
      }
      if (!from_eager) ok = snap->sketch->Query(item.query, &answer, &error);
      if (!ok) {
        std::fprintf(out_, "%s@%llu %s => error: %s\n", label,
                     static_cast<unsigned long long>(snap->stream_pos),
                     item.query.c_str(), error.c_str());
        failed = true;
      } else {
        // Single-line answers inline; multi-line answers start on the
        // next line so the @pos header stays one grep-able record.
        while (!answer.empty() && answer.back() == '\n') answer.pop_back();
        std::fprintf(out_, "%s@%llu %s =>%s%s\n", label,
                     static_cast<unsigned long long>(snap->stream_pos),
                     item.query.c_str(),
                     answer.find('\n') != std::string::npos ? "\n" : " ",
                     answer.c_str());
      }
    }
    std::fflush(out_);
    {
      MutexLock lock(mu_);
      ++answered_;
      if (failed) ++errors_;
      if (from_eager) ++eager_answered_;
      idle_.NotifyAll();
    }
  }
}

}  // namespace gsketch
