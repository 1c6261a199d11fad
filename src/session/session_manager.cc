#include "src/session/session_manager.h"

#include <utility>

#include "src/driver/checkpoint.h"

namespace gsketch {

SessionManager::SessionManager(const PipelineOptions& opt)
    : pipeline_(opt) {}

SessionManager::~SessionManager() {
  // The pipeline's destructor would drain-and-join anyway, but sessions
  // hold the sinks the in-flight work items point at, so detach each
  // channel (which drains it) before any session is destroyed.
  for (auto& [name, session] : sessions_) {
    pipeline_.Detach(session->sid_);
  }
  sessions_.clear();
}

SketchSession* SessionManager::Create(const std::string& name,
                                      const std::string& alg,
                                      const SessionConfig& cfg,
                                      std::string* error) {
  const AlgInfo* info = FindAlg(alg);
  if (info == nullptr) {
    if (error != nullptr) {
      *error = "unknown algorithm '" + alg + "' (have " +
               RegistryNameList() + ")";
    }
    return nullptr;
  }
  ChannelOptions copt;
  copt.gutter_bytes = cfg.gutter_bytes;
  if (cfg.eager_connectivity) copt.eager_nodes = cfg.num_nodes;
  return Open(
      name, *info,
      [&] { return info->make(cfg.num_nodes, cfg.options, cfg.seed); }, copt,
      error);
}

SketchSession* SessionManager::OpenCheckpoint(const std::string& name,
                                              const std::string& path,
                                              const SessionConfig& cfg,
                                              std::string* error) {
  auto ckpt = ReadCheckpointFile(path, error);
  if (!ckpt.has_value()) return nullptr;
  if ((ckpt->flags & kCheckpointFlagShard) != 0) {
    if (error != nullptr) {
      *error = path +
               ": shard checkpoint (non-prefix coverage) cannot seed a "
               "resumable session";
    }
    return nullptr;
  }
  std::unique_ptr<LinearSketch> sketch = RestoreSketch(*ckpt, error);
  if (sketch == nullptr) return nullptr;
  ChannelOptions copt;
  copt.gutter_bytes = cfg.gutter_bytes;
  // No eager forest: it needs the full edge history, which a checkpoint
  // does not carry (queries fall back to sketch decoding).
  copt.initial_stream_pos = ckpt->stream_pos;
  // RestoreSketch succeeded, so the tag is registered.
  return Open(
      name, *FindAlg(ckpt->alg), [&] { return std::move(sketch); }, copt,
      error);
}

SketchSession* SessionManager::Open(
    const std::string& name, const AlgInfo& info,
    const std::function<std::unique_ptr<LinearSketch>()>& make,
    const ChannelOptions& copt, std::string* error) {
  if (sessions_.count(name) != 0) {
    if (error != nullptr) *error = "session '" + name + "' already open";
    return nullptr;
  }
  if (pipeline_.num_workers() > 1 && !info.endpoint_sharded) {
    if (error != nullptr) {
      *error = std::string(info.name) +
               " does not support multi-worker ingestion (sharded: " +
               ShardedAlgNameList() + ")";
    }
    return nullptr;
  }
  auto session = std::unique_ptr<SketchSession>(
      new SketchSession(name, &info, make(), &pipeline_));
  session->sid_ = pipeline_.Attach(&session->sink_, copt);
  return (sessions_[name] = std::move(session)).get();
}

SketchSession* SessionManager::Find(const std::string& name) const {
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second.get();
}

bool SessionManager::Close(const std::string& name, std::string* error) {
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    if (error != nullptr) *error = "no session '" + name + "'";
    return false;
  }
  pipeline_.Detach(it->second->sid_);  // drains before removal
  sessions_.erase(it);
  return true;
}

bool SessionManager::Checkpoint(const std::string& name,
                                const std::string& path,
                                std::string* error) {
  SketchSession* s = Find(name);
  if (s == nullptr) {
    if (error != nullptr) *error = "no session '" + name + "'";
    return false;
  }
  s->Drain();
  return SaveCheckpoint(path, *s->sketch_, s->stream_pos(), error);
}

std::vector<std::string> SessionManager::Names() const {
  std::vector<std::string> names;
  names.reserve(sessions_.size());
  for (const auto& [name, session] : sessions_) names.push_back(name);
  return names;  // std::map iterates lexicographically
}

size_t SessionManager::TotalMemoryBytes() const {
  size_t total = 0;
  for (const auto& [name, session] : sessions_) {
    total += session->MemoryBytes();
  }
  return total;
}

}  // namespace gsketch
