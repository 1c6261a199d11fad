#include "src/session/session_manager.h"

#include <utility>

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
  if (sessions_.count(name) != 0) {
    if (error != nullptr) *error = "session '" + name + "' already open";
    return nullptr;
  }
  if (pipeline_.num_workers() > 1 && !info->endpoint_sharded) {
    if (error != nullptr) {
      *error = std::string(info->name) +
               " does not support multi-worker ingestion (sharded: " +
               ShardedAlgNameList() + ")";
    }
    return nullptr;
  }
  auto session = std::unique_ptr<SketchSession>(new SketchSession(
      name, info, info->make(cfg.num_nodes, cfg.options, cfg.seed),
      &pipeline_));
  ChannelOptions copt;
  copt.gutter_bytes = cfg.gutter_bytes;
  if (cfg.eager_connectivity) copt.eager_nodes = cfg.num_nodes;
  session->sid_ = pipeline_.Attach(&session->sink_, copt);
  return (sessions_[name] = std::move(session)).get();
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

size_t SessionManager::TotalMemoryBytes() const {
  size_t total = 0;
  for (const auto& [name, session] : sessions_) {
    total += session->MemoryBytes();
  }
  return total;
}

}  // namespace gsketch
