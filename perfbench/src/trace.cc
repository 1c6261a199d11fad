#include "src/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const char* name, int parent, int rep, std::string id,
                  int thread) {
  return Add(name, NowNs(), -1, parent, rep, std::move(id), thread);
}

void Tracer::End(int index, int64_t end_ns) {
  const int64_t end = end_ns < 0 ? NowNs() : end_ns;
  gsketch::MutexLock lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

int Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                int parent, int rep, std::string id, int thread) {
  Span s;
  s.name = name;
  s.id = std::move(id);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.rep = rep;
  s.thread = thread;
  gsketch::MutexLock lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> Tracer::Snapshot() const {
  gsketch::MutexLock lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"span\": %zu, \"name\": \"%s\", \"id\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d, "
                 "\"rep\": %d, \"thread\": %d}\n",
                 i, s.name, s.id.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.rep,
                 s.thread);
  }
  return std::fclose(f) == 0;
}

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.end_ns >= s.start_ns) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
