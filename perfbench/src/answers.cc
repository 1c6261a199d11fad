#include "src/answers.h"

#include <cstdlib>
#include <map>
#include <utility>

#include "src/trace.h"

namespace perfbench {

AnswerSink::AnswerSink() {
  chunks_.reserve(1024);
  cookie_io_functions_t io{};
  io.write = &AnswerSink::Write;
  file_ = fopencookie(this, "w", io);
  if (file_ == nullptr) {
    std::fprintf(stderr, "perfbench: fopencookie failed\n");
    std::exit(1);
  }
  // Fully buffered: the engine's per-answer fflush is the one write.
  std::setvbuf(file_, nullptr, _IOFBF, 1 << 16);
}

AnswerSink::~AnswerSink() { std::fclose(file_); }

ssize_t AnswerSink::Write(void* cookie, const char* buf, size_t size) {
  const int64_t t = NowNs();
  auto* self = static_cast<AnswerSink*>(cookie);
  self->chunks_.push_back({t, std::string(buf, size)});
  return static_cast<ssize_t>(size);
}

std::vector<AnswerLine> AnswerSink::Lines() {
  std::fflush(file_);
  std::vector<AnswerLine> lines;
  std::string partial;
  for (const AnswerLine& chunk : chunks_) {
    for (char c : chunk.text) {
      if (c == '\n') {
        lines.push_back({chunk.t_ns, std::move(partial)});
        partial.clear();
      } else {
        partial.push_back(c);
      }
    }
  }
  return lines;
}

CheckResult CheckAnswers(const std::vector<Expected>& expected,
                         const std::vector<AnswerLine>& lines) {
  CheckResult r;
  r.attempted = expected.size();
  r.latency_ms.assign(expected.size(), -1.0);
  std::map<std::pair<std::string, uint64_t>, size_t> index;
  for (size_t i = 0; i < expected.size(); ++i) {
    index.emplace(std::make_pair(expected[i].label, expected[i].pos), i);
  }
  const std::string kArrow = " components => ";
  for (const AnswerLine& line : lines) {
    const std::string& t = line.text;
    size_t at = t.find('@');
    size_t arrow = t.find(kArrow);
    auto it = index.end();
    if (at != std::string::npos && arrow != std::string::npos && at < arrow) {
      char* end = nullptr;
      uint64_t pos = std::strtoull(t.c_str() + at + 1, &end, 10);
      if (end == t.c_str() + arrow) {
        it = index.find(std::make_pair(t.substr(0, at), pos));
      }
    }
    if (it == index.end() || r.latency_ms[it->second] >= 0) {
      // Answers no query asked (or answers one twice).
      ++r.attempted;
      ++r.failed;
      continue;
    }
    const Expected& q = expected[it->second];
    r.latency_ms[it->second] =
        static_cast<double>(line.t_ns - q.asked_ns) / 1e6;
    const std::string answer = t.substr(arrow + kArrow.size());
    if (answer != std::to_string(q.components)) ++r.failed;
  }
  for (double ms : r.latency_ms) {
    if (ms < 0) ++r.failed;
  }
  return r;
}

}  // namespace perfbench
