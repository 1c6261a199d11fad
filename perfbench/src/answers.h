// Capturing and checking the answers the program emits.
//
// QueryEngine writes each answer to its output FILE* and flushes once per
// answer. AnswerSink hands it a FILE* whose write callback stamps every
// flushed chunk with the steady clock, so an answer's latency ends when
// the engine emits it, with no file system involved.
#ifndef PERFBENCH_SRC_ANSWERS_H_
#define PERFBENCH_SRC_ANSWERS_H_

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// One emitted answer line and the time it was written.
struct AnswerLine {
  int64_t t_ns = 0;
  std::string text;
};

/// A write-only FILE* that timestamps each write. The FILE* may be written
/// from one thread at a time; Lines() must happen after the last write
/// (e.g. after QueryEngine::Finish joined the engine thread).
class AnswerSink {
 public:
  AnswerSink();
  ~AnswerSink();
  AnswerSink(const AnswerSink&) = delete;
  AnswerSink& operator=(const AnswerSink&) = delete;

  std::FILE* file() { return file_; }

  /// Flushes the FILE* and returns every complete line written, each with
  /// the time of the write that completed it.
  std::vector<AnswerLine> Lines();

 private:
  static ssize_t Write(void* cookie, const char* buf, size_t size);

  std::vector<AnswerLine> chunks_;
  std::FILE* file_;
};

/// A query the benchmark asked: which session (label, empty for an
/// unlabeled engine answer) at which stream position, the exact answer,
/// and when the producer had pushed that position.
struct Expected {
  std::string label;
  uint64_t pos = 0;
  uint64_t components = 0;
  int64_t asked_ns = 0;
};

struct CheckResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Answer latency in ms per entry of `expected`; -1 where none came.
  std::vector<double> latency_ms;
};

/// Matches answer lines of the form "<label>@<pos> components => <n>" to
/// the queries asked. Every query is an operation; it fails when its
/// answer is missing, starts with "error:", or differs from the exact
/// count. A line that answers no query asked is a failed operation too.
CheckResult CheckAnswers(const std::vector<Expected>& expected,
                         const std::vector<AnswerLine>& lines);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ANSWERS_H_
