// Self-test of the benchmark: pins the generated streams and proves that
// a wrong or error answer is counted as a failed operation.
//
//   ctest --test-dir .bench_build/perfbench
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/answers.h"
#include "src/reference.h"
#include "src/streams.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

// Digests of the three shapes at n = 1024, 100000 tokens, seed 7. A change
// here changes what every workload measures; it needs a new baseline.
void StreamDigestsArePinned() {
  CHECK(StreamDigest(UniformStream(1024, 100000, 7)) ==
        0xeeb8edd7d4f7bd9fULL);
  CHECK(StreamDigest(HotspotStream(1024, 100000, 7)) ==
        0x5fa69ad3c3f15f1dULL);
  CHECK(StreamDigest(SlidingStream(1024, 100000, 7)) ==
        0x32d3f267867a38dbULL);
}

void SameSeedSameInputs() {
  for (const auto& w : Workloads()) {
    Shape shape;
    shape.nodes = 64;
    shape.tokens = 5000;
    shape.query_every = 1000;
    Inputs a = MakeInputs(w.kind, shape, 3);
    Inputs b = MakeInputs(w.kind, shape, 3);
    Inputs c = MakeInputs(w.kind, shape, 4);
    CHECK(a.order == b.order && a.exact == b.exact);
    CHECK(StreamDigest(a.streams[0]) == StreamDigest(b.streams[0]));
    CHECK(StreamDigest(a.streams[0]) != StreamDigest(c.streams[0]));
  }
}

void ShapesHaveTheirProperties() {
  // Uniform: ~10% deletions. Hotspot: one endpoint is a hub, all inserts.
  // Sliding: the first deletion comes after a window of tokens/8 arrivals.
  auto uniform = UniformStream(1024, 100000, 1);
  size_t deletions = 0;
  for (const Token& t : uniform) deletions += t.delta < 0;
  CHECK(deletions > 8000 && deletions < 12000);
  for (const Token& t : HotspotStream(1024, 100000, 1)) {
    CHECK(t.delta == 1 && (t.u < 64 || t.v < 64));
  }
  auto sliding = SlidingStream(1024, 80000, 1);
  size_t first_delete = 0;
  while (sliding[first_delete].delta > 0) ++first_delete;
  CHECK(first_delete == 10000);
  auto order = Interleave({3, 5}, 1);
  size_t ones = 0;
  for (uint8_t k : order) ones += k;
  CHECK(order.size() == 8 && ones == 5);
}

void ReferenceCountsComponents() {
  // Path 0-1-2, then edge 1-2 deleted: {0,1} {2} {3}.
  std::vector<Token> s = {{0, 1, 1}, {1, 2, 1}, {2, 1, 1}, {1, 2, -2}};
  auto c = ExactComponents(4, s, {0, 2, 4});
  CHECK(c == (std::vector<uint64_t>{4, 2, 3}));
}

void CheckerCountsWrongAndErrorAnswers() {
  std::vector<Expected> asked = {{"s0", 10, 3, 0}, {"s1", 10, 1, 0}};
  std::vector<AnswerLine> good = {{2000000, "s0@10 components => 3"},
                                  {3000000, "s1@10 components => 1"}};
  CheckResult r = CheckAnswers(asked, good);
  CHECK(r.attempted == 2 && r.failed == 0);
  CHECK(r.latency_ms == (std::vector<double>{2.0, 3.0}));
  auto wrong = good;
  wrong[1].text = "s1@10 components => 2";
  CHECK(CheckAnswers(asked, wrong).failed == 1);
  auto error = good;
  error[0].text = "s0@10 components => error: decode failed";
  CHECK(CheckAnswers(asked, error).failed == 1);
  auto missing = good;
  missing.pop_back();
  CHECK(CheckAnswers(asked, missing).failed == 1);
}

// The real repetition on a small input: every answer checks out, and
// corrupting one emitted answer makes exactly that one fail.
void RepCountsACorruptedAnswerAsFailed() {
  for (const auto& w : Workloads()) {
    Shape shape;
    shape.nodes = 64;
    shape.tokens = 20000;
    shape.query_every = 2000;
    Inputs in = MakeInputs(w.kind, shape, 5);
    RepResult clean = RunRep(in, nullptr, 0);
    CHECK(clean.failed == 0);
    CHECK(clean.attempted == in.positions[0].size() * in.streams.size());
    CHECK(clean.latency_ms.size() == clean.attempted);
    CHECK(clean.tokens == in.Tokens() && clean.ingest_s > 0);

    Tracer tracer;
    RepResult corrupted =
        RunRep(in, &tracer, 1, [](std::vector<AnswerLine>* lines) {
          std::string& text = lines->back().text;
          text.back() = text.back() == '9' ? '8' : '9';
        });
    CHECK(corrupted.attempted == clean.attempted);
    CHECK(corrupted.failed == 1);
    size_t decodes = 0;
    for (const Span& s : tracer.Snapshot()) {
      CHECK(s.end_ns >= s.start_ns);
      decodes += std::string(s.name) == "core.decode";
    }
    CHECK(decodes + corrupted.eager_answered == corrupted.answered);
  }
}

void SelfTimeSubtractsChildren() {
  std::vector<Span> spans(3);
  spans[0].start_ns = 0;
  spans[0].end_ns = 100;
  spans[1] = {"a", "", 10, 40, 0, 0, 0};
  spans[2] = {"b", "", 30, 60, 0, 0, 0};
  auto self = SelfTimes(spans);
  CHECK(self[0] == 50 && self[1] == 30 && self[2] == 30);
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  StreamDigestsArePinned();
  SameSeedSameInputs();
  ShapesHaveTheirProperties();
  ReferenceCountsComponents();
  CheckerCountsWrongAndErrorAnswers();
  RepCountsACorruptedAnswerAsFailed();
  SelfTimeSubtractsChildren();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
