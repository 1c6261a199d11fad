// Tests for the query-while-ingest serving subsystem
// (src/driver/snapshot.h) and the Clone/Query surface of the LinearSketch
// contract it is built on.
//
// The load-bearing property is SNAPSHOT CONSISTENCY: a snapshot taken
// mid-ingest through the drain barrier must be byte-identical — sketch
// state and decoded answers — to stopping ingestion at the same stream
// position and querying. Linearity guarantees it; these tests prove it
// for every registered family, including gutter-buffered and
// multi-worker ingestion, and prove snapshots stay immutable while
// ingestion races past them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/sketch_registry.h"
#include "src/driver/sketch_driver.h"
#include "src/driver/snapshot.h"
#include "src/graph/generators.h"
#include "src/graph/stream.h"
#include "src/hash/random.h"

namespace gsketch {
namespace {

constexpr NodeId kN = 16;
constexpr uint64_t kSeed = 9;

// A stream with deletions, shuffled into adversarial order.
DynamicGraphStream TestStream(uint64_t seed) {
  Rng rng(seed);
  Graph g = ErdosRenyi(kN, 0.35, seed);
  DynamicGraphStream s = DynamicGraphStream::FromGraph(g);
  return s.WithChurn(/*extra=*/s.Size() / 3 + 4, &rng).Shuffled(&rng);
}

std::string Bytes(const LinearSketch& sk) {
  std::string out;
  sk.AppendTo(&out);
  return out;
}

std::string MustQuery(const LinearSketch& sk, const std::string& q) {
  std::string out, error;
  EXPECT_TRUE(sk.Query(q, &out, &error)) << q << ": " << error;
  return out;
}

// --------------------------------------------- Clone/Query contract --

TEST(LinearSketchContract, CloneIsDeepAndByteIdentical) {
  DynamicGraphStream s = TestStream(3);
  auto sk = FindAlg("connectivity")->make(kN, AlgOptions{}, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) { sk->Update(u, v, d); });

  auto clone = sk->Clone();
  EXPECT_EQ(Bytes(*sk), Bytes(*clone));
  // Deep: further updates to the original leave the clone untouched.
  const std::string frozen = Bytes(*clone);
  sk->Update(0, 1, +1);
  sk->Update(2, 3, -1);
  EXPECT_EQ(Bytes(*clone), frozen);
  EXPECT_NE(Bytes(*sk), frozen);
  // And the clone answers queries on its own.
  EXPECT_EQ(MustQuery(*clone, "answer"), AnswerString(*clone));
}

TEST(LinearSketchContract, EveryFamilyAnswersCommonAndFamilyVerbs) {
  const std::map<std::string, std::string> family_verb = {
      {"connectivity", "components"}, {"bipartite", "bipartite"},
      {"mincut", "mincut"},           {"sparsify", "sparsifier"},
      {"triangles", "gamma triangle"}, {"kconnect", "kconnected"},
      {"kedge", "witness"},           {"forest", "forest"},
      {"mst", "mstweight"},           {"wsparsify", "sparsifier"},
  };
  DynamicGraphStream s = TestStream(5);
  for (const AlgInfo& info : Registry()) {
    SCOPED_TRACE(info.name);
    auto sk = info.make(kN, AlgOptions{}, kSeed);
    s.Replay([&](NodeId u, NodeId v, int64_t d) { sk->Update(u, v, d); });
    // Common verbs work everywhere; "answer" matches PrintAnswer exactly.
    EXPECT_EQ(MustQuery(*sk, "answer"), AnswerString(*sk));
    EXPECT_EQ(MustQuery(*sk, "describe"), sk->Describe());
    EXPECT_EQ(MustQuery(*sk, "cells"), std::to_string(sk->CellCount()));
    // The family verb answers non-empty.
    auto it = family_verb.find(info.name);
    ASSERT_NE(it, family_verb.end());
    EXPECT_FALSE(MustQuery(*sk, it->second).empty());
    // Unknown verbs fail with the vocabulary in the error.
    std::string out, error;
    EXPECT_FALSE(sk->Query("bogusverb", &out, &error));
    EXPECT_NE(error.find("supported:"), std::string::npos) << error;
  }
}

TEST(LinearSketchContract, ConnectedQueryDecodesPairConnectivity) {
  // Two components by construction: {0,1,2} and {3,4}.
  auto sk = FindAlg("connectivity")->make(8, AlgOptions{}, kSeed);
  sk->Update(0, 1, +1);
  sk->Update(1, 2, +1);
  sk->Update(3, 4, +1);
  EXPECT_EQ(MustQuery(*sk, "connected 0 2"), "yes");
  EXPECT_EQ(MustQuery(*sk, "connected 3 4"), "yes");
  EXPECT_EQ(MustQuery(*sk, "connected 0 3"), "no");
  EXPECT_EQ(MustQuery(*sk, "connected 5 6"), "no");
  std::string out, error;
  EXPECT_FALSE(sk->Query("connected 0 99", &out, &error));  // >= n
  EXPECT_FALSE(sk->Query("connected 0", &out, &error));
}

// ------------------------------------------ query-under-ingest parity --

// For every registered family: interleave PublishSnapshot() captures with
// ongoing ingestion and assert each snapshot — sketch bytes AND decoded
// answer — is byte-identical to a drain-then-query run truncated at the
// same stream_pos. Covers single- and multi-worker ingestion at one-entry,
// small, and default gutter sizes.
TEST(SnapshotParity, QueryUnderIngestMatchesDrainThenQueryAllFamilies) {
  DynamicGraphStream s = TestStream(7);
  const uint64_t t = s.Size();
  const std::vector<uint64_t> cuts = {t / 4, t / 2, 3 * t / 4, t};

  struct Config {
    uint32_t threads;
    size_t gutter_bytes;
  };
  const std::vector<Config> configs = {{1, 12}, {3, 64}, {1, 4096},
                                       {3, 4096}};

  for (const AlgInfo& info : Registry()) {
    SCOPED_TRACE(info.name);
    // Drain-then-query references, one per cut position.
    std::map<uint64_t, std::string> ref_bytes, ref_answer;
    {
      auto ref = info.make(kN, AlgOptions{}, kSeed);
      uint64_t pos = 0;
      for (uint64_t cut : cuts) {
        for (; pos < cut; ++pos) {
          const auto& e = s.Updates()[pos];
          ref->Update(e.u, e.v, e.delta);
        }
        ref_bytes[cut] = Bytes(*ref);
        ref_answer[cut] = AnswerString(*ref);
      }
    }

    for (const Config& cfg : configs) {
      if (cfg.threads > 1 && !info.endpoint_sharded) continue;
      SCOPED_TRACE("threads=" + std::to_string(cfg.threads) +
                   " gutter=" + std::to_string(cfg.gutter_bytes));
      auto sk = info.make(kN, AlgOptions{}, kSeed);
      DriverOptions opt;
      opt.num_workers = cfg.threads;
      opt.gutter_bytes = cfg.gutter_bytes;
      SketchDriver<LinearSketch> driver(sk.get(), opt);
      SnapshotStore store;

      size_t ci = 0;
      for (uint64_t pos = 0; pos <= t; ++pos) {
        while (ci < cuts.size() && cuts[ci] == pos) {
          auto snap = PublishSnapshot(&driver, &store);
          ASSERT_NE(snap, nullptr);
          EXPECT_EQ(snap->stream_pos, pos);
          EXPECT_EQ(Bytes(*snap->sketch), ref_bytes[pos]) << "pos=" << pos;
          EXPECT_EQ(MustQuery(*snap->sketch, "answer"), ref_answer[pos])
              << "pos=" << pos;
          ++ci;
        }
        if (pos == t) break;
        const auto& e = s.Updates()[pos];
        driver.Push(e.u, e.v, e.delta);
      }
      EXPECT_EQ(ci, cuts.size());
    }
  }
}

TEST(SnapshotParity, PinnedSnapshotImmuneToFurtherIngest) {
  DynamicGraphStream s = TestStream(11);
  const uint64_t cut = s.Size() / 2;

  auto ref = FindAlg("forest")->make(kN, AlgOptions{}, kSeed);
  for (uint64_t i = 0; i < cut; ++i) {
    const auto& e = s.Updates()[i];
    ref->Update(e.u, e.v, e.delta);
  }
  const std::string ref_prefix = Bytes(*ref);

  auto sk = FindAlg("forest")->make(kN, AlgOptions{}, kSeed);
  DriverOptions opt;
  opt.num_workers = 2;
  opt.gutter_bytes = 64;
  SketchDriver<LinearSketch> driver(sk.get(), opt);
  SnapshotStore store;

  std::shared_ptr<const SketchSnapshot> pinned;
  for (uint64_t i = 0; i < s.Size(); ++i) {
    if (i == cut) pinned = PublishSnapshot(&driver, &store);
    const auto& e = s.Updates()[i];
    driver.Push(e.u, e.v, e.delta);
  }
  driver.Drain();
  auto final_snap = PublishSnapshot(&driver, &store);

  // The pinned mid-stream snapshot still serializes to the prefix state
  // even though ingestion ran to the end, and the store's latest moved on.
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->stream_pos, cut);
  EXPECT_EQ(Bytes(*pinned->sketch), ref_prefix);
  EXPECT_EQ(store.Latest()->stream_pos, s.Size());
  EXPECT_EQ(final_snap->stream_pos, s.Size());
  EXPECT_NE(Bytes(*final_snap->sketch), ref_prefix);
  EXPECT_EQ(store.published(), 2u);
}

// ------------------------------------------------- eager fast path --

// Insert-only prefix: snapshots carry an exact eager cut whose answers
// agree with sketch decode on every query both can serve. The first
// forest-edge deletion drops the cut from all later snapshots —
// permanently — and the sketch path takes over with correct answers.
TEST(SnapshotParity, EagerCutHandsOverToSketchAfterFirstDeletion) {
  auto sk = FindAlg("connectivity")->make(kN, AlgOptions{}, kSeed);
  DriverOptions opt;
  opt.eager_connectivity = true;
  SketchDriver<LinearSketch> driver(sk.get(), opt);
  SnapshotStore store;

  // Insert-only prefix: the path 0-1-...-7 plus an isolated pair.
  for (NodeId i = 0; i + 1 < 8; ++i) driver.Push(i, i + 1, +1);
  driver.Push(10, 11, +1);
  auto snap = PublishSnapshot(&driver, &store);
  ASSERT_NE(snap->eager, nullptr);
  const AlgTag tag = snap->sketch->Tag();
  for (const char* q :
       {"components", "connected 0 7", "connected 0 10", "connected 10 11"}) {
    auto eager = EagerAnswer(*snap->eager, tag, q);
    ASSERT_TRUE(eager.has_value()) << q;
    EXPECT_EQ(*eager, MustQuery(*snap->sketch, q)) << q;
  }
  // Shapes the cut cannot serve fall through to the sketch path —
  // including malformed node arguments, so error text stays identical.
  EXPECT_FALSE(EagerAnswer(*snap->eager, tag, "answer").has_value());
  EXPECT_FALSE(EagerAnswer(*snap->eager, tag, "connected 0 99").has_value());

  // Deleting a non-forest duplicate keeps the fast path alive.
  driver.Push(0, 1, +1);
  driver.Push(0, 1, -1);
  snap = PublishSnapshot(&driver, &store);
  EXPECT_NE(snap->eager, nullptr);

  // Deleting a forest edge hands queries over to the sketch: the cut is
  // gone and decode reports the true split partition.
  driver.Push(3, 4, -1);
  snap = PublishSnapshot(&driver, &store);
  EXPECT_EQ(snap->eager, nullptr);
  EXPECT_EQ(MustQuery(*snap->sketch, "connected 0 3"), "yes");
  EXPECT_EQ(MustQuery(*snap->sketch, "connected 3 4"), "no");
  EXPECT_EQ(MustQuery(*snap->sketch, "connected 4 7"), "yes");

  // The handover is one-way: re-inserting the edge does not resurrect
  // the eager path, and the sketch keeps answering correctly.
  driver.Push(3, 4, +1);
  snap = PublishSnapshot(&driver, &store);
  EXPECT_EQ(snap->eager, nullptr);
  EXPECT_EQ(MustQuery(*snap->sketch, "connected 3 4"), "yes");
}

// -------------------------------------------------------- QueryEngine --

TEST(QueryEngine, AnswersInOrderWithStreamPositions) {
  auto sk = FindAlg("connectivity")->make(8, AlgOptions{}, kSeed);
  sk->Update(0, 1, +1);
  SnapshotStore store;
  auto early = store.Publish(1, sk->Clone());
  sk->Update(1, 2, +1);
  store.Publish(2, sk->Clone());

  char* buf = nullptr;
  size_t len = 0;
  std::FILE* out = open_memstream(&buf, &len);
  ASSERT_NE(out, nullptr);
  {
    QueryEngine engine(&store, out);
    engine.Submit("", "components", early);  // pinned to stream_pos 1
    engine.Submit("components");  // latest: stream_pos 2
    engine.Submit("bogus");       // error, still in order
    engine.Finish();
    EXPECT_EQ(engine.answered(), 3u);
    EXPECT_EQ(engine.errors(), 1u);
  }
  std::fclose(out);
  std::string text(buf, len);
  std::free(buf);
  EXPECT_EQ(text,
            "@1 components => 7\n"
            "@2 components => 6\n"
            "@2 bogus => error: unknown query 'bogus'; supported: "
            "answer, describe, cells, components, connected [u v]\n");
}

TEST(QueryEngine, BeforeFirstSnapshotReportsNoSnapshot) {
  SnapshotStore store;
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* out = open_memstream(&buf, &len);
  ASSERT_NE(out, nullptr);
  {
    QueryEngine engine(&store, out);
    engine.Submit("components");
    engine.Finish();
    EXPECT_EQ(engine.answered(), 1u);
    EXPECT_EQ(engine.errors(), 1u);
  }
  std::fclose(out);
  std::string text(buf, len);
  std::free(buf);
  EXPECT_EQ(text, "@- components => error: no snapshot yet\n");
}

// A query thread hammering the engine while the ingest thread pushes and
// publishes: no lost queries, every answer well-formed. (ASan/TSan-ish
// smoke; the CI sanitizer job runs this under ASan+UBSan.)
TEST(QueryEngine, ConcurrentQueriesDuringIngest) {
  DynamicGraphStream s = TestStream(13);
  constexpr int kQueries = 64;

  auto sk = FindAlg("connectivity")->make(kN, AlgOptions{}, kSeed);
  DriverOptions opt;
  opt.num_workers = 2;
  opt.gutter_bytes = 64;
  SketchDriver<LinearSketch> driver(sk.get(), opt);
  SnapshotStore store;

  char* buf = nullptr;
  size_t len = 0;
  std::FILE* out = open_memstream(&buf, &len);
  ASSERT_NE(out, nullptr);
  {
    QueryEngine engine(&store, out);
    std::thread asker([&engine] {
      for (int i = 0; i < kQueries; ++i) engine.Submit("components");
    });
    uint64_t pos = 0;
    for (const auto& e : s.Updates()) {
      if (pos % 16 == 0) PublishSnapshot(&driver, &store);
      driver.Push(e.u, e.v, e.delta);
      ++pos;
    }
    asker.join();
    PublishSnapshot(&driver, &store);
    engine.Finish();
    EXPECT_EQ(engine.answered(), uint64_t{kQueries});
  }
  std::fclose(out);
  std::string text(buf, len);
  std::free(buf);
  // Every line is "@<pos> components => <count>" or the no-snapshot
  // error; counts are in [1, kN].
  size_t lines = 0;
  std::istringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) {
    ++lines;
    EXPECT_EQ(line.rfind("@", 0), 0u) << line;
    EXPECT_NE(line.find("components =>"), std::string::npos) << line;
  }
  EXPECT_EQ(lines, size_t{kQueries});
}

}  // namespace
}  // namespace gsketch
