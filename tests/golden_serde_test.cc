// Golden-file wire-format tests: committed GSKB stream and GSKC checkpoint
// fixtures under tests/data/ must keep parsing with today's readers. These
// fixtures were produced by the v1 writers (gsketch_cli convert /
// checkpoint, seed 42); if this test breaks, the wire format drifted —
// bump the format version and keep reading v1, don't regenerate the
// fixtures to paper over it. Every registered family's payload is pinned
// as well, by size and FNV-1a digest rather than by file
// (docs/TESTING.md, "Payload digests").
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>

#include "src/core/sparsifier.h"
#include "src/driver/binary_stream.h"
#include "src/driver/checkpoint.h"
#include "src/graph/generators.h"
#include "src/workload/stream_generator.h"

#ifndef GSKETCH_TEST_DATA_DIR
#error "GSKETCH_TEST_DATA_DIR must be defined (see CMakeLists.txt)"
#endif

namespace gsketch {
namespace {

std::string DataPath(const char* name) {
  return std::string(GSKETCH_TEST_DATA_DIR) + "/" + name;
}

// The fixture stream (tests/data/golden_stream.txt): n=8, 12 updates, edge
// (2,6) inserted then deleted; final graph is one ring-like component.
constexpr NodeId kGoldenN = 8;
constexpr uint64_t kGoldenUpdates = 12;
constexpr uint64_t kGoldenCheckpointPos = 7;

TEST(GoldenSerde, BinaryStreamFixtureParses) {
  auto s = ReadBinaryStream(DataPath("golden_stream.gskb"));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->NumNodes(), kGoldenN);
  ASSERT_EQ(s->Size(), kGoldenUpdates);

  // Spot-check pinned records: first, the one deletion, and last.
  EXPECT_EQ(s->Updates()[0].u, 0u);
  EXPECT_EQ(s->Updates()[0].v, 1u);
  EXPECT_EQ(s->Updates()[0].delta, 1);
  EXPECT_EQ(s->Updates()[7].u, 2u);
  EXPECT_EQ(s->Updates()[7].v, 6u);
  EXPECT_EQ(s->Updates()[7].delta, -1);
  EXPECT_EQ(s->Updates()[11].u, 0u);
  EXPECT_EQ(s->Updates()[11].v, 7u);
  EXPECT_EQ(s->Updates()[11].delta, 1);

  // The header+record layout is pinned: 20-byte header, 12-byte records.
  BinaryStreamReader r(DataPath("golden_stream.gskb"));
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.nodes(), kGoldenN);
  EXPECT_EQ(r.num_updates(), kGoldenUpdates);
}

TEST(GoldenSerde, CheckpointFixtureParsesAndResumes) {
  std::string error;
  auto ckpt = ReadCheckpointFile(DataPath("golden_connectivity.gskc"),
                                 &error);
  ASSERT_TRUE(ckpt.has_value()) << error;
  EXPECT_EQ(ckpt->alg, CheckpointAlg::kConnectivity);
  EXPECT_EQ(ckpt->stream_pos, kGoldenCheckpointPos);
  // The v1 fixture predates header flags; its reserved-zero field must
  // read back as "plain prefix checkpoint".
  EXPECT_EQ(ckpt->flags, 0u);

  auto sk = RestoreSketch(*ckpt, &error);
  ASSERT_NE(sk, nullptr) << error;
  EXPECT_EQ(sk->Tag(), CheckpointAlg::kConnectivity);
  EXPECT_EQ(sk->num_nodes(), kGoldenN);

  // Restoration is lossless: re-serializing reproduces the payload bytes.
  std::string reserialized;
  sk->AppendTo(&reserialized);
  EXPECT_EQ(reserialized, ckpt->payload);

  // Resume against the committed stream: final answer matches the
  // uninterrupted run recorded when the fixture was made (one connected
  // component).
  auto s = ReadBinaryStream(DataPath("golden_stream.gskb"));
  ASSERT_TRUE(s.has_value());
  for (size_t i = ckpt->stream_pos; i < s->Size(); ++i) {
    const auto& e = s->Updates()[i];
    sk->Update(e.u, e.v, e.delta);
  }
  char buf[256] = {0};
  std::FILE* mem = fmemopen(buf, sizeof(buf) - 1, "w");
  ASSERT_NE(mem, nullptr);
  sk->PrintAnswer(mem);
  std::fclose(mem);
  EXPECT_STREQ(buf, "components: 1\nconnected:  yes\n");
}

TEST(GoldenSerde, MergedFixtureEqualsShardMergeOfTheGoldenStream) {
  // tests/data/golden_merged_r3.gskc is the `gsketch shard --shards 2` +
  // `merge` product over the golden stream at seed 42 — the exact bytes
  // the CLI must keep reproducing (the CI smoke job diffs against it). It
  // was written at kConnectivityRepetitions ℓ₀ repetitions; the older
  // golden_merged.gskc, written at 6, must keep reading, answering and
  // matching a 6-repetition rebuild. Each payload equals the full-stream
  // connectivity sketch (linearity); each envelope carries the shard flag
  // with full-stream coverage, so `resume` accepts it and replays
  // nothing. Rebuild both here from shards through the library API.
  auto s = ReadBinaryStream(DataPath("golden_stream.gskb"));
  ASSERT_TRUE(s.has_value());
  const AlgInfo* info = FindAlg(CheckpointAlg::kConnectivity);
  ASSERT_NE(info, nullptr);
  AlgOptions six;
  six.forest.repetitions = 6;
  for (const auto& [name, opt] :
       {std::pair<const char*, AlgOptions>{"golden_merged_r3.gskc", {}},
        {"golden_merged.gskc", six}}) {
    SCOPED_TRACE(name);
    std::string error;
    auto fixture = ReadCheckpointFile(DataPath(name), &error);
    ASSERT_TRUE(fixture.has_value()) << error;
    EXPECT_EQ(fixture->alg, CheckpointAlg::kConnectivity);
    EXPECT_EQ(fixture->stream_pos, kGoldenUpdates);
    EXPECT_EQ(fixture->flags, kCheckpointFlagShard);

    std::unique_ptr<LinearSketch> merged;
    constexpr size_t kShards = 2;
    for (size_t j = 0; j < kShards; ++j) {
      auto site = info->make(kGoldenN, opt, /*seed=*/42);
      for (size_t i = j; i < s->Size(); i += kShards) {
        const auto& e = s->Updates()[i];
        site->Update(e.u, e.v, e.delta);
      }
      if (merged == nullptr) {
        merged = std::move(site);
      } else {
        ASSERT_TRUE(merged->Merge(*site, &error)) << error;
      }
    }
    std::string bytes;
    merged->AppendTo(&bytes);
    EXPECT_EQ(bytes, fixture->payload);

    auto restored = RestoreSketch(*fixture, &error);
    ASSERT_NE(restored, nullptr) << error;
    EXPECT_EQ(AnswerString(*restored), "components: 1\nconnected:  yes\n");
  }
}

TEST(GoldenSerde, WideDeltaFixtureKeepsItsSplitRecords) {
  // tests/data/golden_wide_delta.gskb: four text updates whose deltas
  // exceed the i32 wire range, written by `gsketch_cli convert` as 8
  // records — each wide delta split into maximal i32 chunks. The split
  // layout is part of the wire format: these exact chunk values must keep
  // parsing (and re-summing) forever.
  const char* path_name = "golden_wide_delta.gskb";
  BinaryStreamReader r(DataPath(path_name));
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.nodes(), 4u);
  EXPECT_EQ(r.num_updates(), 8u);

  auto s = ReadBinaryStream(DataPath(path_name));
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->Size(), 8u);
  // Pinned chunks: +5000000000 on (0,1) and +4000000000 - 3000000000 on
  // (0,2), i32-clamped greedily, then one plain record.
  const int64_t want[8][3] = {
      {0, 1, 2147483647}, {0, 1, 2147483647}, {0, 1, 705032706},
      {0, 2, 2147483647}, {0, 2, 1852516353}, {0, 2, -2147483648LL},
      {0, 2, -852516352}, {1, 2, 1},
  };
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(s->Updates()[i].u, static_cast<NodeId>(want[i][0])) << i;
    EXPECT_EQ(s->Updates()[i].v, static_cast<NodeId>(want[i][1])) << i;
    EXPECT_EQ(s->Updates()[i].delta, want[i][2]) << i;
  }
  // The chunks re-sum to the exact original wide multiplicities.
  Graph g = s->Materialize();
  ASSERT_EQ(g.NumEdges(), 3u);
  double w01 = 0, w02 = 0;
  for (const auto& e : g.Edges()) {
    if (e.u == 0 && e.v == 1) w01 = e.weight;
    if (e.u == 0 && e.v == 2) w02 = e.weight;
  }
  EXPECT_EQ(w01, 5000000000.0);
  EXPECT_EQ(w02, 1000000000.0);
}

TEST(GoldenSerde, GeneratorFixtureLocksWorkloadDeterminism) {
  // tests/data/golden_gen_churn.gskb is `gsketch_cli gen churn 24 600
  // <path> 505`. Regenerating the same profile through the library must
  // reproduce the committed bytes exactly — this pins the generator's
  // output across platforms and refactors, and is what lets a failing
  // differential seed be re-created from its printed repro command years
  // later. (CI additionally re-runs the CLI and cmp's against this file.)
  const WorkloadProfile* p = FindWorkloadProfile("churn");
  ASSERT_NE(p, nullptr);
  DynamicGraphStream s = p->generate(/*n=*/24, /*updates=*/600,
                                     /*seed=*/505);
  std::string fresh_path = testing::TempDir() + "golden_gen_churn_fresh.gskb";
  ASSERT_TRUE(WriteBinaryStream(fresh_path, s));

  auto slurp = [](const std::string& path) {
    std::string bytes;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return bytes;
    char buf[4096];
    size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.append(buf, got);
    }
    std::fclose(f);
    return bytes;
  };
  std::string golden = slurp(DataPath("golden_gen_churn.gskb"));
  EXPECT_EQ(golden.size(), 20u + 12u * 600u);
  EXPECT_EQ(slurp(fresh_path), golden);
  std::remove(fresh_path.c_str());
}

// FNV-1a 64 over a payload (the hash the GSKC envelope checksums with).
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(GoldenSerde, EveryFamilyPayloadDigestIsPinned) {
  // Every registered family at AlgOptions{} and seed 42, fed the golden
  // stream in order. A round trip still passes when a writer and its
  // reader drift together; these digests do not. They pin digests, not
  // fixture files: mincut's payload alone is 5,972,848 bytes at n = 8.
  // docs/TESTING.md says how to recapture them for an intended format
  // change.
  struct Pinned {
    const char* family;
    size_t bytes;
    uint64_t fnv1a;
  };
  const Pinned kPinned[] = {
      {"connectivity", 18276, 0xd8b64c410113489bULL},
      {"bipartite", 148492, 0x2c135208a83e3eedULL},
      {"mincut", 5972848, 0x372edcd0326a3fe2ULL},
      {"sparsify", 2239888, 0xc1f55fa4b106b505ULL},
      {"triangles", 208960, 0x968e685ffab5c9acULL},
      {"kconnect", 106676, 0x928ec91efd0684a1ULL},
      {"kedge", 106668, 0xf0cd6c6e9d70aa0bULL},
      {"forest", 18272, 0x1b509ceda3faa6d6ULL},
      {"mst", 35572, 0x106bcb1418ed1ec9ULL},
      {"wsparsify", 8959348, 0xa8557606a0d34ec2ULL},
  };
  ASSERT_EQ(std::size(kPinned), Registry().size());
  auto s = ReadBinaryStream(DataPath("golden_stream.gskb"));
  ASSERT_TRUE(s.has_value());
  for (const Pinned& p : kPinned) {
    SCOPED_TRACE(p.family);
    const AlgInfo* info = FindAlg(p.family);
    ASSERT_NE(info, nullptr);
    auto sk = info->make(kGoldenN, AlgOptions{}, /*seed=*/42);
    for (const auto& e : s->Updates()) sk->Update(e.u, e.v, e.delta);
    std::string bytes;
    sk->AppendTo(&bytes);
    const uint64_t fnv1a = Fnv1a64(bytes);
    EXPECT_TRUE(bytes.size() == p.bytes && fnv1a == p.fnv1a)
        << "actual row: {\"" << p.family << "\", " << bytes.size()
        << ", 0x" << std::hex << fnv1a << "ULL},";
  }
}

TEST(GoldenSerde, Fig3SparsifierIsPinnedOnComplete8) {
  // Fig. 3 has no payload yet, so its cell layout and decoded edges are
  // pinned instead. On complete-8 every Gomory–Hu cut of the rough stage
  // is sampled at level 2, so the decoded edges come from the level-2
  // k-RECOVERY banks and exercise the level routing.
  Sparsifier sk(kGoldenN, SparsifierOptions{}, /*seed=*/42);
  for (const auto& e : CompleteGraph(kGoldenN).Edges()) {
    sk.Update(e.u, e.v, 1);
  }
  EXPECT_EQ(sk.CellCount(), 93744u);
  std::string edges;
  for (const auto& e : sk.Extract().Edges()) {
    edges += std::to_string(e.u) + "-" + std::to_string(e.v) + ":" +
             std::to_string(static_cast<int64_t>(e.weight)) + " ";
  }
  EXPECT_EQ(edges, "0-3:4 1-7:4 1-4:4 1-2:4 2-4:4 3-6:4 6-7:4 ");
}

TEST(GoldenSerde, FixtureFormatSniffersAgree) {
  EXPECT_TRUE(LooksLikeBinaryStream(DataPath("golden_stream.gskb")));
  EXPECT_FALSE(LooksLikeBinaryStream(DataPath("golden_connectivity.gskc")));
  EXPECT_TRUE(LooksLikeCheckpoint(DataPath("golden_connectivity.gskc")));
  EXPECT_FALSE(LooksLikeCheckpoint(DataPath("golden_stream.gskb")));
}

}  // namespace
}  // namespace gsketch
