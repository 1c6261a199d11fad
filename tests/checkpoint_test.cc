// Tests for the GSKC checkpoint subsystem (src/driver/checkpoint.h):
// snapshot mid-stream, restore, finish the stream, and land in a state
// bit-identical to an uninterrupted run — for EVERY registered algorithm
// family (the registry's generic Save/Restore replaced the historical
// per-algorithm overloads) — plus clean errors on corrupt or truncated
// checkpoint files.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "src/core/sketch_registry.h"
#include "src/driver/checkpoint.h"
#include "src/driver/sketch_driver.h"
#include "src/graph/generators.h"
#include "src/graph/stream.h"
#include "src/hash/random.h"

namespace gsketch {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// A stream with deletions: an Erdos-Renyi graph plus churn, shuffled so
// updates arrive in adversarial order (mirrors driver_test.cc).
DynamicGraphStream TestStream(NodeId n, double p, uint64_t seed) {
  Rng rng(seed);
  Graph g = ErdosRenyi(n, p, seed);
  DynamicGraphStream s = DynamicGraphStream::FromGraph(g);
  return s.WithChurn(/*extra=*/s.Size() / 4 + 5, &rng).Shuffled(&rng);
}

void ApplyRange(LinearSketch* sk, const DynamicGraphStream& s, size_t from,
                size_t to) {
  const auto& ups = s.Updates();
  for (size_t i = from; i < to; ++i) {
    sk->Update(ups[i].u, ups[i].v, ups[i].delta);
  }
}

std::string Bytes(const LinearSketch& sk) {
  std::string out;
  sk.AppendTo(&out);
  return out;
}

// Checkpoint at half, restore, replay the rest: every registered family
// must land byte-identical to the uninterrupted run. This is the
// acceptance gate for "every algorithm gets checkpoint/resume by
// registering once".
TEST(Checkpoint, EveryRegisteredAlgResumesBitIdentical) {
  constexpr NodeId kN = 24;
  constexpr uint64_t kSeed = 7;
  DynamicGraphStream s = TestStream(kN, 0.25, 19);
  size_t half = s.Size() / 2;

  for (const AlgInfo& info : Registry()) {
    SCOPED_TRACE(info.name);
    std::string path = TempPath((std::string(info.name) + ".gskc").c_str());
    AlgOptions opt;

    auto uninterrupted = info.make(kN, opt, kSeed);
    ApplyRange(uninterrupted.get(), s, 0, s.Size());

    auto prefix = info.make(kN, opt, kSeed);
    ApplyRange(prefix.get(), s, 0, half);
    std::string error;
    ASSERT_TRUE(SaveCheckpoint(path, *prefix, half, &error)) << error;

    auto ckpt = ReadCheckpointFile(path, &error);
    ASSERT_TRUE(ckpt.has_value()) << error;
    EXPECT_EQ(ckpt->alg, info.tag);
    EXPECT_EQ(ckpt->stream_pos, half);

    auto restored = RestoreSketch(*ckpt, &error);
    ASSERT_NE(restored, nullptr) << error;
    EXPECT_EQ(restored->Tag(), info.tag);
    EXPECT_EQ(restored->num_nodes(), kN);
    ApplyRange(restored.get(), s, ckpt->stream_pos, s.Size());

    // Bit-identical final state, hence identical answers.
    EXPECT_EQ(Bytes(*restored), Bytes(*uninterrupted));
    std::remove(path.c_str());
  }
}

TEST(Checkpoint, ResumedIngestionMayUseTheParallelDriver) {
  // Restoring and finishing through the sharded driver must agree with the
  // sequential uninterrupted run (linearity, any thread count). The driver
  // now drives the virtual LinearSketch contract directly.
  constexpr NodeId kN = 40;
  constexpr uint64_t kSeed = 23;
  DynamicGraphStream s = TestStream(kN, 0.15, 31);
  size_t cut = s.Size() / 3;
  std::string path = TempPath("conn_driver.gskc");
  const AlgInfo* info = FindAlg("connectivity");
  ASSERT_NE(info, nullptr);

  auto uninterrupted = info->make(kN, AlgOptions{}, kSeed);
  ApplyRange(uninterrupted.get(), s, 0, s.Size());

  auto prefix = info->make(kN, AlgOptions{}, kSeed);
  ApplyRange(prefix.get(), s, 0, cut);
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(path, *prefix, cut, &error)) << error;

  auto ckpt = ReadCheckpointFile(path, &error);
  ASSERT_TRUE(ckpt.has_value()) << error;
  auto restored = RestoreSketch(*ckpt, &error);
  ASSERT_NE(restored, nullptr) << error;
  {
    DriverOptions opt;
    opt.num_workers = 4;
    opt.gutter_bytes = 64;  // many small flushes
    SketchDriver<LinearSketch> driver(restored.get(), opt);
    const auto& ups = s.Updates();
    for (size_t i = ckpt->stream_pos; i < ups.size(); ++i) {
      driver.Push(ups[i].u, ups[i].v, ups[i].delta);
    }
    driver.Drain();
  }
  EXPECT_EQ(Bytes(*restored), Bytes(*uninterrupted));
  std::remove(path.c_str());
}

TEST(Checkpoint, ShardFlagRoundTripsAndDefaultsToPrefix) {
  // Shard outputs mark themselves non-prefix via the header flags word;
  // plain checkpoints leave it zero (byte-compatible with the
  // reserved-zero field of pre-flag writers).
  constexpr NodeId kN = 16;
  DynamicGraphStream s = TestStream(kN, 0.2, 11);
  auto sk = FindAlg("connectivity")->make(kN, AlgOptions{}, 1);
  ApplyRange(sk.get(), s, 0, s.Size() / 2);

  std::string prefix_path = TempPath("prefix.gskc");
  std::string shard_path = TempPath("shard.gskc");
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(prefix_path, *sk, s.Size() / 2, &error))
      << error;
  ASSERT_TRUE(SaveCheckpoint(shard_path, *sk, s.Size() / 2, &error,
                             kCheckpointFlagShard))
      << error;

  auto prefix = ReadCheckpointFile(prefix_path, &error);
  ASSERT_TRUE(prefix.has_value()) << error;
  EXPECT_EQ(prefix->flags, 0u);
  auto shard = ReadCheckpointFile(shard_path, &error);
  ASSERT_TRUE(shard.has_value()) << error;
  EXPECT_EQ(shard->flags, kCheckpointFlagShard);

  // The flag lives in the envelope, not the payload: both restore to the
  // same sketch bytes.
  EXPECT_EQ(prefix->payload, shard->payload);
  std::remove(prefix_path.c_str());
  std::remove(shard_path.c_str());
}

TEST(Checkpoint, RejectsBadMagic) {
  std::string path = TempPath("notackpt.gskc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("certainly not a checkpoint file", f);
  std::fclose(f);

  std::string error;
  EXPECT_FALSE(ReadCheckpointFile(path, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  EXPECT_FALSE(LooksLikeCheckpoint(path));
  std::remove(path.c_str());
}

std::unique_ptr<LinearSketch> FullStreamConnectivity(
    const DynamicGraphStream& s, NodeId n) {
  auto sk = FindAlg("connectivity")->make(n, AlgOptions{}, 1);
  ApplyRange(sk.get(), s, 0, s.Size());
  return sk;
}

TEST(Checkpoint, RejectsTruncatedFile) {
  constexpr NodeId kN = 16;
  DynamicGraphStream s = TestStream(kN, 0.2, 3);
  auto sk = FullStreamConnectivity(s, kN);
  std::string path = TempPath("truncated.gskc");
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(path, *sk, s.Size(), &error)) << error;
  EXPECT_TRUE(LooksLikeCheckpoint(path));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 37), 0);

  EXPECT_FALSE(ReadCheckpointFile(path, &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsFlippedPayloadByte) {
  constexpr NodeId kN = 16;
  DynamicGraphStream s = TestStream(kN, 0.2, 5);
  auto sk = FullStreamConnectivity(s, kN);
  std::string path = TempPath("bitrot.gskc");
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(path, *sk, s.Size(), &error)) << error;

  // Flip one bit in the middle of the payload.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, size / 2, SEEK_SET);
  int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(byte ^ 0x40, f);
  std::fclose(f);

  EXPECT_FALSE(ReadCheckpointFile(path, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(Checkpoint, RestoreRejectsPayloadUnderWrongTag) {
  // A connectivity payload relabeled as mincut must fail the payload
  // parse, not produce a sketch: the per-family payload magics disagree.
  constexpr NodeId kN = 16;
  DynamicGraphStream s = TestStream(kN, 0.2, 9);
  auto sk = FullStreamConnectivity(s, kN);
  std::string path = TempPath("mismatch.gskc");
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(path, *sk, s.Size(), &error)) << error;

  auto ckpt = ReadCheckpointFile(path, &error);
  ASSERT_TRUE(ckpt.has_value()) << error;
  EXPECT_NE(RestoreSketch(*ckpt, &error), nullptr);

  Checkpoint relabeled = *ckpt;
  relabeled.alg = CheckpointAlg::kMinCut;
  EXPECT_EQ(RestoreSketch(relabeled, &error), nullptr);
  EXPECT_NE(error.find("mincut"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsUnknownVersionAndAlg) {
  constexpr NodeId kN = 16;
  DynamicGraphStream s = TestStream(kN, 0.2, 13);
  auto sk = FullStreamConnectivity(s, kN);
  std::string path = TempPath("version.gskc");
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(path, *sk, s.Size(), &error)) << error;

  // Bump the version field (offset 4).
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 4, SEEK_SET);
  unsigned char v99[4] = {99, 0, 0, 0};
  ASSERT_EQ(std::fwrite(v99, 1, 4, f), 4u);
  std::fclose(f);
  EXPECT_FALSE(ReadCheckpointFile(path, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  // Restore the version, break the algorithm tag (offset 8). Tag 77 is
  // registered by no algorithm, so the read fails even before the
  // checksum over the altered bytes gets a say.
  f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  unsigned char v1[4] = {1, 0, 0, 0};
  std::fseek(f, 4, SEEK_SET);
  ASSERT_EQ(std::fwrite(v1, 1, 4, f), 4u);
  unsigned char tag77[4] = {77, 0, 0, 0};
  std::fseek(f, 8, SEEK_SET);
  ASSERT_EQ(std::fwrite(tag77, 1, 4, f), 4u);
  std::fclose(f);
  EXPECT_FALSE(ReadCheckpointFile(path, &error).has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gsketch
