// Tests for the unified LinearSketch registry (src/core/sketch_registry.h):
// lookup integrity, serialization round-trips, half-update composition,
// merge validation, and — the paper's Sec 1.1 property made executable —
// shard-merge parity: S independently sketched stream shards merged by
// addition are BYTE-identical to one uninterrupted single-stream sketch,
// for every registered algorithm family.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/sketch_registry.h"
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

TEST(Registry, LookupsAgreeAndNamesAreUnique) {
  ASSERT_FALSE(Registry().empty());
  std::set<std::string> names;
  std::set<uint32_t> tags;
  for (const AlgInfo& info : Registry()) {
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
    EXPECT_TRUE(tags.insert(static_cast<uint32_t>(info.tag)).second)
        << info.name;
    EXPECT_EQ(FindAlg(info.name), &info);
    EXPECT_EQ(FindAlg(info.tag), &info);
    EXPECT_STREQ(AlgTagName(info.tag), info.name);
  }
  EXPECT_EQ(FindAlg("nosuchalg"), nullptr);
  EXPECT_EQ(FindAlg(static_cast<AlgTag>(77)), nullptr);
  EXPECT_STREQ(AlgTagName(static_cast<AlgTag>(77)), "unknown");

  // The GSKC v1 tags predate the registry and are pinned forever.
  EXPECT_STREQ(FindAlg(AlgTag::kConnectivity)->name, "connectivity");
  EXPECT_STREQ(FindAlg(AlgTag::kKConnectivity)->name, "kconnect");
  EXPECT_STREQ(FindAlg(AlgTag::kMinCut)->name, "mincut");
}

TEST(Registry, FactoriesReportTheirIdentity) {
  for (const AlgInfo& info : Registry()) {
    SCOPED_TRACE(info.name);
    auto sk = info.make(kN, AlgOptions{}, kSeed);
    ASSERT_NE(sk, nullptr);
    EXPECT_EQ(sk->Tag(), info.tag);
    EXPECT_EQ(sk->num_nodes(), kN);
    EXPECT_GT(sk->CellCount(), 0u);
    EXPECT_EQ(sk->EndpointSharded(), info.endpoint_sharded);
    EXPECT_NE(sk->Describe().find(info.name), std::string::npos)
        << sk->Describe();
  }
}

// save -> restore -> serialize must reproduce the bytes exactly, for
// every registered algorithm (lossless wire round-trip).
TEST(Registry, EveryAlgSerializationRoundTrips) {
  DynamicGraphStream s = TestStream(3);
  for (const AlgInfo& info : Registry()) {
    SCOPED_TRACE(info.name);
    auto sk = info.make(kN, AlgOptions{}, kSeed);
    s.Replay([&](NodeId u, NodeId v, int64_t d) { sk->Update(u, v, d); });

    std::string bytes = Bytes(*sk);
    ByteReader r(bytes);
    auto back = info.deserialize(&r);
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(back->Tag(), info.tag);
    EXPECT_EQ(back->num_nodes(), kN);
    EXPECT_EQ(Bytes(*back), bytes);

    // A deserializer must reject other families' bytes (distinct payload
    // magics), leaving no half-parsed sketch behind.
    for (const AlgInfo& other : Registry()) {
      if (other.tag == info.tag) continue;
      ByteReader wrong(bytes);
      EXPECT_EQ(other.deserialize(&wrong), nullptr) << other.name;
    }
  }
}

// UpdateEndpoint halves must compose to the full token for every family —
// the contract the batched driver (and hence all parallel ingestion)
// relies on.
TEST(Registry, EndpointHalvesComposeToFullUpdate) {
  DynamicGraphStream s = TestStream(5);
  for (const AlgInfo& info : Registry()) {
    SCOPED_TRACE(info.name);
    auto whole = info.make(kN, AlgOptions{}, kSeed);
    auto halves = info.make(kN, AlgOptions{}, kSeed);
    s.Replay([&](NodeId u, NodeId v, int64_t d) {
      whole->Update(u, v, d);
      halves->UpdateEndpoint(u, u, v, d);
      halves->UpdateEndpoint(v, v, u, d);
    });
    EXPECT_EQ(Bytes(*whole), Bytes(*halves));
  }
}

// Sec 1.1 distributed sketching: split the stream across S sites, sketch
// each shard independently, merge by addition — the result must be
// byte-identical to the uninterrupted single-stream sketch. This is the
// `gsketch shard` + `merge` workflow in library form.
TEST(Registry, ShardMergeParityForEveryAlg) {
  DynamicGraphStream s = TestStream(7);
  for (size_t shards : {2u, 5u}) {
    for (const AlgInfo& info : Registry()) {
      SCOPED_TRACE(std::string(info.name) + " over " +
                   std::to_string(shards) + " shards");
      auto single = info.make(kN, AlgOptions{}, kSeed);
      s.Replay(
          [&](NodeId u, NodeId v, int64_t d) { single->Update(u, v, d); });

      // Round-robin shard assignment, mirroring the CLI's `shard`.
      std::unique_ptr<LinearSketch> merged;
      const auto& ups = s.Updates();
      for (size_t j = 0; j < shards; ++j) {
        auto site = info.make(kN, AlgOptions{}, kSeed);
        for (size_t i = j; i < ups.size(); i += shards) {
          site->Update(ups[i].u, ups[i].v, ups[i].delta);
        }
        if (merged == nullptr) {
          merged = std::move(site);
        } else {
          std::string error;
          ASSERT_TRUE(merged->Merge(*site, &error)) << error;
        }
      }
      EXPECT_EQ(Bytes(*merged), Bytes(*single));
    }
  }
}

TEST(Registry, MergeRejectsMismatchedAlgorithmsAndShapes) {
  auto conn = FindAlg("connectivity")->make(kN, AlgOptions{}, kSeed);
  auto mincut = FindAlg("mincut")->make(kN, AlgOptions{}, kSeed);
  std::string error;
  EXPECT_FALSE(conn->Merge(*mincut, &error));
  EXPECT_NE(error.find("mincut"), std::string::npos) << error;

  // Same family, different n: structurally incompatible.
  auto conn_big = FindAlg("connectivity")->make(2 * kN, AlgOptions{}, kSeed);
  error.clear();
  EXPECT_FALSE(conn->Merge(*conn_big, &error));
  EXPECT_NE(error.find("incompatible"), std::string::npos) << error;

  // Same family, same shape: merge succeeds and is the identity when the
  // other operand is the zero sketch.
  auto conn_zero = FindAlg("connectivity")->make(kN, AlgOptions{}, kSeed);
  std::string before = Bytes(*conn);
  EXPECT_TRUE(conn->Merge(*conn_zero, &error)) << error;
  EXPECT_EQ(Bytes(*conn), before);
}

// Equal n and equal cell totals are not one measurement: merge compares
// every part's parameters, in every build, before any cell changes. The
// mincut pair below has 28,800 cells on both sides but k = 4 with 5
// levels against k = 5 with 4 levels; a connectivity pair differs only
// in its seed.
TEST(Registry, MergeRefusesSketchesMeasuredDifferently) {
  AlgOptions five_levels;
  five_levels.epsilon = 1.25;
  five_levels.max_level = 4;
  AlgOptions four_levels;
  four_levels.epsilon = 1.1;
  four_levels.max_level = 3;
  auto a = FindAlg("mincut")->make(8, five_levels, kSeed);
  auto b = FindAlg("mincut")->make(8, four_levels, kSeed);
  ASSERT_EQ(a->CellCount(), 28800u);
  ASSERT_EQ(b->CellCount(), 28800u);
  const std::string before = Bytes(*a);
  std::string error;
  EXPECT_FALSE(a->Merge(*b, &error));
  EXPECT_EQ(error, "mincut: incompatible sketches: k differs");
  EXPECT_EQ(Bytes(*a), before);

  auto one = FindAlg("connectivity")->make(kN, AlgOptions{}, 1);
  auto two = FindAlg("connectivity")->make(kN, AlgOptions{}, 2);
  EXPECT_FALSE(one->Merge(*two, &error));
  EXPECT_EQ(error, "connectivity: incompatible sketches: seed differs");
}

TEST(Registry, KnobsReachTheFactories) {
  AlgOptions opt;
  opt.k = 5;
  auto kc = FindAlg("kconnect")->make(kN, opt, kSeed);
  EXPECT_NE(kc->Describe().find("k=5"), std::string::npos)
      << kc->Describe();
  auto ke = FindAlg("kedge")->make(kN, opt, kSeed);
  EXPECT_NE(ke->Describe().find("k=5"), std::string::npos)
      << ke->Describe();
}

}  // namespace
}  // namespace gsketch
