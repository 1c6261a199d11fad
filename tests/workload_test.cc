// Unit tests for the workload generator library (src/workload/): every
// profile is deterministic (same seed => byte-identical stream), meets the
// dynamic-stream contract, and has the SHAPE its name promises — churn is
// deletion-heavy with exact-zero cancellations, sliding keeps a bounded
// live window, hotspot concentrates on hub endpoints, and uniform is the
// exact historical E13/E14 bench stream. The differential tier
// (differential_test.cc) checks decoded ANSWERS on these streams; this
// file checks the streams themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/stream.h"
#include "src/hash/random.h"
#include "src/workload/stream_generator.h"

namespace gsketch {
namespace {

constexpr NodeId kN = 64;
constexpr size_t kUpdates = 2000;
constexpr uint64_t kSeed = 4242;

std::string StreamBytes(const DynamicGraphStream& s) {
  std::string out;
  for (const auto& e : s.Updates()) {
    out.append(reinterpret_cast<const char*>(&e.u), sizeof(e.u));
    out.append(reinterpret_cast<const char*>(&e.v), sizeof(e.v));
    out.append(reinterpret_cast<const char*>(&e.delta), sizeof(e.delta));
  }
  return out;
}

// ------------------------------------------------------- registry shape --

TEST(WorkloadRegistry, SixProfilesWithUniqueNamesAndSummaries) {
  const auto& profiles = WorkloadProfiles();
  ASSERT_EQ(profiles.size(), 6u);
  std::vector<std::string> names;
  for (const auto& p : profiles) {
    EXPECT_NE(p.generate, nullptr) << p.name;
    EXPECT_GT(std::string(p.summary).size(), 0u) << p.name;
    names.push_back(p.name);
    EXPECT_EQ(FindWorkloadProfile(p.name), &p);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  EXPECT_EQ(FindWorkloadProfile("no-such-profile"), nullptr);
  // The name list is what the CLI prints on a bad profile argument.
  for (const auto& p : profiles) {
    EXPECT_NE(WorkloadProfileNameList().find(p.name), std::string::npos);
  }
}

// ----------------------------------------------------- shared contract --

// Every profile: exact requested length, in-range loopless endpoints,
// nonzero deltas, no negative prefix multiplicity, and same-seed
// determinism / cross-seed divergence.
TEST(WorkloadContract, EveryProfileIsValidAndDeterministic) {
  for (const auto& p : WorkloadProfiles()) {
    SCOPED_TRACE(p.name);
    DynamicGraphStream s = p.generate(kN, kUpdates, kSeed);
    ASSERT_EQ(s.Size(), kUpdates);
    for (const auto& e : s.Updates()) {
      ASSERT_LT(e.u, kN);
      ASSERT_LT(e.v, kN);
      ASSERT_NE(e.u, e.v);
      ASSERT_NE(e.delta, 0);
    }
    WorkloadStats stats = ComputeWorkloadStats(s);
    EXPECT_TRUE(stats.nonnegative);
    EXPECT_EQ(stats.insert_tokens + stats.delete_tokens, kUpdates);

    DynamicGraphStream again = p.generate(kN, kUpdates, kSeed);
    EXPECT_EQ(StreamBytes(s), StreamBytes(again)) << "not deterministic";
    DynamicGraphStream other = p.generate(kN, kUpdates, kSeed + 1);
    EXPECT_NE(StreamBytes(s), StreamBytes(other)) << "seed is ignored";
  }
}

TEST(WorkloadContract, TinyRequestsStillMeetTheContract) {
  for (const auto& p : WorkloadProfiles()) {
    SCOPED_TRACE(p.name);
    for (size_t updates : {size_t{1}, size_t{2}, size_t{7}}) {
      DynamicGraphStream s = p.generate(/*n=*/3, updates, kSeed);
      EXPECT_EQ(s.Size(), updates);
      EXPECT_TRUE(ComputeWorkloadStats(s).nonnegative);
    }
  }
}

// -------------------------------------------------- profile-specific --

TEST(WorkloadProfileShape, UniformIsTheHistoricalBenchStream) {
  // The exact generator E13/E14 always used, inlined here as the
  // reference: refactoring the benches onto the library must never change
  // the stream bytes, or committed BENCH baselines stop being comparable.
  auto reference = [](NodeId n, size_t updates, uint64_t seed) {
    Rng rng(seed);
    DynamicGraphStream s(n);
    std::vector<std::pair<NodeId, NodeId>> inserted;
    while (s.Size() < updates) {
      if (!inserted.empty() && rng.Below(10) == 0) {
        size_t pick = rng.Below(inserted.size());
        auto [u, v] = inserted[pick];
        inserted[pick] = inserted.back();
        inserted.pop_back();
        s.Push(u, v, -1);
        continue;
      }
      NodeId u = static_cast<NodeId>(rng.Below(n));
      NodeId v = static_cast<NodeId>(rng.Below(n));
      if (u == v) continue;
      s.Push(u, v, +1);
      inserted.emplace_back(u, v);
    }
    return s;
  };
  const WorkloadProfile* p = FindWorkloadProfile("uniform");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(StreamBytes(p->generate(1024, 5000, 12345)),
            StreamBytes(reference(1024, 5000, 12345)));
}

TEST(WorkloadProfileShape, PowerLawSkewsTowardLowNodeIds) {
  DynamicGraphStream s =
      FindWorkloadProfile("powerlaw")->generate(kN, kUpdates, kSeed);
  std::vector<size_t> touches(kN, 0);
  for (const auto& e : s.Updates()) {
    ++touches[e.u];
    ++touches[e.v];
  }
  // The head eighth of the ID space absorbs the majority of endpoint
  // touches, and the single hottest node beats the entire tail half.
  size_t head = 0, tail_half = 0, total = 0;
  for (NodeId i = 0; i < kN; ++i) {
    total += touches[i];
    if (i < kN / 8) head += touches[i];
    if (i >= kN / 2) tail_half += touches[i];
  }
  EXPECT_GT(head, total / 2);
  EXPECT_GT(touches[0], tail_half);
}

TEST(WorkloadProfileShape, HotspotConcentratesOnHubsWithEdgeRuns) {
  DynamicGraphStream s =
      FindWorkloadProfile("hotspot")->generate(kN, kUpdates, kSeed);
  const NodeId hubs = kN / 16;
  size_t hub_touch = 0, runs = 0;
  for (size_t i = 0; i < s.Size(); ++i) {
    const auto& e = s.Updates()[i];
    if (e.u < hubs || e.v < hubs) ++hub_touch;
    if (i > 0 && e.u == s.Updates()[i - 1].u &&
        e.v == s.Updates()[i - 1].v) {
      ++runs;
    }
  }
  EXPECT_EQ(hub_touch, s.Size()) << "every token touches a hub";
  EXPECT_GT(runs, s.Size() / 4) << "bursty same-edge runs are the point";
}

TEST(WorkloadProfileShape, SlidingKeepsABoundedLiveWindow) {
  DynamicGraphStream s =
      FindWorkloadProfile("sliding")->generate(kN, kUpdates, kSeed);
  const int64_t window = kUpdates / 8;
  int64_t live = 0, max_live = 0;
  for (const auto& e : s.Updates()) {
    live += e.delta > 0 ? 1 : -1;
    ASSERT_GE(live, 0);
    max_live = std::max(max_live, live);
  }
  EXPECT_LE(max_live, window) << "live copies exceeded the window";
  EXPECT_EQ(max_live, window) << "window never filled";
  WorkloadStats stats = ComputeWorkloadStats(s);
  // Steady state alternates insert/delete: a roughly 50/50 mix.
  EXPECT_GT(stats.delete_tokens, kUpdates / 3);
}

TEST(WorkloadProfileShape, ChurnCancelsWholeMultiplicitiesToZero) {
  DynamicGraphStream s =
      FindWorkloadProfile("churn")->generate(kN, kUpdates, kSeed);
  WorkloadStats stats = ComputeWorkloadStats(s);
  EXPECT_TRUE(stats.nonnegative);
  // Deletion-heavy: a large fraction of tokens delete, and deletes drive
  // edges to exactly zero (that is the profile's contract).
  EXPECT_GT(stats.delete_tokens, kUpdates / 5);
  EXPECT_GT(stats.zeroed_edges, 0u);
  // Deletions remove the edge's whole multiplicity in ONE signed token,
  // so |delta| > 1 tokens must occur and every deletion lands on zero.
  bool wide_delete = false;
  std::map<std::pair<NodeId, NodeId>, int64_t> mult;
  for (const auto& e : s.Updates()) {
    NodeId a = std::min(e.u, e.v), b = std::max(e.u, e.v);
    int64_t& m = mult[{a, b}];
    m += e.delta;
    if (e.delta < -1) wide_delete = true;
    if (e.delta < 0) {
      EXPECT_EQ(m, 0) << "delete did not cancel to zero";
    }
  }
  EXPECT_TRUE(wide_delete) << "no multi-copy (|delta|>1) deletion occurred";
}

TEST(WorkloadProfileShape, MixedConcatenatesItsFourPhases) {
  const size_t updates = 800;  // divisible by 4: phases are exact quarters
  DynamicGraphStream s =
      FindWorkloadProfile("mixed")->generate(kN, updates, kSeed);
  ASSERT_EQ(s.Size(), updates);
  // Phase 2 (third quarter) is a fresh sliding stream: its first token is
  // an insert, and the hotspot quarter before it only touches hubs.
  const NodeId hubs = kN / 16;
  for (size_t i = updates / 4; i < updates / 2; ++i) {
    const auto& e = s.Updates()[i];
    ASSERT_TRUE(e.u < hubs || e.v < hubs) << "hotspot phase left the hubs";
  }
  EXPECT_GT(s.Updates()[updates / 2].delta, 0);
  // The churn quarter contributes exact-zero cancellations.
  EXPECT_GT(ComputeWorkloadStats(s).zeroed_edges, 0u);
}

// ------------------------------------------------------ workload stats --

TEST(WorkloadStatsCheck, CountsInsertsDeletesZeroedAndFinalEdges) {
  DynamicGraphStream s(8);
  s.Push(0, 1, +1);
  s.Push(1, 2, +3);
  s.Push(0, 1, -1);  // edge (0,1) cancelled to exactly zero
  s.Push(3, 4, +1);
  WorkloadStats stats = ComputeWorkloadStats(s);
  EXPECT_EQ(stats.insert_tokens, 3u);
  EXPECT_EQ(stats.delete_tokens, 1u);
  EXPECT_EQ(stats.net_multiplicity, 4);
  EXPECT_EQ(stats.final_edges, 2u);
  EXPECT_EQ(stats.zeroed_edges, 1u);
  EXPECT_TRUE(stats.nonnegative);
}

TEST(WorkloadStatsCheck, FlagsNegativePrefixEvenIfFinalIsNonnegative) {
  DynamicGraphStream s(4);
  s.Push(0, 1, -1);  // dips negative...
  s.Push(1, 0, +2);  // ...but ends at +1
  WorkloadStats stats = ComputeWorkloadStats(s);
  EXPECT_FALSE(stats.nonnegative);
  EXPECT_EQ(stats.net_multiplicity, 1);
}

}  // namespace
}  // namespace gsketch
