// Tests for the ingestion subsystem (src/driver/): GSKB binary stream
// round-tripping and exact sequential-vs-parallel parity of the batched
// sketch driver. Parity is exact — not approximate — because the sketches
// are linear: any partition of the update stream across workers sums to
// the same sketch state.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/connectivity_suite.h"
#include "src/core/simple_sparsifier.h"
#include "src/core/spanning_forest.h"
#include "src/driver/binary_stream.h"
#include "src/driver/progress.h"
#include "src/driver/sketch_driver.h"
#include "src/graph/generators.h"
#include "src/graph/stream.h"
#include "src/hash/random.h"

namespace gsketch {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// A stream with deletions: an Erdos-Renyi graph plus churn (edges inserted
// and later deleted), shuffled so updates arrive in adversarial order.
DynamicGraphStream TestStream(NodeId n, double p, uint64_t seed) {
  Rng rng(seed);
  Graph g = ErdosRenyi(n, p, seed);
  DynamicGraphStream s = DynamicGraphStream::FromGraph(g);
  return s.WithChurn(/*extra=*/s.Size() / 4 + 5, &rng).Shuffled(&rng);
}

void ExpectSameUpdates(const DynamicGraphStream& a,
                       const DynamicGraphStream& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.Size(), b.Size());
  for (size_t i = 0; i < a.Size(); ++i) {
    EXPECT_EQ(a.Updates()[i].u, b.Updates()[i].u) << i;
    EXPECT_EQ(a.Updates()[i].v, b.Updates()[i].v) << i;
    EXPECT_EQ(a.Updates()[i].delta, b.Updates()[i].delta) << i;
  }
}

TEST(BinaryStream, RoundTripIsIdentity) {
  DynamicGraphStream s = TestStream(50, 0.15, 7);
  ASSERT_GT(s.Size(), 0u);
  std::string path = TempPath("roundtrip.gskb");
  ASSERT_TRUE(WriteBinaryStream(path, s));

  auto back = ReadBinaryStream(path);
  ASSERT_TRUE(back.has_value());
  ExpectSameUpdates(s, *back);
  std::remove(path.c_str());
}

// Regression: BinaryStreamWriter::Append used to take an i32 delta, so a
// wide in-memory delta was silently truncated to its low 32 bits on the
// way to disk. Wide deltas now split into several maximal i32 wire
// records whose sum is exact (linearity makes the sequence equivalent),
// and a > 2^31 accumulated weight round-trips through convert.
TEST(BinaryStream, WideDeltasSplitAcrossWireRecords) {
  constexpr int64_t kWide = (int64_t{1} << 33) + 12345;     // 5 chunks
  constexpr int64_t kNegWide = -((int64_t{1} << 31) + 7);   // 2 chunks
  DynamicGraphStream s(8);
  s.Push(0, 1, kWide);
  s.Push(2, 3, kNegWide);
  s.Push(4, 5, +1);
  std::string path = TempPath("wide_delta.gskb");
  ASSERT_TRUE(WriteBinaryStream(path, s));

  auto back = ReadBinaryStream(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->Size(), 8u);  // 5 + 2 + 1 wire records
  std::map<std::pair<NodeId, NodeId>, int64_t> sums;
  for (const auto& e : back->Updates()) {
    EXPECT_GE(e.delta, INT32_MIN);  // every wire record fits i32
    EXPECT_LE(e.delta, INT32_MAX);
    sums[{e.u, e.v}] += e.delta;
  }
  EXPECT_EQ((sums[{0, 1}]), kWide);
  EXPECT_EQ((sums[{2, 3}]), kNegWide);
  EXPECT_EQ((sums[{4, 5}]), 1);

  // The split records build byte-identical sketch state and decode the
  // exact accumulated weight — nothing was lost on the wire.
  SpanningForestSketch direct(8, ForestOptions{}, 5);
  s.Replay([&](NodeId u, NodeId v, int64_t d) { direct.Update(u, v, d); });
  SpanningForestSketch wire(8, ForestOptions{}, 5);
  back->Replay([&](NodeId u, NodeId v, int64_t d) { wire.Update(u, v, d); });
  std::string a, b;
  direct.AppendTo(&a);
  wire.AppendTo(&b);
  EXPECT_EQ(a, b);
  double max_weight = 0;
  for (const auto& e : wire.ExtractForest().Edges()) {
    max_weight = std::max(max_weight, e.weight);
  }
  EXPECT_EQ(max_weight, static_cast<double>(kWide));
  std::remove(path.c_str());
}

TEST(BinaryStream, AbsurdDeltaFailsTheWriterInsteadOfBallooning) {
  // A delta needing more than kMaxDeltaChunks wire records (e.g. a typo'd
  // INT64_MAX) must fail the writer, not silently write ~4e9 records.
  std::string path = TempPath("absurd_delta.gskb");
  {
    BinaryStreamWriter w(path, 4);
    ASSERT_TRUE(w.ok());
    w.Append(0, 1, kMaxDeltaChunks * INT32_MAX);  // at the cap: fine
    EXPECT_TRUE(w.ok());
    EXPECT_EQ(w.updates_written(), static_cast<uint64_t>(kMaxDeltaChunks));
    w.Append(2, 3, INT64_MAX);  // past the cap: writer fails
    EXPECT_FALSE(w.ok());
    EXPECT_FALSE(w.Close());
  }
  std::remove(path.c_str());
}

TEST(BinaryStream, HeaderCarriesCountAndNodes) {
  DynamicGraphStream s = TestStream(30, 0.2, 3);
  std::string path = TempPath("header.gskb");
  ASSERT_TRUE(WriteBinaryStream(path, s));

  BinaryStreamReader r(path);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.nodes(), 30u);
  EXPECT_EQ(r.num_updates(), s.Size());
  std::remove(path.c_str());
}

TEST(BinaryStream, BatchedReadsReassembleTheStream) {
  DynamicGraphStream s = TestStream(40, 0.2, 11);
  std::string path = TempPath("batched.gskb");
  ASSERT_TRUE(WriteBinaryStream(path, s));

  // A tiny I/O buffer and a batch size coprime to everything exercise the
  // refill path.
  BinaryStreamReader r(path, /*buffer_bytes=*/64);
  ASSERT_TRUE(r.ok()) << r.error();
  DynamicGraphStream back(r.nodes());
  std::vector<EdgeUpdate> batch;
  while (!r.Done()) {
    batch.clear();
    ASSERT_GT(r.ReadBatch(7, &batch), 0u) << r.error();
    for (const auto& e : batch) back.Push(e.u, e.v, e.delta);
  }
  ASSERT_TRUE(r.ok()) << r.error();
  ExpectSameUpdates(s, back);
  std::remove(path.c_str());
}

// Regression: after `resume`, the tracker used to start its counter at 0
// against a total, so percent restarted and the run's closing line hid
// where it resumed. A seeded tracker reports position in the FULL stream
// and counts only this run's work in the rate.
TEST(InsertionTracker, ResumeSeedReportsFullStreamPosition) {
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* out = open_memstream(&buf, &len);
  ASSERT_NE(out, nullptr);
  {
    // A 100-token stream resumed from a checkpoint at 60; this run has
    // pushed 15 more tokens when Stop() prints the closing line.
    InsertionTracker tracker(
        /*total=*/100, [] { return uint64_t{75}; }, /*initial=*/60, out,
        /*interval_seconds=*/1000.0);
    tracker.Stop();
  }
  std::fclose(out);
  std::string text(buf, len);
  std::free(buf);
  EXPECT_NE(text.find(" 75%"), std::string::npos) << text;
  EXPECT_NE(text.find("15 updates"), std::string::npos) << text;
  EXPECT_NE(text.find("resumed at 60"), std::string::npos) << text;
}

TEST(InsertionTracker, FreshRunClosingLineHasNoResumeNote) {
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* out = open_memstream(&buf, &len);
  ASSERT_NE(out, nullptr);
  {
    InsertionTracker tracker(
        /*total=*/100, [] { return uint64_t{100}; }, /*initial=*/0, out,
        /*interval_seconds=*/1000.0);
    tracker.Stop();
  }
  std::fclose(out);
  std::string text(buf, len);
  std::free(buf);
  EXPECT_NE(text.find("100%"), std::string::npos) << text;
  EXPECT_EQ(text.find("resumed"), std::string::npos) << text;
}

TEST(BinaryStream, RejectsBadMagic) {
  std::string path = TempPath("notastream.gskb");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a binary stream at all, not even close", f);
  std::fclose(f);

  BinaryStreamReader r(path);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(ReadBinaryStream(path).has_value());
  EXPECT_FALSE(LooksLikeBinaryStream(path));
  std::remove(path.c_str());
}

TEST(BinaryStream, RejectsTruncatedFile) {
  DynamicGraphStream s = TestStream(30, 0.2, 5);
  std::string path = TempPath("truncated.gskb");
  ASSERT_TRUE(WriteBinaryStream(path, s));

  // Chop off the last record and a half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 18), 0);

  EXPECT_TRUE(LooksLikeBinaryStream(path));
  EXPECT_FALSE(ReadBinaryStream(path).has_value());
  std::remove(path.c_str());
}

TEST(BinaryStream, RejectsUnpatchedHeaderCount) {
  // A producer killed before Close() leaves the placeholder count 0 in the
  // header while records follow; the size cross-check must catch it.
  DynamicGraphStream s = TestStream(30, 0.2, 8);
  std::string path = TempPath("unpatched.gskb");
  ASSERT_TRUE(WriteBinaryStream(path, s));
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 12, SEEK_SET);
  unsigned char zeros[8] = {0};
  ASSERT_EQ(std::fwrite(zeros, 1, 8, f), 8u);
  std::fclose(f);

  BinaryStreamReader r(path);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(ReadBinaryStream(path).has_value());
  std::remove(path.c_str());
}

TEST(BinaryStream, RejectsOutOfRangeEndpoint) {
  std::string path = TempPath("badendpoint.gskb");
  {
    BinaryStreamWriter w(path, 10);
    ASSERT_TRUE(w.ok());
    w.Append(0, 1, 1);
    ASSERT_TRUE(w.Close());
  }
  // Corrupt the record's v field (offset 20 + 4) to an out-of-range id.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 24, SEEK_SET);
  unsigned char big[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(std::fwrite(big, 1, 4, f), 4u);
  std::fclose(f);

  EXPECT_FALSE(ReadBinaryStream(path).has_value());
  std::remove(path.c_str());
}

// GSKT, the tenant-tagged trace: GSKB's conventions plus a tenant count
// at header offset 12 and a tenant column leading each 16-byte record.

void PatchU32(const std::string& path, long offset, uint32_t value) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, offset, SEEK_SET);
  unsigned char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<unsigned char>(value >> (8 * i));
  }
  ASSERT_EQ(std::fwrite(bytes, 1, 4, f), 4u);
  std::fclose(f);
}

// A 3-record trace at n = 4, k = 2: (0: 0-1 +1), (1: 2-3 +1), (0: 1-2 -1).
std::string WriteSmallTrace(const char* name) {
  std::string path = TempPath(name);
  TaggedStreamWriter w(path, 4, 2);
  w.Append(0, 0, 1, 1);
  w.Append(1, 2, 3, 1);
  w.Append(0, 1, 2, -1);
  EXPECT_TRUE(w.Close());
  return path;
}

TEST(TaggedStream, RoundTripSplitsWideDeltas) {
  constexpr int64_t kWide = (int64_t{1} << 33) + 12345;  // 5 records
  std::string path = TempPath("tagged_roundtrip.gskt");
  {
    TaggedStreamWriter w(path, 6, 3);
    ASSERT_TRUE(w.ok());
    w.Append(2, 0, 1, kWide);
    w.Append(0, 3, 4, -1);
    w.Append(1, 4, 5, +1);
    EXPECT_EQ(w.updates_written(), 7u);
    EXPECT_EQ(w.tenants(), 3u);
    ASSERT_TRUE(w.Close());
  }
  TaggedStreamReader r(path, /*buffer_bytes=*/40);  // refills mid-trace
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.nodes(), 6u);
  EXPECT_EQ(r.tenants(), 3u);
  EXPECT_EQ(r.num_updates(), 7u);
  std::vector<TaggedUpdate> got;
  while (!r.Done()) ASSERT_GT(r.ReadBatch(3, &got), 0u) << r.error();
  ASSERT_EQ(got.size(), 7u);
  int64_t wide_sum = 0;
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(got[i].tenant, 2u);
    EXPECT_EQ(got[i].u, 0u);
    EXPECT_EQ(got[i].v, 1u);
    EXPECT_LE(got[i].delta, INT32_MAX);
    wide_sum += got[i].delta;
  }
  EXPECT_EQ(wide_sum, kWide);
  EXPECT_EQ(got[5].tenant, 0u);
  EXPECT_EQ(got[5].delta, -1);
  EXPECT_EQ(got[6].tenant, 1u);
  EXPECT_EQ(got[6].u, 4u);
  EXPECT_EQ(got[6].v, 5u);
  std::remove(path.c_str());
}

TEST(TaggedStream, RejectsTruncatedTrace) {
  std::string path = WriteSmallTrace("tagged_truncated.gskt");
  ASSERT_EQ(truncate(path.c_str(), 24 + 16 + 5), 0);
  TaggedStreamReader r(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(),
            "file holds 45 bytes but header declares 3 updates (72 bytes)");

  // Cut after the header checks passed: a refill finds the trace short.
  // (The trace outgrows stdio's buffer, so the cut is seen mid-trace.)
  {
    TaggedStreamWriter w(path, 4, 2);
    for (uint32_t i = 0; i < 1000; ++i) w.Append(i % 2, i % 3, i % 3 + 1, 1);
    ASSERT_TRUE(w.Close());
  }
  TaggedStreamReader late(path);
  ASSERT_TRUE(late.ok()) << late.error();
  ASSERT_EQ(truncate(path.c_str(), 24), 0);
  std::vector<TaggedUpdate> got;
  while (late.ReadBatch(64, &got) > 0) {
  }
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.error().rfind(
                "truncated trace: header declares 1000 updates, file ends "
                "after ",
                0),
            0u)
      << late.error();
  EXPECT_LT(got.size(), 1000u);
  std::remove(path.c_str());
}

TEST(TaggedStream, RejectsHeaderCountMismatch) {
  std::string path = WriteSmallTrace("tagged_count.gskt");
  PatchU32(path, 16, 2);  // low word of the update count
  TaggedStreamReader r(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(),
            "file holds 72 bytes but header declares 2 updates (56 bytes)");
  std::remove(path.c_str());
}

TEST(TaggedStream, RejectsTenantTagPastTheHeaderCount) {
  std::string path = WriteSmallTrace("tagged_tag.gskt");
  PatchU32(path, 24 + 16, 5);  // second record's tenant column
  TaggedStreamReader r(path);
  ASSERT_TRUE(r.ok()) << r.error();
  std::vector<TaggedUpdate> got;
  EXPECT_EQ(r.ReadBatch(8, &got), 1u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(),
            "bad record at update 1: tenant 5 edge (2, 3) with k=2 n=4");
  std::remove(path.c_str());
}

TEST(TaggedStream, RejectsZeroTenantsAndTinyGraphs) {
  std::string path = WriteSmallTrace("tagged_header.gskt");
  PatchU32(path, 12, 0);
  TaggedStreamReader zero(path);
  EXPECT_FALSE(zero.ok());
  EXPECT_EQ(zero.error(), "header declares zero tenants");

  PatchU32(path, 8, 1);
  TaggedStreamReader tiny(path);
  EXPECT_FALSE(tiny.ok());
  EXPECT_EQ(tiny.error(), "header declares n < 2");

  PatchU32(path, 0, kBinaryStreamMagic);
  TaggedStreamReader wrong(path);
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.error(), "bad magic (not a GSKT trace)");
  std::remove(path.c_str());
}

TEST(SketchDriver, EndpointHalvesComposeToFullUpdate) {
  // The driver relies on UpdateEndpoint(u) + UpdateEndpoint(v)
  // producing the exact same sketch state as Update(u, v). Serialization
  // makes the comparison bit-exact.
  SpanningForestSketch whole(32, ForestOptions{}, 99);
  SpanningForestSketch halves(32, ForestOptions{}, 99);
  DynamicGraphStream s = TestStream(32, 0.2, 21);
  for (const auto& e : s.Updates()) {
    whole.Update(e.u, e.v, e.delta);
    halves.UpdateEndpoint(e.u, e.u, e.v, e.delta);
    halves.UpdateEndpoint(e.v, e.u, e.v, e.delta);
  }
  std::string a, b;
  whole.AppendTo(&a);
  halves.AppendTo(&b);
  EXPECT_EQ(a, b);
}

std::vector<std::tuple<NodeId, NodeId, double>> SortedEdges(const Graph& g) {
  std::vector<std::tuple<NodeId, NodeId, double>> edges;
  for (const auto& e : g.Edges()) {
    edges.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v), e.weight);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

TEST(SketchDriver, ConnectivityParityAcrossThreadCounts) {
  constexpr NodeId kN = 60;
  constexpr uint64_t kSeed = 17;
  DynamicGraphStream s = TestStream(kN, 0.1, 13);

  ConnectivitySketch sequential(kN, ForestOptions{}, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) { sequential.Update(u, v, d); });

  for (uint32_t threads : {1u, 4u}) {
    for (size_t gutter : {size_t{64}, size_t{4096}}) {
      ConnectivitySketch parallel(kN, ForestOptions{}, kSeed);
      DriverOptions opt;
      opt.num_workers = threads;
      opt.gutter_bytes = gutter;
      SketchDriver<ConnectivitySketch> driver(&parallel, opt);
      driver.ProcessStream(s);
      EXPECT_EQ(driver.StreamUpdates(), s.Size());
      EXPECT_EQ(driver.TotalUpdates(), 2 * s.Size());

      // Identical sketch state decodes to the identical forest, so the
      // answers match exactly, not just approximately.
      EXPECT_EQ(parallel.NumComponents(), sequential.NumComponents())
          << threads << " threads, gutter=" << gutter << "B";
      EXPECT_EQ(SortedEdges(parallel.Forest()),
                SortedEdges(sequential.Forest()))
          << threads << " threads, gutter=" << gutter << "B";
    }
  }
}

TEST(SketchDriver, BipartitenessParityAcrossThreadCounts) {
  constexpr uint64_t kSeed = 23;
  // One bipartite graph, one graph with an odd cycle.
  Graph bip = CompleteBipartite(6, 7);
  Graph odd = CompleteGraph(5);
  for (const Graph* g : {&bip, &odd}) {
    NodeId n = g->NumNodes();
    Rng rng(5);
    DynamicGraphStream s =
        DynamicGraphStream::FromGraph(*g).WithChurn(10, &rng).Shuffled(&rng);

    BipartitenessSketch sequential(n, ForestOptions{}, kSeed);
    s.Replay([&](NodeId u, NodeId v, int64_t d) {
      sequential.Update(u, v, d);
    });

    for (uint32_t threads : {1u, 4u}) {
      BipartitenessSketch parallel(n, ForestOptions{}, kSeed);
      DriverOptions opt;
      opt.num_workers = threads;
      opt.gutter_bytes = 64;  // force many flushes
      SketchDriver<BipartitenessSketch> driver(&parallel, opt);
      driver.ProcessStream(s);
      EXPECT_EQ(parallel.IsBipartite(), sequential.IsBipartite())
          << threads << " threads";
    }
  }
}

TEST(SketchDriver, SparsifierParityAcrossThreadCounts) {
  constexpr NodeId kN = 40;
  constexpr uint64_t kSeed = 31;
  DynamicGraphStream s = TestStream(kN, 0.2, 19);

  SimpleSparsifierOptions sopt;
  sopt.epsilon = 0.5;
  SimpleSparsifier sequential(kN, sopt, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) { sequential.Update(u, v, d); });
  auto expected = SortedEdges(sequential.Extract());

  for (uint32_t threads : {1u, 4u}) {
    SimpleSparsifier parallel(kN, sopt, kSeed);
    DriverOptions opt;
    opt.num_workers = threads;
    opt.gutter_bytes = 64;  // force many flushes
    SketchDriver<SimpleSparsifier> driver(&parallel, opt);
    driver.ProcessStream(s);
    EXPECT_EQ(SortedEdges(parallel.Extract()), expected)
        << threads << " threads";
  }
}

TEST(SketchDriver, DestructionWithoutDrainAppliesEverything) {
  // Callers may Push and then simply destroy the driver: the destructor
  // drains, so no queued update is lost and the sketch is complete.
  constexpr NodeId kN = 32;
  constexpr uint64_t kSeed = 47;
  DynamicGraphStream s = TestStream(kN, 0.2, 37);

  ConnectivitySketch sequential(kN, ForestOptions{}, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) { sequential.Update(u, v, d); });

  ConnectivitySketch abandoned(kN, ForestOptions{}, kSeed);
  {
    DriverOptions opt;
    opt.num_workers = 3;
    opt.gutter_bytes = 64;
    SketchDriver<ConnectivitySketch> driver(&abandoned, opt);
    for (const auto& e : s.Updates()) driver.Push(e.u, e.v, e.delta);
    // No Drain(): destruction must flush the gutters and wait.
  }
  std::string a, b;
  sequential.AppendTo(&a);
  abandoned.AppendTo(&b);
  EXPECT_EQ(a, b);
}

TEST(SketchDriver, ZeroUpdateStreamIsWellDefined) {
  constexpr NodeId kN = 8;
  ConnectivitySketch sk(kN, ForestOptions{}, 3);
  std::string before;
  sk.AppendTo(&before);
  {
    DriverOptions opt;
    opt.num_workers = 2;
    SketchDriver<ConnectivitySketch> driver(&sk, opt);
    driver.Drain();  // drain with nothing enqueued
    DynamicGraphStream empty(kN);
    driver.ProcessStream(empty);  // and an explicitly empty stream
    EXPECT_EQ(driver.StreamUpdates(), 0u);
    EXPECT_EQ(driver.TotalUpdates(), 0u);
  }
  std::string after;
  sk.AppendTo(&after);
  EXPECT_EQ(after, before);  // the zero sketch is untouched
  EXPECT_EQ(sk.NumComponents(), kN);  // n isolated nodes
}

TEST(SketchDriver, BackpressureWithSingleSlotQueuesKeepsParity) {
  // max_pending_batches=1 bounds the shared queue at one batch per worker,
  // so the producer applies a flush itself whenever the workers fall
  // behind — the tightest legal flow-control setting. Parity must survive
  // the constant producer/worker interleaving.
  constexpr NodeId kN = 48;
  constexpr uint64_t kSeed = 53;
  DynamicGraphStream s = TestStream(kN, 0.15, 41);

  ConnectivitySketch sequential(kN, ForestOptions{}, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) { sequential.Update(u, v, d); });

  ConnectivitySketch throttled(kN, ForestOptions{}, kSeed);
  {
    DriverOptions opt;
    opt.num_workers = 4;
    opt.gutter_bytes = 24;        // two-entry gutters: many small batches
    opt.max_pending_batches = 1;  // tiny queue: maximal contention
    SketchDriver<ConnectivitySketch> driver(&throttled, opt);
    driver.ProcessStream(s);
    EXPECT_EQ(driver.TotalUpdates(), 2 * s.Size());
  }
  std::string a, b;
  sequential.AppendTo(&a);
  throttled.AppendTo(&b);
  EXPECT_EQ(a, b);
}

TEST(SketchDriver, ProcessFileMatchesInMemoryIngestion) {
  constexpr NodeId kN = 50;
  constexpr uint64_t kSeed = 41;
  DynamicGraphStream s = TestStream(kN, 0.15, 29);
  std::string path = TempPath("driver_ingest.gskb");
  ASSERT_TRUE(WriteBinaryStream(path, s));

  ConnectivitySketch sequential(kN, ForestOptions{}, kSeed);
  s.Replay([&](NodeId u, NodeId v, int64_t d) { sequential.Update(u, v, d); });

  ConnectivitySketch parallel(kN, ForestOptions{}, kSeed);
  DriverOptions opt;
  opt.num_workers = 4;
  SketchDriver<ConnectivitySketch> driver(&parallel, opt);
  BinaryStreamReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  ASSERT_TRUE(driver.ProcessFile(&reader));

  EXPECT_EQ(parallel.NumComponents(), sequential.NumComponents());
  EXPECT_EQ(SortedEdges(parallel.Forest()), SortedEdges(sequential.Forest()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gsketch
