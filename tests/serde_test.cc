// Tests for sketch serialization: round-trips, cross-site merge on
// deserialized sketches, and malformed-input rejection.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "src/core/node_sketch.h"
#include "src/core/sketch_registry.h"
#include "src/core/spanning_forest.h"
#include "src/graph/generators.h"
#include "src/sketch/l0_sampler.h"
#include "src/sketch/serde.h"
#include "src/sketch/sparse_recovery.h"

namespace gsketch {
namespace {

TEST(Serde, ByteRoundTripPrimitives) {
  std::string buf;
  ByteWriter w(&buf);
  w.U8(0xab);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  ByteReader r(buf);
  EXPECT_EQ(r.U8().value(), 0xab);
  EXPECT_EQ(r.U32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.U64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I64().value(), -42);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serde, ReaderFailsOnTruncation) {
  std::string buf;
  ByteWriter w(&buf);
  w.U32(7);
  ByteReader r(buf);
  EXPECT_TRUE(r.U32().has_value());
  EXPECT_FALSE(r.U64().has_value());
  EXPECT_TRUE(r.failed());
}

TEST(Serde, L0SamplerRoundTripDecodesIdentically) {
  L0Sampler s(1 << 16, 6, 42);
  for (uint64_t i = 0; i < 100; ++i) s.Update(i * 37, 1 + (i % 3));
  std::string buf;
  s.AppendTo(&buf);
  ByteReader r(buf);
  auto back = L0Sampler::Deserialize(&r);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(r.AtEnd());
  auto a = s.Sample(), b = back->Sample();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->index, b->index);
  EXPECT_EQ(a->value, b->value);
}

TEST(Serde, L0SamplerCrossSiteMergeAfterShipping) {
  // Site A serializes; the coordinator deserializes and merges with its
  // own sketch; result equals a single-stream sketch.
  L0Sampler site_a(4096, 6, 7), coord(4096, 6, 7), whole(4096, 6, 7);
  for (uint64_t i = 0; i < 40; ++i) {
    site_a.Update(i, 1);
    whole.Update(i, 1);
  }
  for (uint64_t i = 40; i < 80; ++i) {
    coord.Update(i, 1);
    whole.Update(i, 1);
  }
  std::string wire;
  site_a.AppendTo(&wire);
  ByteReader r(wire);
  auto shipped = L0Sampler::Deserialize(&r);
  ASSERT_TRUE(shipped.has_value());
  coord.Merge(*shipped);
  auto a = coord.Sample(), b = whole.Sample();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->index, b->index);
}

TEST(Serde, L0SamplerRejectsGarbage) {
  std::string buf = "not a sketch at all, definitely";
  ByteReader r(buf);
  EXPECT_FALSE(L0Sampler::Deserialize(&r).has_value());
}

TEST(Serde, L0SamplerRejectsTruncated) {
  L0Sampler s(1024, 4, 9);
  s.Update(5, 1);
  std::string buf;
  s.AppendTo(&buf);
  buf.resize(buf.size() / 2);
  ByteReader r(buf);
  EXPECT_FALSE(L0Sampler::Deserialize(&r).has_value());
}

// Hostile headers: a count the remaining bytes cannot back is rejected
// before anything is sized for it, not met with std::bad_alloc (which
// the CLI's resume and merge do not catch).
TEST(Serde, L0SamplerRejectsRepetitionsPastInput) {
  std::string buf;
  ByteWriter w(&buf);
  w.U32(0x4c30534bu);  // "L0SK"
  w.U64(1024);         // domain
  w.U32(0xffffffffu);  // repetitions
  w.U64(9);            // seed
  ASSERT_EQ(buf.size(), 24u);
  ByteReader r(buf);
  std::optional<L0Sampler> s;
  EXPECT_NO_THROW(s = L0Sampler::Deserialize(&r));
  EXPECT_FALSE(s.has_value());
}

TEST(Serde, SpanningForestRejectsRoundsPastInput) {
  std::string buf;
  ByteWriter w(&buf);
  w.U32(0x53464b53u);  // "SFKS"
  w.U32(8);            // n
  w.U32(0xffffffffu);  // rounds
  ASSERT_EQ(buf.size(), 12u);
  ByteReader r(buf);
  std::optional<SpanningForestSketch> f;
  EXPECT_NO_THROW(f = SpanningForestSketch::Deserialize(&r));
  EXPECT_FALSE(f.has_value());
}

TEST(Serde, NodeBankRejectsNodeCountPastInput) {
  // A node count of 2^32 - 1 followed by one well-formed sampler record:
  // the arena for that count would be hundreds of GB.
  std::string buf;
  ByteWriter w(&buf);
  w.U32(0xffffffffu);
  L0Sampler(6, 3, 5).AppendTo(&buf);
  ByteReader r(buf);
  std::optional<NodeL0Bank> bank;
  EXPECT_NO_THROW(bank = NodeL0Bank::Deserialize(&r));
  EXPECT_FALSE(bank.has_value());
}

std::string U32s(std::initializer_list<uint32_t> words) {
  std::string buf;
  ByteWriter w(&buf);
  for (uint32_t word : words) w.U32(word);
  return buf;
}

// The same class of header one level up, through the registry: each
// family's count of nested sketches, at 2^32 - 1, must be bounded by the
// bytes left instead of reserved for.
TEST(Serde, FamilyHeadersRejectCountsPastInput) {
  constexpr uint32_t kHuge = 0xffffffffu;
  struct Hostile {
    const char* family;
    size_t count_offset;
    std::string header;  ///< ends with the count field
  };
  const Hostile cases[] = {
      {"kedge", 8, U32s({0x4b454353u, 8, kHuge})},  // "KECS", n, k
      {"mst", 8, U32s({0x4d535457u, 8, kHuge})},    // "WTSM", n, count
      // magic, n, k, max level, seed (lo, hi), level count
      {"mincut", 24, U32s({0x4d435554u, 8, 2, 3, 9, 0, kHuge})},
      {"sparsify", 24, U32s({0x53505346u, 8, 2, 3, 9, 0, kHuge})},
      {"triangles", 12, U32s({0x53554247u, 8, 3, kHuge})},  // n, order
  };
  for (const Hostile& h : cases) {
    SCOPED_TRACE(h.family);
    ASSERT_EQ(h.header.size(), h.count_offset + 4);
    std::string buf = h.header + std::string(64, '\0');
    ByteReader r(buf);
    std::unique_ptr<LinearSketch> sk;
    EXPECT_NO_THROW(sk = FindAlg(h.family)->deserialize(&r));
    EXPECT_EQ(sk, nullptr);
  }
}

// Complete-8 through a registered family at AlgOptions{} and seed 42:
// the payload its writer produces.
std::string Complete8Payload(const char* family) {
  auto sk = FindAlg(family)->make(8, AlgOptions{}, 42);
  for (const auto& e : CompleteGraph(8).Edges()) sk->Update(e.u, e.v, 1);
  std::string buf;
  sk->AppendTo(&buf);
  return buf;
}

// `payload` with the 32-bit header field at `offset` set to `value`.
std::string PatchU32(std::string payload, size_t offset, uint32_t value) {
  return payload.replace(offset, 4, U32s({value}));
}

// True when `family`'s registered reader accepts `payload` and reads it to
// its end.
bool ParsesToEnd(const char* family, const std::string& payload) {
  ByteReader r(payload);
  auto sk = FindAlg(family)->deserialize(&r);
  return sk != nullptr && r.AtEnd();
}

// Hostile headers that a reader can consume to the last byte but that no
// writer produces. Every cut writer clamps k >= 2 and gives each level k
// layers; a reader trusting the header answered complete-8's min cut of 7
// as "0 (unresolved)" at k = 0 and as "2" at k = 3, and decoded 0 and 6 of
// its 28 edges as a sparsifier.
TEST(Serde, CutHeadersRejectKUnlikeTheirLevels) {
  for (const char* family : {"mincut", "sparsify"}) {
    SCOPED_TRACE(family);
    const std::string payload = Complete8Payload(family);
    ASSERT_TRUE(ParsesToEnd(family, payload));
    for (uint32_t k : {0u, 3u}) {
      EXPECT_FALSE(ParsesToEnd(family, PatchU32(payload, 8, k))) << k;
    }
  }
}

// Every cut writer builds max_level + 1 levels. A smaller max_level over
// the same levels would leave the deeper ones without updates after a
// resume; 2^32 - 1 must not wrap to a level count of 0.
TEST(Serde, CutHeadersRejectLevelCountsUnlikeMaxLevel) {
  for (const char* family : {"mincut", "sparsify"}) {
    SCOPED_TRACE(family);
    const std::string payload = Complete8Payload(family);
    ASSERT_TRUE(ParsesToEnd(family, payload));
    for (uint32_t max_level : {2u, 0xffffffffu}) {
      EXPECT_FALSE(ParsesToEnd(family, PatchU32(payload, 12, max_level)))
          << max_level;
    }
  }
}

// The tester's k is its witness's k. A tester k of 5 over a 3-layer
// witness answered "kconnected" on complete-8 with "no"; a real k = 5
// sketch answers "yes".
TEST(Serde, KConnectRejectsTesterKUnlikeItsWitness) {
  const std::string payload = Complete8Payload("kconnect");  // k = 3
  ASSERT_TRUE(ParsesToEnd("kconnect", payload));
  for (uint32_t k : {2u, 5u}) {
    EXPECT_FALSE(ParsesToEnd("kconnect", PatchU32(payload, 4, k))) << k;
  }
}

TEST(Serde, SparseRecoveryRoundTrip) {
  SparseRecovery s(1 << 14, 8, 3, 11);
  s.Update(100, 5);
  s.Update(2000, -3);
  std::string buf;
  s.AppendTo(&buf);
  ByteReader r(buf);
  auto back = SparseRecovery::Deserialize(&r);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(r.AtEnd());
  auto da = s.Decode(), db = back->Decode();
  ASSERT_TRUE(da.ok);
  ASSERT_TRUE(db.ok);
  EXPECT_EQ(da.entries, db.entries);
}

TEST(Serde, SparseRecoverySubtractAfterShipping) {
  SparseRecovery a(4096, 8, 3, 13), b(4096, 8, 3, 13);
  a.Update(1, 1);
  a.Update(2, 2);
  b.Update(2, 2);
  std::string wire;
  b.AppendTo(&wire);
  ByteReader r(wire);
  auto shipped = SparseRecovery::Deserialize(&r);
  ASSERT_TRUE(shipped.has_value());
  a.Subtract(*shipped);
  auto d = a.Decode();
  ASSERT_TRUE(d.ok);
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].first, 1u);
}

TEST(Serde, SpanningForestRoundTripSameForest) {
  Graph g = ErdosRenyi(24, 0.25, 3);
  ForestOptions opt;
  opt.repetitions = 5;
  SpanningForestSketch sk(24, opt, 17);
  for (const auto& e : g.Edges()) sk.Update(e.u, e.v, 1);
  std::string wire;
  sk.AppendTo(&wire);
  ByteReader r(wire);
  auto back = SpanningForestSketch::Deserialize(&r);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(r.AtEnd());
  Graph fa = sk.ExtractForest(), fb = back->ExtractForest();
  EXPECT_EQ(fa.NumEdges(), fb.NumEdges());
  for (const auto& e : fa.Edges()) EXPECT_TRUE(fb.HasEdge(e.u, e.v));
}

TEST(Serde, ShippedForestSketchMergesWithLocal) {
  Graph g = ErdosRenyi(20, 0.3, 5);
  ForestOptions opt;
  opt.repetitions = 5;
  SpanningForestSketch site(20, opt, 19), coord(20, opt, 19),
      whole(20, opt, 19);
  size_t i = 0;
  for (const auto& e : g.Edges()) {
    ((i++ % 2 == 0) ? site : coord).Update(e.u, e.v, 1);
    whole.Update(e.u, e.v, 1);
  }
  std::string wire;
  site.AppendTo(&wire);
  ByteReader r(wire);
  auto shipped = SpanningForestSketch::Deserialize(&r);
  ASSERT_TRUE(shipped.has_value());
  coord.Merge(*shipped);
  EXPECT_EQ(coord.CountComponents(), whole.CountComponents());
}

TEST(Serde, WireSizeMatchesCellCount) {
  L0Sampler s(1 << 20, 4, 21);
  std::string buf;
  s.AppendTo(&buf);
  // header (4+8+4+8) + cells * 24 bytes.
  EXPECT_EQ(buf.size(), 24 + s.CellCount() * 24);
}

}  // namespace
}  // namespace gsketch
