// Unit tests for the copy-on-write paged arena (src/sketch/cow_arena.h)
// and the eager exact spanning forest (src/driver/eager_forest.h) — the
// two structures behind millisecond snapshot publication.
//
// The arena's load-bearing property: a fork is O(pages) and both sides
// then behave exactly like independent flat arenas — writes on either
// side never show through to the other, and a page is physically copied
// at most once per fork per writer (or not at all, when every snapshot
// that shared it is already gone).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/driver/eager_forest.h"
#include "src/sketch/cow_arena.h"

namespace gsketch {
namespace {

// Stamps a recognizable value into slice `s` of `a`.
void StampSlice(CowCellArena* a, size_t s, int64_t delta) {
  OneSparseCell* cells = a->MutableSlice(s);
  for (size_t i = 0; i < a->stride(); ++i) {
    cells[i].Update(/*index=*/s, delta, /*finger=*/s + 1);
  }
}

std::vector<OneSparseCell> SliceCopy(const CowCellArena& a, size_t s) {
  const OneSparseCell* cells = a.Slice(s);
  return std::vector<OneSparseCell>(cells, cells + a.stride());
}

bool SameCells(const std::vector<OneSparseCell>& x,
               const std::vector<OneSparseCell>& y) {
  auto bytes = [](const std::vector<OneSparseCell>& v) {
    std::string out;
    ByteWriter w(&out);
    for (const auto& c : v) c.AppendTo(&w);
    return out;
  };
  return bytes(x) == bytes(y);
}

TEST(CowArena, ForkSharesPagesPhysically) {
  CowCellArena a(/*num_slices=*/64, /*stride=*/8);
  StampSlice(&a, 0, +3);
  CowCellArena snap(a);
  // No copy yet: both sides read the same physical cells.
  EXPECT_EQ(a.Slice(0), snap.Slice(0));
  EXPECT_EQ(a.SharedPages(), a.num_pages());
  EXPECT_EQ(snap.PagesCloned(), 0u);
  EXPECT_EQ(a.PagesCloned(), 0u);
}

TEST(CowArena, FirstTouchClonesOnceAndSnapshotIsImmutable) {
  CowCellArena a(/*num_slices=*/64, /*stride=*/8);
  StampSlice(&a, 5, +3);
  const auto frozen = SliceCopy(a, 5);

  CowCellArena snap(a);
  StampSlice(&a, 5, +1);  // first touch after the fork: clones the page
  EXPECT_EQ(a.PagesCloned(), 1u);
  // The snapshot still reads the pre-fork bytes; the live arena moved on.
  EXPECT_TRUE(SameCells(SliceCopy(snap, 5), frozen));
  EXPECT_FALSE(SameCells(SliceCopy(a, 5), frozen));

  // Later writes to the same page are raw-speed: no further clones.
  StampSlice(&a, 5, +1);
  StampSlice(&a, 5, -2);
  EXPECT_EQ(a.PagesCloned(), 1u);
}

TEST(CowArena, DroppedSnapshotLetsPagesReownWithoutCopy) {
  CowCellArena a(/*num_slices=*/64, /*stride=*/8);
  {
    CowCellArena snap(a);
    EXPECT_GT(a.SharedPages(), 0u);
  }
  // The only sharer died: the first write restamps in place, no clone.
  StampSlice(&a, 0, +1);
  EXPECT_EQ(a.PagesCloned(), 0u);
  EXPECT_EQ(a.SharedPages(), 0u);
}

TEST(CowArena, WritesOnBothSidesOfAForkStayIndependent) {
  CowCellArena a(/*num_slices=*/32, /*stride=*/4);
  for (size_t s = 0; s < 32; ++s) StampSlice(&a, s, +1);
  CowCellArena b(a);
  StampSlice(&a, 3, +5);
  StampSlice(&b, 3, -5);
  StampSlice(&b, 17, +2);

  CowCellArena ref_a(/*num_slices=*/32, /*stride=*/4);
  for (size_t s = 0; s < 32; ++s) StampSlice(&ref_a, s, +1);
  StampSlice(&ref_a, 3, +5);
  CowCellArena ref_b(/*num_slices=*/32, /*stride=*/4);
  for (size_t s = 0; s < 32; ++s) StampSlice(&ref_b, s, +1);
  StampSlice(&ref_b, 3, -5);
  StampSlice(&ref_b, 17, +2);

  for (size_t s = 0; s < 32; ++s) {
    EXPECT_TRUE(SameCells(SliceCopy(a, s), SliceCopy(ref_a, s))) << s;
    EXPECT_TRUE(SameCells(SliceCopy(b, s), SliceCopy(ref_b, s))) << s;
  }
}

TEST(CowArena, ChainedForksEachGetTheBytesAtTheirInstant) {
  CowCellArena a(/*num_slices=*/16, /*stride=*/2);
  StampSlice(&a, 1, +1);
  CowCellArena s1(a);
  StampSlice(&a, 1, +1);
  CowCellArena s2(a);
  StampSlice(&a, 1, +1);

  auto count_of = [](const CowCellArena& x) {
    // All stride cells saw identical updates; count_ is delta-summed.
    return SliceCopy(x, 1);
  };
  EXPECT_FALSE(SameCells(count_of(s1), count_of(s2)));
  EXPECT_FALSE(SameCells(count_of(s2), count_of(a)));
}

// A snapshot's last holder may release it on any thread while writers on
// disjoint slices of shared pages first-touch them (clone or re-own). The
// snapshot must read its fork-time bytes throughout, the live arena must
// end with every write, and under TSan no writer may read a page the
// release frees, nor re-own one before the snapshot's reads of it.
TEST(CowArena, SnapshotReleasedOnAnotherThreadWhileWritersRun) {
  constexpr size_t kSlices = 64;
  constexpr size_t kWriters = 4;
  constexpr int kRounds = 40;
  CowCellArena a(kSlices, /*stride=*/256);
  ASSERT_GT(a.slices_per_page(), kWriters);  // writers share every page
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<OneSparseCell>> frozen;
    for (size_t s = 0; s < kSlices; ++s) frozen.push_back(SliceCopy(a, s));
    auto snap = std::make_unique<CowCellArena>(a);  // quiescent fork
    bool snapshot_intact = true;
    std::thread reader([&] {
      for (size_t s = 0; s < kSlices; ++s) {
        snapshot_intact &= SameCells(SliceCopy(*snap, s), frozen[s]);
      }
      snap.reset();
    });
    std::vector<std::thread> writers;
    for (size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&a, w] {
        for (size_t s = w; s < kSlices; s += kWriters) StampSlice(&a, s, +1);
      });
    }
    reader.join();
    for (auto& t : writers) t.join();
    EXPECT_TRUE(snapshot_intact) << "round " << round;
  }
  CowCellArena ref(kSlices, /*stride=*/256);
  for (int round = 0; round < kRounds; ++round) {
    for (size_t s = 0; s < kSlices; ++s) StampSlice(&ref, s, +1);
  }
  for (size_t s = 0; s < kSlices; ++s) {
    EXPECT_TRUE(SameCells(SliceCopy(a, s), SliceCopy(ref, s))) << s;
  }
}

// ------------------------------------------------------ EagerForest --

TEST(EagerForest, InsertOnlyTracksExactConnectivity) {
  EagerForest f(/*n=*/8);
  f.Apply(0, 1, +1);
  f.Apply(1, 2, +1);
  f.Apply(4, 5, +1);
  ASSERT_TRUE(f.valid());
  auto cut = f.Capture();
  ASSERT_NE(cut, nullptr);
  EXPECT_EQ(cut->components, 5u);  // {0,1,2} {4,5} {3} {6} {7}
  EXPECT_TRUE(cut->Connected(0, 2));
  EXPECT_FALSE(cut->Connected(0, 4));
}

TEST(EagerForest, NonForestDeletionKeepsItValid) {
  EagerForest f(/*n=*/4);
  f.Apply(0, 1, +1);
  f.Apply(0, 1, +1);  // duplicate: multiplicity 2, forest edge once
  f.Apply(0, 1, -1);  // back to multiplicity 1 — forest edge still present
  ASSERT_TRUE(f.valid());
  auto cut = f.Capture();
  ASSERT_NE(cut, nullptr);
  EXPECT_TRUE(cut->Connected(0, 1));

  EagerForest g(/*n=*/4);
  g.Apply(0, 1, +1);
  g.Apply(2, 3, +1);
  g.Apply(2, 3, +1);
  g.Apply(2, 3, -1);  // non-forest copy removed; forest copy remains
  EXPECT_TRUE(g.valid());
}

TEST(EagerForest, ForestEdgeDeletionInvalidatesPermanently) {
  EagerForest f(/*n=*/4);
  f.Apply(0, 1, +1);
  f.Apply(1, 2, +1);
  f.Apply(0, 1, -1);  // removes a forest edge: exactness is gone
  EXPECT_FALSE(f.valid());
  EXPECT_EQ(f.Capture(), nullptr);
  f.Apply(2, 3, +1);  // permanently off, even for fresh inserts
  EXPECT_FALSE(f.valid());
  EXPECT_EQ(f.Capture(), nullptr);
}

TEST(EagerForest, CapturedCutIsAStableSnapshot) {
  EagerForest f(/*n=*/6);
  f.Apply(0, 1, +1);
  auto cut = f.Capture();
  ASSERT_NE(cut, nullptr);
  f.Apply(1, 2, +1);
  f.Apply(3, 4, +1);
  // The old capture still answers for its instant.
  EXPECT_TRUE(cut->Connected(0, 1));
  EXPECT_FALSE(cut->Connected(1, 2));
  EXPECT_EQ(cut->components, 5u);
  // A fresh capture sees the new edges.
  auto cut2 = f.Capture();
  ASSERT_NE(cut2, nullptr);
  EXPECT_TRUE(cut2->Connected(0, 2));
  EXPECT_EQ(cut2->components, 3u);
}

}  // namespace
}  // namespace gsketch
