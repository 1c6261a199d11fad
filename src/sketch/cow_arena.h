// Copy-on-write paged cell arena — the storage engine behind millisecond
// snapshot publication.
//
// A CowCellArena stores `num_slices` fixed-stride OneSparseCell slices
// (one per node) across fixed-size *pages*, each held by shared_ptr. A
// snapshot is a copy of the arena object: it shares every page with the
// live arena and costs O(pages) pointer copies — a few microseconds —
// instead of a deep clone of tens of megabytes of cells.
//
// Ownership is epoch-versioned. A process-global epoch counter is bumped
// whenever an arena is forked (copy-constructed); each arena remembers the
// epoch it last forked at, and, per page slot, the epoch in which it made
// that slot's page exclusively its own. A page is exclusively writable by
// an arena iff owned_[page] == arena.epoch_. The hot write path checks
// that with two loads of arena-owned words and an integer compare, and
// dereferences the page only once it is owned; only the FIRST write that
// touches a page after a fork pays for anything:
//   - if the page is still shared with a snapshot (use_count > 1), it is
//     cloned (one page-sized memcpy, ~64 KiB) and the slot repointed;
//   - if every snapshot that referenced it has been destroyed
//     (use_count == 1), it is re-owned in place by restamping the slot's
//     epoch — no copy at all.
// Either way the page is then owned for the rest of the epoch and writes
// proceed at raw-pointer speed, exactly as the flat arena did.
//
// Concurrency contract (mirrors the driver's, tests/cow_arena_test.cc):
//   - Forking (copy-construction) requires quiescence: no concurrent
//     writers on the source arena. The driver guarantees this — snapshots
//     are taken at drain barriers, and the resumption of ingestion
//     happens-after the fork via the driver's queue mutex.
//   - Between forks, concurrent writers may touch DISJOINT slices freely,
//     including slices sharing a page: first-touch cloning is serialized
//     by a stripe lock keyed on the page index (a capability-annotated
//     gsketch::Mutex; it is the INNER lock of the codebase's one nesting
//     pair — see src/core/sync.h), the winning clone is
//     release-published, and losers acquire-load the new page. Cell writes
//     within a page are to disjoint slices, so they never race.
//   - Snapshot holders only read; owned-in-current-epoch pages are never
//     reachable from a snapshot, and snapshot-reachable pages are never
//     written. Readers of a *live* arena must externally exclude writers
//     (same rule the flat arena had).
//   - A snapshot may be destroyed on any thread, while the live arena
//     ingests. Its pages are released under the same page-index stripe
//     that OwnPage holds, so a writer that finds itself a page's last
//     holder re-owns it only after the snapshot's reads of it. A page a
//     writer has cloned away may be freed by the snapshot at any moment,
//     which is why the hot path never dereferences a page it does not
//     own.
#ifndef GRAPHSKETCH_SRC_SKETCH_COW_ARENA_H_
#define GRAPHSKETCH_SRC_SKETCH_COW_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/sketch/one_sparse.h"

namespace gsketch {

/// Bumps and returns the process-global arena epoch (monotone, starts at 1).
uint64_t NextCowEpoch();

/// One fixed-size run of cells. Immutable while shared: an arena writes a
/// page only in an epoch in which it holds the page's only reference.
struct CowPage {
  std::vector<OneSparseCell> cells;

  explicit CowPage(size_t num_cells) : cells(num_cells) {}
  explicit CowPage(const std::vector<OneSparseCell>& src) : cells(src) {}
};

class CowCellArena {
 public:
  /// Page sizing target: whole slices per page, as many as fit in roughly
  /// this many bytes (one slice minimum). Small enough that first-touch
  /// copies stay cheap, large enough that the page table stays tiny.
  static constexpr size_t kTargetPageBytes = 64 * 1024;

  CowCellArena() = default;

  /// Zero-initialized arena of `num_slices` slices of `stride` cells each.
  /// All pages start exclusively owned (no copies until the first fork).
  CowCellArena(size_t num_slices, size_t stride);

  /// COW fork. O(pages): shares every page with `other` and gives BOTH
  /// arenas fresh epochs, so the first writer on either side clones (or
  /// re-owns) pages lazily. Requires quiescence on `other` (no concurrent
  /// writers); see the header comment for why that is the driver's
  /// natural snapshot point.
  CowCellArena(const CowCellArena& other);
  CowCellArena& operator=(const CowCellArena& other);

  CowCellArena(CowCellArena&& other) noexcept;
  CowCellArena& operator=(CowCellArena&& other) noexcept;

  /// Releases every page under its own-stripe (see the header comment).
  ~CowCellArena();

  /// Writable pointer to slice `slice` (stride() cells). First touch of a
  /// page in the current epoch clones or re-owns it; afterwards this is
  /// two loads and a compare on top of the flat arena's arithmetic.
  /// Safe to call concurrently for disjoint slices.
  OneSparseCell* MutableSlice(size_t slice) {
    size_t pi = slice / slices_per_page_;
    // acquire pairs with OwnPage's release of owned_[pi], which follows
    // its store of slots_[pi]; the slot load itself can then be relaxed.
    CowPage* p = owned_[pi].load(std::memory_order_acquire) ==
                         epoch_.load(std::memory_order_relaxed)
                     ? slots_[pi].load(std::memory_order_relaxed)
                     : OwnPage(pi);
    return p->cells.data() + (slice - pi * slices_per_page_) * stride_;
  }

  /// Read-only pointer to slice `slice`. Never copies. On a live arena the
  /// pointer is invalidated by a concurrent writer's first-touch clone of
  /// the same page; on a snapshot (no writers) it is stable for the
  /// arena's lifetime.
  const OneSparseCell* Slice(size_t slice) const {
    size_t pi = slice / slices_per_page_;
    const CowPage* p = slots_[pi].load(std::memory_order_acquire);
    return p->cells.data() + (slice - pi * slices_per_page_) * stride_;
  }

  size_t num_slices() const { return num_slices_; }
  size_t stride() const { return stride_; }
  /// Total cells across all slices (== num_slices * stride).
  size_t size() const { return num_slices_ * stride_; }
  bool empty() const { return size() == 0; }

  size_t num_pages() const { return num_pages_; }
  size_t slices_per_page() const { return slices_per_page_; }

  /// Pages currently shared with at least one other arena (snapshots).
  size_t SharedPages() const;
  /// Pages cloned by first-touch writes over this arena's lifetime.
  uint64_t PagesCloned() const {
    return clones_.load(std::memory_order_relaxed);
  }
  /// Heap bytes reachable from this arena, counting shared pages once.
  size_t ResidentBytes() const;

 private:
  /// Slow path: clone or re-own page `pi` under the page-index stripe
  /// lock; returns the (now owned) page.
  CowPage* OwnPage(size_t pi);

  /// Rebuilds slots_ from pages_, and owned_ with every slot stamped
  /// `owned_epoch` (0 = none owned).
  void AdoptPages(uint64_t owned_epoch);
  /// Drops every page reference, each under its own-stripe.
  void ReleasePages();

  size_t num_slices_ = 0;
  size_t stride_ = 0;
  size_t slices_per_page_ = 1;
  size_t num_pages_ = 0;
  /// Epoch this arena last forked at. Mutable: forking a const source
  /// must advance the source's epoch too (both sides lose exclusive
  /// ownership). Atomic so the hot-path load is race-free under TSan;
  /// ordering comes from the external quiescence contract.
  mutable std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> clones_{0};
  std::vector<std::shared_ptr<CowPage>> pages_;
  /// Raw page pointers for the lock-free hot path; updated with release
  /// stores when a page is cloned. Heap-allocated because atomics are
  /// immovable.
  std::unique_ptr<std::atomic<CowPage*>[]> slots_;
  /// Per slot, the epoch in which this arena made slots_[pi] exclusively
  /// its own; stored (release) only after the slot, under the stripe.
  std::unique_ptr<std::atomic<uint64_t>[]> owned_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_SKETCH_COW_ARENA_H_
