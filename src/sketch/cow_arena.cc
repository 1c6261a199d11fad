#include "src/sketch/cow_arena.h"

#include <utility>

#include "src/core/sync.h"

namespace gsketch {

namespace {

// relaxed fetch_add in NextCowEpoch: the counter only needs uniqueness
// and monotonicity; fork-time publication order is provided by the
// driver's quiescence contract, not by this counter.
std::atomic<uint64_t> g_cow_epoch{0};

// First-touch cloning serializes on the page index, not the arena: two
// writers cloning different pages of one bank (or the same page index of
// two banks — harmless false sharing of the lock only) proceed in
// parallel. 64 stripes matches the driver's apply-lock striping.
//
// Lock order (src/core/sync.h): an own-stripe is the INNER half of the
// codebase's one nesting pair — ingestion workers reach OwnPage while
// holding an IngestPipeline apply stripe. ReleasePages takes own-stripes
// with nothing else held. Nothing is ever acquired under an own-stripe.
constexpr size_t kOwnStripes = 64;

Mutex& OwnStripe(size_t page_index) {
  static Mutex stripes[kOwnStripes];
  return stripes[page_index % kOwnStripes];
}

}  // namespace

uint64_t NextCowEpoch() {
  return g_cow_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
}

CowCellArena::CowCellArena(size_t num_slices, size_t stride)
    : num_slices_(num_slices), stride_(stride) {
  size_t slice_bytes = stride_ * sizeof(OneSparseCell);
  slices_per_page_ =
      slice_bytes == 0 ? 1
                       : (kTargetPageBytes / slice_bytes > 0
                              ? kTargetPageBytes / slice_bytes
                              : 1);
  num_pages_ = (num_slices_ + slices_per_page_ - 1) / slices_per_page_;
  uint64_t epoch = NextCowEpoch();
  // relaxed: construction is single-threaded; publication to other
  // threads happens-after via whatever hands the arena over.
  epoch_.store(epoch, std::memory_order_relaxed);
  pages_.reserve(num_pages_);
  for (size_t pi = 0; pi < num_pages_; ++pi) {
    size_t first = pi * slices_per_page_;
    size_t count = std::min(slices_per_page_, num_slices_ - first);
    pages_.push_back(std::make_shared<CowPage>(count * stride_));
  }
  AdoptPages(epoch);
}

CowCellArena::CowCellArena(const CowCellArena& other)
    : num_slices_(other.num_slices_),
      stride_(other.stride_),
      slices_per_page_(other.slices_per_page_),
      num_pages_(other.num_pages_),
      pages_(other.pages_) {
  // Both sides lose exclusive ownership of every shared page: give each a
  // fresh epoch so no slot's owned_ stamp matches either arena until it
  // is first-touched again. relaxed: forking REQUIRES quiescence (no
  // concurrent writers on either arena), so these stores race nothing.
  epoch_.store(NextCowEpoch(), std::memory_order_relaxed);
  other.epoch_.store(NextCowEpoch(), std::memory_order_relaxed);
  AdoptPages(0);
}

CowCellArena& CowCellArena::operator=(const CowCellArena& other) {
  if (this != &other) {
    CowCellArena tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

// Moves are producer-side only (relaxed everywhere): an arena is never
// moved while any thread writes it.
CowCellArena::CowCellArena(CowCellArena&& other) noexcept
    : num_slices_(other.num_slices_),
      stride_(other.stride_),
      slices_per_page_(other.slices_per_page_),
      num_pages_(other.num_pages_),
      pages_(std::move(other.pages_)),
      slots_(std::move(other.slots_)),
      owned_(std::move(other.owned_)) {
  epoch_.store(other.epoch_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  clones_.store(other.clones_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  other.num_slices_ = 0;
  other.num_pages_ = 0;
}

CowCellArena& CowCellArena::operator=(CowCellArena&& other) noexcept {
  if (this != &other) {
    num_slices_ = other.num_slices_;
    stride_ = other.stride_;
    slices_per_page_ = other.slices_per_page_;
    num_pages_ = other.num_pages_;
    epoch_.store(other.epoch_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    clones_.store(other.clones_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    ReleasePages();
    pages_ = std::move(other.pages_);
    slots_ = std::move(other.slots_);
    owned_ = std::move(other.owned_);
    other.num_slices_ = 0;
    other.num_pages_ = 0;
  }
  return *this;
}

CowCellArena::~CowCellArena() { ReleasePages(); }

void CowCellArena::AdoptPages(uint64_t owned_epoch) {
  slots_ = std::make_unique<std::atomic<CowPage*>[]>(num_pages_);
  owned_ = std::make_unique<std::atomic<uint64_t>[]>(num_pages_);
  for (size_t pi = 0; pi < num_pages_; ++pi) {
    // relaxed: runs only at construction/fork time (quiescent by
    // contract); concurrent readers appear strictly later.
    slots_[pi].store(pages_[pi].get(), std::memory_order_relaxed);
    owned_[pi].store(owned_epoch, std::memory_order_relaxed);
  }
}

void CowCellArena::ReleasePages() {
  for (size_t pi = 0; pi < pages_.size(); ++pi) {
    MutexLock lock(OwnStripe(pi));
    pages_[pi].reset();
  }
}

CowPage* CowCellArena::OwnPage(size_t pi) {
  MutexLock lock(OwnStripe(pi));
  const uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  // Double-check: another writer may have owned this page while we waited
  // on the stripe (relaxed: its stores happen-before our lock).
  if (owned_[pi].load(std::memory_order_relaxed) == epoch) {
    return slots_[pi].load(std::memory_order_relaxed);
  }
  // use_count() == 1: every snapshot that shared this page has released
  // it, under this stripe (ReleasePages), so its reads happen-before our
  // writes; re-own in place. The count can only RISE at a (quiescent)
  // fork, so ==1 is stable for the rest of this epoch. Otherwise clone.
  // The page given up stays alive for as long as a snapshot holds it; no
  // writer dereferences it again (MutableSlice reads owned_ first).
  if (pages_[pi].use_count() != 1) {
    pages_[pi] = std::make_shared<CowPage>(pages_[pi]->cells);
    slots_[pi].store(pages_[pi].get(), std::memory_order_release);
    clones_.fetch_add(1, std::memory_order_relaxed);
  }
  owned_[pi].store(epoch, std::memory_order_release);
  return pages_[pi].get();
}

size_t CowCellArena::SharedPages() const {
  size_t shared = 0;
  for (const auto& p : pages_) {
    if (p.use_count() > 1) ++shared;
  }
  return shared;
}

size_t CowCellArena::ResidentBytes() const {
  size_t bytes = 0;
  for (const auto& p : pages_) {
    bytes += p->cells.size() * sizeof(OneSparseCell);
  }
  bytes += num_pages_ * (sizeof(std::shared_ptr<CowPage>) +
                         sizeof(std::atomic<CowPage*>) +
                         sizeof(std::atomic<uint64_t>));
  return bytes;
}

}  // namespace gsketch
