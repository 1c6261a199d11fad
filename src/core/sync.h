// The project's ONLY synchronization primitives, capability-annotated for
// Clang Thread Safety Analysis — the compile-time half of the concurrency
// contract (the runtime half is the TSan CI tier).
//
// Every locking invariant in the concurrent layers used to live in
// comments and was checked only dynamically, by whatever interleavings the
// TSan job happened to execute. These wrappers move the contract into the
// type system: fields carry GSKETCH_GUARDED_BY(mu), helpers that expect a
// lock carry GSKETCH_REQUIRES(mu), and clang's -Wthread-safety rejects any
// access that cannot prove it holds the right capability — at compile
// time, on every future PR, for interleavings no test ever runs. On
// non-clang compilers (gcc builds, including every sanitizer tier) the
// macros expand to nothing and the wrappers cost exactly what the raw
// std::mutex/std::condition_variable they replace cost.
//
// Usage rules (enforced by tools/gsketch_lint as a ctest + CI step):
//   * No raw std::mutex / std::condition_variable / std::lock_guard /
//     std::unique_lock / std::scoped_lock anywhere in src/ outside this
//     header. Use Mutex / MutexLock / CondVar.
//   * Scoped locking only: MutexLock is the normal way to hold a Mutex.
//     Mutex::Lock()/Unlock() exist for the rare non-scoped shape and are
//     equally annotated.
//   * Condition waits are explicit loops at the call site —
//         MutexLock lock(mu_);
//         while (!ready_) cv_.Wait(mu_);
//     — NOT predicate lambdas. A lambda body is a separate function to the
//     analysis, so guarded-field reads inside it cannot be proven; the
//     explicit loop keeps every access inside the function that visibly
//     holds the capability.
//
// Lock-order contract across the concurrent layers (the full capability
// map lives in docs/ARCHITECTURE.md "Concurrency contract"):
//
//   IngestPipeline::Shard::mu      queue push/pop; NEVER held while a
//                                  batch is applied to a sketch
//   IngestPipeline::stripes_[i]    apply stripe, per (session, endpoint);
//                                  held across sink apply calls, by a
//                                  worker or by the producer (caller-runs
//                                  flushes and Drain's help)
//   CowCellArena own-stripe        first-touch page clone; acquired UNDER
//                                  an apply stripe when an ingestion
//                                  apply first touches a COW page, and
//                                  with nothing held when an arena (a
//                                  released snapshot, on any thread)
//                                  drops its page references
//   IngestPipeline::drained_mu_    drain barrier wakeup; leaf — taken with
//                                  no other lock held, by design (appliers
//                                  only touch it after releasing
//                                  everything else; see ApplyItem)
//   SnapshotStore::mu_             latest-snapshot slot; leaf — the
//                                  capture it supersedes is released
//                                  after it is unlocked
//   QueryEngine::mu_               submission queue; leaf — answers are
//                                  decoded with the lock RELEASED
//   InsertionTracker::mu_          sampler wakeup; leaf
//
// The only nesting pair is therefore
//     apply stripe  →  COW own-stripe
// and both sides are dynamically striped (array-indexed) locks, which
// GSKETCH_ACQUIRED_BEFORE/_AFTER cannot name — the attributes take a
// specific capability declaration, not an element of an array chosen at
// runtime. The order is documented here and in the two call sites instead,
// and the primitive ban guarantees no future code can introduce an
// un-audited lock that widens the graph. Where two NAMED mutexes do nest
// in future code, annotate them:
//     Mutex coarse_;
//     Mutex fine_ GSKETCH_ACQUIRED_AFTER(coarse_);
#ifndef GRAPHSKETCH_SRC_CORE_SYNC_H_
#define GRAPHSKETCH_SRC_CORE_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

// ------------------------------------------------------------------------
// Thread-safety-analysis attribute macros (clang only; no-ops elsewhere).
// Names and semantics follow the standard Abseil/Clang vocabulary:
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
// ------------------------------------------------------------------------
#if defined(__clang__)
#define GSKETCH_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define GSKETCH_THREAD_ANNOTATION__(x)  // no-op: gcc et al.
#endif

/// Declares a type to be a capability (a lockable thing).
#define GSKETCH_CAPABILITY(x) GSKETCH_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII type whose constructor acquires and destructor
/// releases a capability.
#define GSKETCH_SCOPED_CAPABILITY \
  GSKETCH_THREAD_ANNOTATION__(scoped_lockable)

/// Field may only be accessed while holding capability `x`.
#define GSKETCH_GUARDED_BY(x) GSKETCH_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer field: the POINTED-TO data may only be accessed holding `x`.
#define GSKETCH_PT_GUARDED_BY(x) \
  GSKETCH_THREAD_ANNOTATION__(pt_guarded_by(x))

/// This capability must be acquired before / after the named ones.
#define GSKETCH_ACQUIRED_BEFORE(...) \
  GSKETCH_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define GSKETCH_ACQUIRED_AFTER(...) \
  GSKETCH_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// Caller must hold the capability (and still holds it on return).
#define GSKETCH_REQUIRES(...) \
  GSKETCH_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define GSKETCH_ACQUIRE(...) \
  GSKETCH_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function releases the capability (caller must hold it on entry).
#define GSKETCH_RELEASE(...) \
  GSKETCH_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function returns true iff it acquired the capability.
#define GSKETCH_TRY_ACQUIRE(...) \
  GSKETCH_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock guard).
#define GSKETCH_EXCLUDES(...) \
  GSKETCH_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define GSKETCH_RETURN_CAPABILITY(x) \
  GSKETCH_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: body is exempt from analysis (declaration attributes
/// still apply at call sites). Every use must carry a justification.
#define GSKETCH_NO_THREAD_SAFETY_ANALYSIS \
  GSKETCH_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace gsketch {

class CondVar;

/// std::mutex with the capability attribute, so fields can be declared
/// GSKETCH_GUARDED_BY(mu_) and helpers GSKETCH_REQUIRES(mu_).
class GSKETCH_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GSKETCH_ACQUIRE() { mu_.lock(); }
  void Unlock() GSKETCH_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;  // waits need the native handle; nobody else does

  std::mutex mu_;
};

/// RAII scoped lock over Mutex — the project's lock_guard/unique_lock
/// replacement. The analysis tracks the capability through the scope.
class GSKETCH_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GSKETCH_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~MutexLock() GSKETCH_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable that waits directly on a Mutex. Waits REQUIRE the
/// mutex, making the caller's explicit `while (!pred) cv.Wait(mu);` loop
/// fully analyzable (the capability is visibly held around every guarded
/// read in the predicate). Internally this is a plain
/// std::condition_variable: Wait adopts the Mutex's native handle into a
/// unique_lock for the duration of the block and releases it back,
/// so there is no condition_variable_any overhead.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified (or spuriously
  /// woken), and reacquires `mu` before returning. Callers loop on their
  /// predicate.
  void Wait(Mutex& mu) GSKETCH_REQUIRES(mu) GSKETCH_NO_THREAD_SAFETY_ANALYSIS {
    // Adopt-and-release: the analysis cannot see through unique_lock, but
    // the lock state on exit equals the state on entry, which is exactly
    // what REQUIRES promises.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  /// Like Wait, but returns false if `deadline` passed without a notify
  /// (the mutex is reacquired either way). Callers loop:
  ///   while (!pred() && cv.WaitUntil(mu, deadline)) {}
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      GSKETCH_REQUIRES(mu) GSKETCH_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status == std::cv_status::no_timeout;
  }

  /// Wakes one / all waiters. May be called with or without the mutex;
  /// every use in this codebase notifies while holding it (the state the
  /// waiter's predicate reads is then stable at wakeup).
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_CORE_SYNC_H_
