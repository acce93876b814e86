// Capability-annotated mutex wrappers — the only locking primitives the
// codebase may use (scripts/check_concurrency.py rejects naked std::mutex /
// std::shared_mutex / std::lock_guard / std::unique_lock outside this
// file).
//
// The wrappers are zero-overhead shims over the std primitives: every
// method is an inline forward, the scoped guards compile to the same code
// as std::lock_guard / std::shared_lock, and the debug-only owner tracking
// behind AssertHeld() vanishes under NDEBUG. What they add is the
// SENTINEL_CAPABILITY annotations that let clang's -Wthread-safety prove,
// at compile time, that every SENTINEL_GUARDED_BY field is only touched
// under its lock (see util/thread_annotations.h and DESIGN.md "Concurrency
// contracts").
//
//   sentinel::Mutex        — exclusive-only (std::mutex)
//   sentinel::SharedMutex  — reader/writer (std::shared_mutex)
//   sentinel::MutexLock    — scoped exclusive lock of a Mutex
//   sentinel::WriterLock   — scoped exclusive lock of a SharedMutex
//   sentinel::ReaderLock   — scoped shared lock of a SharedMutex
//   sentinel::CondVar      — condition variable bound to Mutex at the
//                            call site (Wait requires the capability)
//
// Contention telemetry (DESIGN.md "Performance observability"): a mutex
// constructed with a site name — Mutex mu{"flow_table.shard"} — feeds the
// named lock site in util/lock_telemetry.h whenever an acquire has to
// wait: contended-acquire count, total wait nanoseconds and a log4 wait
// histogram, all relaxed atomics. The slow path is detected with one
// try_lock, so an uncontended named acquire pays a branch and one relaxed
// increment; unnamed mutexes pay a single pointer test. The layer is always
// built in; SetLockTelemetryEnabled(false) turns the recording off at run
// time.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "util/check.h"
#include "util/lock_telemetry.h"
#include "util/thread_annotations.h"

namespace sentinel {

/// Exclusive mutex. In debug builds the owning thread is recorded so
/// AssertHeld() is a real runtime check; in release builds AssertHeld()
/// compiles to nothing but still informs the static analysis.
class SENTINEL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// Names this mutex's contention-telemetry site. Mutexes guarding the
  /// same logical resource (e.g. shards of one table) share a site name.
  explicit Mutex(const char* site) : site_(RegisterLockSite(site)) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SENTINEL_ACQUIRE() {
    if (site_ != nullptr && LockTelemetryEnabled()) {
      // ordering: relaxed — statistics only; see LockSiteStats.
      site_->acquisitions.fetch_add(1, std::memory_order_relaxed);
      if (!mu_.try_lock()) {
        const std::uint64_t wait_start_ns = LockNowNs();
        mu_.lock();
        RecordLockWait(site_, LockNowNs() - wait_start_ns);
      }
      DebugSetOwner();
      return;
    }
    mu_.lock();
    DebugSetOwner();
  }

  void Unlock() SENTINEL_RELEASE() {
    DebugClearOwner();
    mu_.unlock();
  }

  [[nodiscard]] bool TryLock() SENTINEL_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    DebugSetOwner();
    return true;
  }

  /// Debug-checked claim that the calling thread holds this mutex. Aborts
  /// in debug builds when it does not; informs -Wthread-safety always.
  void AssertHeld() const SENTINEL_ASSERT_CAPABILITY(this) {
#if !defined(NDEBUG)
    SENTINEL_CHECK(owner_.load(std::memory_order_relaxed) ==
                   std::this_thread::get_id())
        << "Mutex::AssertHeld: lock not held by this thread";
#endif
  }

 private:
  friend class CondVar;

  std::mutex mu_;
  LockSiteStats* site_ = nullptr;  // named-site telemetry; null = untracked
#if !defined(NDEBUG)
  // ordering: relaxed — owner_ is only written while mu_ is held, so the
  // mutex itself orders all well-formed accesses; the atomic exists so the
  // deliberately racy read in a *failing* AssertHeld is not UB.
  mutable std::atomic<std::thread::id> owner_{};
#endif

  void DebugSetOwner() {
#if !defined(NDEBUG)
    // ordering: relaxed — see owner_.
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }
  void DebugClearOwner() {
#if !defined(NDEBUG)
    // ordering: relaxed — see owner_.
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
#endif
  }
};

/// Reader/writer mutex. Only the exclusive owner is tracked in debug
/// builds (shared holders would need a per-thread registry), so
/// AssertHeld() checks exclusive ownership only.
class SENTINEL_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  /// Names this mutex's contention-telemetry site (see Mutex). Writer and
  /// reader waits both feed the same site.
  explicit SharedMutex(const char* site) : site_(RegisterLockSite(site)) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() SENTINEL_ACQUIRE() {
    if (site_ != nullptr && LockTelemetryEnabled()) {
      // ordering: relaxed — statistics only; see LockSiteStats.
      site_->acquisitions.fetch_add(1, std::memory_order_relaxed);
      if (!mu_.try_lock()) {
        const std::uint64_t wait_start_ns = LockNowNs();
        mu_.lock();
        RecordLockWait(site_, LockNowNs() - wait_start_ns);
      }
      DebugSetOwner();
      return;
    }
    mu_.lock();
    DebugSetOwner();
  }

  void Unlock() SENTINEL_RELEASE() {
    DebugClearOwner();
    mu_.unlock();
  }

  [[nodiscard]] bool TryLock() SENTINEL_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    DebugSetOwner();
    return true;
  }

  void LockShared() SENTINEL_ACQUIRE_SHARED() {
    if (site_ != nullptr && LockTelemetryEnabled()) {
      // ordering: relaxed — statistics only; see LockSiteStats.
      site_->acquisitions.fetch_add(1, std::memory_order_relaxed);
      if (!mu_.try_lock_shared()) {
        const std::uint64_t wait_start_ns = LockNowNs();
        mu_.lock_shared();
        RecordLockWait(site_, LockNowNs() - wait_start_ns);
      }
      return;
    }
    mu_.lock_shared();
  }
  void UnlockShared() SENTINEL_RELEASE_SHARED() { mu_.unlock_shared(); }
  [[nodiscard]] bool TryLockShared() SENTINEL_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

  /// Debug-checked claim that the calling thread holds this mutex
  /// EXCLUSIVELY. Aborts in debug builds when it does not.
  void AssertHeld() const SENTINEL_ASSERT_CAPABILITY(this) {
#if !defined(NDEBUG)
    SENTINEL_CHECK(owner_.load(std::memory_order_relaxed) ==
                   std::this_thread::get_id())
        << "SharedMutex::AssertHeld: exclusive lock not held by this thread";
#endif
  }

 private:
  std::shared_mutex mu_;
  LockSiteStats* site_ = nullptr;  // named-site telemetry; null = untracked
#if !defined(NDEBUG)
  // ordering: relaxed — written only under the exclusive lock; atomic only
  // to keep the failing-AssertHeld read defined. See Mutex::owner_.
  mutable std::atomic<std::thread::id> owner_{};
#endif

  void DebugSetOwner() {
#if !defined(NDEBUG)
    // ordering: relaxed — see owner_.
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }
  void DebugClearOwner() {
#if !defined(NDEBUG)
    // ordering: relaxed — see owner_.
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
#endif
  }
};

/// Scoped exclusive lock of a Mutex. Supports early Unlock() for
/// lock-shorten patterns; the destructor releases only if still held.
class SENTINEL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SENTINEL_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }

  ~MutexLock() SENTINEL_RELEASE() {
    if (held_) mu_.Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases before end of scope (e.g. to run callbacks outside the
  /// critical section). The destructor then does nothing.
  void Unlock() SENTINEL_RELEASE() {
    mu_.Unlock();
    held_ = false;
  }

 private:
  friend class CondVar;

  Mutex& mu_;
  bool held_ = true;
};

/// Scoped exclusive lock of a SharedMutex (the writer side).
class SENTINEL_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) SENTINEL_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }

  ~WriterLock() SENTINEL_RELEASE() {
    if (held_) mu_.Unlock();
  }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

  void Unlock() SENTINEL_RELEASE() {
    mu_.Unlock();
    held_ = false;
  }

 private:
  SharedMutex& mu_;
  bool held_ = true;
};

/// Scoped shared (reader) lock of a SharedMutex.
class SENTINEL_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) SENTINEL_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }

  ~ReaderLock() SENTINEL_RELEASE() {
    if (held_) mu_.UnlockShared();
  }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

  void Unlock() SENTINEL_RELEASE() {
    mu_.UnlockShared();
    held_ = false;
  }

 private:
  SharedMutex& mu_;
  bool held_ = true;
};

/// Condition variable used with sentinel::Mutex. Wait() takes the Mutex it
/// synchronizes on; -Wthread-safety checks the caller actually holds it.
/// The capability is considered held across the wait (the lock is
/// reacquired before return), matching the std::condition_variable
/// contract.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) SENTINEL_REQUIRES(mu) {
    mu.DebugClearOwner();
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
    mu.DebugSetOwner();
  }

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) SENTINEL_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  /// Returns false if `rel_time` elapsed without `pred` becoming true.
  template <typename Rep, typename Period, typename Predicate>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& rel_time,
               Predicate pred) SENTINEL_REQUIRES(mu) {
    mu.DebugClearOwner();
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const bool satisfied = cv_.wait_for(lock, rel_time, std::move(pred));
    lock.release();
    mu.DebugSetOwner();
    return satisfied;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace sentinel
