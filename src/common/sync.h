// The concurrency-discipline layer: Clang Thread Safety Analysis (TSA)
// annotations plus the annotated lock types every lock in this tree uses.
//
// Why this exists: the whole stack rests on a delicate protocol — lock-free
// trie descent over COW buckets, per-leaf locks with version validation, QSBR
// epoch pins — that sanitizers (ASan/TSan hammers in scripts/check.sh) only
// check dynamically, one interleaving at a time. TSA is the deterministic,
// compile-time complement: data is annotated with the capability (lock) that
// guards it, functions declare what they acquire/release/require, and
// `clang++ -Wthread-safety` proves every annotated access consistent on every
// path. GCC compiles the same code with the annotations erased.
//
// The lock discipline itself (what the annotations encode) is documented in
// README.md "Lock discipline": the hierarchy is
//
//   Wormhole::meta_mu_  >  Leaf::lock  >  Qsbr internal locks
//
// i.e. a thread holding a leaf lock never acquires meta_mu_, and QSBR's
// slots/retire locks are only ever innermost (Retire runs under meta_mu_).
//
// Usage rules (enforced by scripts/lint_concurrency.py):
//   - No raw std::mutex / std::shared_mutex / std::*_lock declarations
//     anywhere outside this header. Use Mutex / SharedMutex and the scoped
//     lockers below, so every lock is a capability TSA can see.
//   - NO_THREAD_SAFETY_ANALYSIS is a last resort for paths whose lock
//     identity is data-dependent in ways TSA cannot express (e.g. functions
//     returning with a leaf lock held, loop-carried held-lock reuse). Every
//     use must carry a comment saying WHY analysis is waived; bare waivers
//     fail review.
//   - Seqlock readers are the third accepted NO_TSA shape: a function that
//     reads GUARDED_BY data with NO lock held, bracketed by
//     leafops::SeqlockReadBegin / SeqlockReadValidate on the guarding leaf's
//     version counter. Point reads (Wormhole::OptimisticLeafGet) and cursor
//     window fills (Wormhole::CursorImpl::ExtractWindow + the deep neighbor
//     prefetch TrySpecFill issues) are the two instances. They are also the
//     read fallbacks: Wormhole::LockedLeafGet and a locked TrySpecFill run
//     the same function while holding the leaf's shared lock, which TSA
//     cannot see through the data-dependent leaf. Such functions must (a)
//     never dereference out of the validated snapshot (every index/offset is
//     bounds-checked against the acquired block capacity — for window fills
//     the copy pass must also reuse the exact slot snapshots the layout pass
//     sized, never re-load), (b) discard all results when validation fails,
//     and (c) touch the version counter and the leaf dead flag only through
//     the leaf_ops.h / Leaf helpers — direct version or dead-flag atomic
//     calls elsewhere, or any without an explicit std::memory_order, fail
//     the `seqlock-order` lint rule.
//
// The macro set below is the standard one from the Clang TSA documentation
// (mirrors Abseil's). The attributes are erased unless the compiler supports
// them (`__has_attribute`), so GCC builds see plain std wrappers; all wrapper
// methods are trivially inlined, making the layer zero-cost in release
// builds.
#ifndef WH_SRC_COMMON_SYNC_H_
#define WH_SRC_COMMON_SYNC_H_

#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define WH_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef WH_THREAD_ANNOTATION
#define WH_THREAD_ANNOTATION(x)  // not Clang: annotations erase to nothing
#endif

// On types: this class is a lockable capability / an RAII scope managing one.
#define CAPABILITY(x) WH_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY WH_THREAD_ANNOTATION(scoped_lockable)

// On data members: readable only while holding the capability (shared for
// reads, exclusive for writes). PT_GUARDED_BY guards the pointee of a pointer.
#define GUARDED_BY(x) WH_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) WH_THREAD_ANNOTATION(pt_guarded_by(x))

// On functions: caller must already hold the capabilities (exclusively /
// shared) for the duration of the call.
#define REQUIRES(...) WH_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  WH_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// On functions: the call acquires / releases the capabilities (caller must
// not / must hold them on entry).
#define ACQUIRE(...) WH_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  WH_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) WH_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  WH_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  WH_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  WH_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  WH_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

// On functions: caller must NOT hold the capability (the function acquires it
// itself, or would deadlock / invert the hierarchy if the caller held it).
#define EXCLUDES(...) WH_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// In function bodies: tell the analysis a capability is held when it cannot
// see the acquisition (e.g. a lock handed over by a NO_TSA helper such as
// Wormhole::AcquireLeaf). A runtime no-op.
#define ASSERT_CAPABILITY(x) WH_THREAD_ANNOTATION(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  WH_THREAD_ANNOTATION(assert_shared_capability(x))

// On functions returning a reference to a capability.
#define RETURN_CAPABILITY(x) WH_THREAD_ANNOTATION(lock_returned(x))

// Waives analysis for one function. EVERY use must carry a comment
// explaining why the protocol is inexpressible; the dynamic checks (TSan
// stage) remain the enforcement for waived paths.
#define NO_THREAD_SAFETY_ANALYSIS \
  WH_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace wh {

// Annotated exclusive mutex: a thin, zero-cost wrapper over std::mutex whose
// methods carry the capability attributes. AssertHeld() injects "held" facts
// for locks acquired through data-dependent helpers.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
};

// Annotated reader-writer mutex over std::shared_mutex (per-leaf locks, the
// masstree-wide lock). Exclusive side = writer, shared side = reader.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  void lock_shared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }
  void unlock_shared() RELEASE_SHARED() { mu_.unlock_shared(); }
  void AssertHeld() const ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() const ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

// The lock of a single-threaded policy (WormholeUnsafe): a capability
// whose every method is empty, so code written against the lock interface
// compiles to the same code without the locks, and TSA still checks it.
class CAPABILITY("mutex") NullMutex {
 public:
  void lock() ACQUIRE() {}
  void unlock() RELEASE() {}
  void lock_shared() ACQUIRE_SHARED() {}
  void unlock_shared() RELEASE_SHARED() {}
  void AssertHeld() const ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() const ASSERT_SHARED_CAPABILITY(this) {}
};

// RAII exclusive lock (the std::lock_guard replacement) on a Mutex, or on
// any lock type with the same interface (NullMutex).
template <typename M>
class SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(M& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~ScopedLock() RELEASE() { mu_.unlock(); }
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  M& mu_;
};

// RAII exclusive lock on a SharedMutex (writer side).
class SCOPED_CAPABILITY ScopedWriteLock {
 public:
  explicit ScopedWriteLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~ScopedWriteLock() RELEASE() { mu_.unlock(); }
  ScopedWriteLock(const ScopedWriteLock&) = delete;
  ScopedWriteLock& operator=(const ScopedWriteLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII shared lock on a SharedMutex, or NullMutex (reader side).
template <typename M>
class SCOPED_CAPABILITY ScopedReadLock {
 public:
  explicit ScopedReadLock(M& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ScopedReadLock() RELEASE() { mu_.unlock_shared(); }
  ScopedReadLock(const ScopedReadLock&) = delete;
  ScopedReadLock& operator=(const ScopedReadLock&) = delete;

 private:
  M& mu_;
};

}  // namespace wh

#endif  // WH_SRC_COMMON_SYNC_H_
