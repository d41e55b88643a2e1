// Quiescent-state-based reclamation (QSBR), the memory-reclamation scheme the
// Wormhole paper pairs with per-leaf locking: readers traverse the MetaTrieHT
// and leaf list without taking any structure-wide lock, so a writer that
// unlinks a leaf / trie node / bucket array cannot free it immediately — a
// lock-free reader may still be dereferencing it. Instead the writer *retires*
// the object here, and it is freed only after a grace period: every registered
// thread has passed a quiescent state (a moment where it provably holds no
// references into the structure) after the retirement.
//
// Protocol:
//   - Each participating thread owns a Slot (cache-line sized, so quiescence
//     reports never contend). Registration is explicit (RegisterThread) or
//     lazy via the Default()-instance helpers below.
//   - A thread calls Quiesce() between operations — never while holding a
//     pointer into a QSBR-protected structure. This is a store to the
//     thread's own slot plus a read of the (rarely written) global epoch.
//   - Retire(p, deleter) tags p with the current epoch and advances it.
//     p must already be unreachable for new readers (unlinked with
//     release-ordered stores before the Retire call).
//   - An object with tag T is freed once every active slot's epoch > T, i.e.
//     every thread has quiesced after the retirement. Freeing happens inside
//     TryReclaim, called opportunistically from Retire and from Drain.
//
// Embedder requirements (see README.md "Concurrency"):
//   - Threads that touch a QSBR-protected index must quiesce regularly (the
//     Wormhole class does this internally at the end of every operation). A
//     registered thread that goes idle without unregistering stalls
//     reclamation (memory accrues; nothing is freed prematurely).
//   - Before destroying an index, every other thread must have quiesced or
//     unregistered; the destructor drains the deferred-free list.
//
// Domains: Qsbr is instantiable, and each instance is an independent
// reclamation domain — a slow reader in one domain never stalls another
// domain's grace periods. The service (src/server) gives its index a domain
// of its own. Default() remains the process-wide domain used by bare
// Wormhole instances. CurrentSlot() registers the calling thread in *this*
// domain lazily and unregisters it at thread exit; destroying a domain before
// its threads exit is safe (thread-exit cleanup recognizes dead domains), but
// the domain must not be destroyed while any thread is still operating on a
// structure it protects.
#ifndef WH_SRC_COMMON_QSBR_H_
#define WH_SRC_COMMON_QSBR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>

#include "src/common/sync.h"

namespace wh {

class Qsbr {
 public:
  static constexpr size_t kMaxThreads = 512;

  struct alignas(64) Slot {
    // Epoch of this thread's most recent quiescent state. Only meaningful
    // while state == kActive.
    std::atomic<uint64_t> epoch{0};
    // kFree -> kActive under slots_mu_ (epoch is set first); kActive -> kFree
    // on unregistration.
    std::atomic<uint32_t> state{0};
    // Owner-thread-only pin depth (see Pin below). Written and read only by
    // the owning thread; atomic so the slot stays trivially shareable.
    std::atomic<uint32_t> pins{0};
  };

  Qsbr();
  ~Qsbr();
  Qsbr(const Qsbr&) = delete;
  Qsbr& operator=(const Qsbr&) = delete;

  // Process-wide instance used by Wormhole and the Default()-bound helpers.
  static Qsbr& Default();

  // Claims a slot for the calling thread. The slot starts quiescent at the
  // current epoch (a new thread cannot hold references to already-retired
  // objects). Aborts if kMaxThreads threads are simultaneously registered.
  Slot* RegisterThread();
  // The thread must hold no references into any protected structure.
  void UnregisterThread(Slot* slot);

  // The calling thread's slot in this domain: registered lazily on first use,
  // cached thread-locally (steady state is a scan of the thread's short
  // domain list), unregistered automatically at thread exit. Domain ids are
  // never reused, so a cached entry for a destroyed domain can never be
  // mistaken for a live one.
  Slot* CurrentSlot();

  // Reports a quiescent state: the owning thread holds no references. While
  // the slot is pinned this is a no-op, so interleaved operations (which
  // quiesce on exit) cannot accidentally release a pin-holder's references.
  void Quiesce(Slot* slot) {
    if (slot->pins.load(std::memory_order_relaxed) != 0) {
      return;
    }
    slot->epoch.store(global_epoch_.load(std::memory_order_acquire),
                      std::memory_order_release);
  }

  // Epoch pin: freezes the slot's epoch at the current instant, so every
  // object reachable from now on — including ones retired after this call —
  // stays allocated until the matching Unpin. Used by cursors, which keep a
  // leaf pointer across user code between calls. Pins nest. Owner thread
  // only; the caller must hold no protected references at the OUTERMOST Pin
  // (the pin quiesces first to make the freeze point current). A long-held
  // pin stalls reclamation in this domain exactly like an idle registered
  // thread: memory accrues, nothing is freed prematurely.
  void Pin(Slot* slot) {
    Quiesce(slot);  // no-op when already pinned (nested pin)
    slot->pins.fetch_add(1, std::memory_order_relaxed);
  }
  void Unpin(Slot* slot) { slot->pins.fetch_sub(1, std::memory_order_relaxed); }

  // Defers deleter(p) until all registered threads quiesce. p must already be
  // unreachable to new readers.
  void Retire(void* p, void (*deleter)(void*));
  template <typename T>
  void Retire(T* p) {
    Retire(p, [](void* q) { delete static_cast<T*>(q); });
  }

  // Frees every retired object whose grace period has passed; returns the
  // number freed. Safe to call from any thread at any time.
  size_t TryReclaim();

  // Spins until the deferred-free list is empty. Caller contract: all other
  // registered threads are quiescent (or will quiesce promptly) — otherwise
  // this blocks until they do.
  void Drain();

  size_t pending() const;
  uint64_t epoch() const { return global_epoch_.load(std::memory_order_relaxed); }

 private:
  static constexpr uint32_t kFree = 0;
  static constexpr uint32_t kActive = 1;

  struct Retired {
    void* p;
    void (*deleter)(void*);
    uint64_t tag;
  };

  const uint64_t id_;  // unique per instance, never reused
  std::atomic<uint64_t> global_epoch_{1};
  // Slot fields are per-thread atomics, not guarded data: quiescence reports
  // and the reclaim scan synchronize through them directly. slots_mu_ guards
  // only the register/unregister transitions (and TryReclaim holds it across
  // its scan so a registering thread cannot be missed — see qsbr.cc).
  Slot slots_[kMaxThreads];
  std::atomic<size_t> slot_high_water_{0};  // scan bound for TryReclaim
  Mutex slots_mu_;                          // serializes register/unregister

  mutable Mutex retire_mu_;
  // Tags are near-sorted (concurrent retirers may interleave slightly).
  std::deque<Retired> retired_ GUARDED_BY(retire_mu_);
};

// Default()-instance conveniences. The calling thread is registered lazily on
// first use and unregistered automatically at thread exit. QsbrQuiesce()
// reports a quiescent state in *every* live domain the thread has joined
// (default and service domains alike), so a periodic-quiesce loop never pins
// any domain's grace period.
Qsbr::Slot* QsbrCurrentSlot();
void QsbrQuiesce();

// RAII per-thread registration for thread pools / bench workers: registers
// with the default domain on construction; on destruction quiesces and
// unregisters the thread from *every* domain it lazily joined (so a finished
// worker never stalls reclamation in any domain, the default one included).
class QsbrThreadScope {
 public:
  QsbrThreadScope();
  ~QsbrThreadScope();
  QsbrThreadScope(const QsbrThreadScope&) = delete;
  QsbrThreadScope& operator=(const QsbrThreadScope&) = delete;
};

}  // namespace wh

#endif  // WH_SRC_COMMON_QSBR_H_
