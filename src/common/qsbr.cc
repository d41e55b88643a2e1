#include "src/common/qsbr.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_set>
#include <vector>

namespace wh {

namespace {

// Live-domain registry. Thread-exit cleanup must not call back into a domain
// that was already destroyed (a service torn down while a client thread
// lives on), so domains check in at construction and out at destruction, and
// the per-thread cleanup consults the registry under its mutex before
// unregistering. Both are function-local statics first touched from a Qsbr
// constructor, so they are destroyed after every domain, including Default().
Mutex& LiveDomainsMu() {
  static Mutex mu;
  return mu;
}

std::unordered_set<uint64_t>& LiveDomains() {
  static std::unordered_set<uint64_t> live;
  return live;
}

uint64_t NewDomainId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// One cache entry per (thread, domain) pair the thread has lazily joined.
struct DomainEntry {
  Qsbr* domain;
  uint64_t id;
  Qsbr::Slot* slot;
};

// The thread's domain list; the destructor runs at thread exit (for the main
// thread: before static destruction), so a dead thread never blocks grace
// periods in any domain that is still alive.
struct TlsDomains {
  std::vector<DomainEntry> entries;
  ~TlsDomains() { ReleaseAll(); }
  void ReleaseAll() {
    for (const DomainEntry& e : entries) {
      // Holding the registry mutex across the liveness check and the
      // unregistration pins the domain: ~Qsbr removes the id under the same
      // mutex before tearing anything down.
      ScopedLock g(LiveDomainsMu());
      if (LiveDomains().count(e.id) != 0) {
        e.domain->Quiesce(e.slot);
        e.domain->UnregisterThread(e.slot);
      }
    }
    entries.clear();
  }
};

thread_local TlsDomains tls_domains;

}  // namespace

Qsbr::Qsbr() : id_(NewDomainId()) {
  ScopedLock g(LiveDomainsMu());
  LiveDomains().insert(id_);
}

Qsbr::~Qsbr() {
  {
    ScopedLock g(LiveDomainsMu());
    LiveDomains().erase(id_);
  }
  // No threads may be inside a read-side critical section at destruction; any
  // slots still registered belong to threads that will notice the dead domain
  // at their own exit and skip it. The retire lock is still taken: a laggard
  // Retire/TryReclaim racing destruction is already undefined behavior on the
  // domain object itself, but holding the lock here keeps the drain correct
  // for the benign case (a TryReclaim on another thread that returns before
  // the destructor frees anything) and satisfies the guarded_by contract —
  // the unguarded iteration was flagged by thread-safety analysis.
  ScopedLock g(retire_mu_);
  for (const Retired& r : retired_) {
    r.deleter(r.p);
  }
}

Qsbr& Qsbr::Default() {
  static Qsbr instance;
  return instance;
}

Qsbr::Slot* Qsbr::RegisterThread() {
  ScopedLock g(slots_mu_);
  for (size_t i = 0; i < kMaxThreads; i++) {
    Slot& s = slots_[i];
    if (s.state.load(std::memory_order_relaxed) == kFree) {
      // Epoch before state: a reclaimer that sees kActive must see a current
      // epoch, never the previous tenant's stale one. A leaked pin (a thread
      // that exited with a live cursor, itself a contract violation) must not
      // poison the next tenant's Quiesce.
      s.pins.store(0, std::memory_order_relaxed);
      s.epoch.store(global_epoch_.load(std::memory_order_acquire),
                    std::memory_order_release);
      s.state.store(kActive, std::memory_order_release);
      size_t hw = slot_high_water_.load(std::memory_order_relaxed);
      if (i + 1 > hw) {
        slot_high_water_.store(i + 1, std::memory_order_release);
      }
      return &s;
    }
  }
  std::fprintf(stderr, "qsbr: more than %zu concurrent threads\n", kMaxThreads);
  std::abort();
}

void Qsbr::UnregisterThread(Slot* slot) {
  ScopedLock g(slots_mu_);
  slot->state.store(kFree, std::memory_order_release);
}

void Qsbr::Retire(void* p, void (*deleter)(void*)) {
  // fetch_add returns the epoch the retirement belongs to; bumping ensures
  // later quiescent states are distinguishable from earlier ones. Readers
  // that observe the new epoch value synchronize with this RMW, so they also
  // see the unlinking stores that preceded the Retire call.
  const uint64_t tag = global_epoch_.fetch_add(1, std::memory_order_acq_rel);
  {
    ScopedLock g(retire_mu_);
    retired_.push_back(Retired{p, deleter, tag});
  }
  TryReclaim();
}

size_t Qsbr::TryReclaim() {
  std::vector<Retired> batch;
  {
    // slots_mu_ is held across both the slot scan and the pop: registration
    // also takes it, so a registering thread either completes first (the scan
    // sees its slot, whose fresh epoch blocks anything it could reference) or
    // starts after this critical section (the lock handoff orders the
    // unlinking of everything popped here before that thread's first
    // traversal, so it can never reach an object this pass frees). Without
    // the lock, plain acquire/release ordering would permit the scan to miss
    // a just-registered thread mid-navigation.
    ScopedLock gs(slots_mu_);
    // Grace condition: every active slot has quiesced at an epoch > tag.
    uint64_t min_epoch = UINT64_MAX;
    const size_t hw = slot_high_water_.load(std::memory_order_acquire);
    for (size_t i = 0; i < hw; i++) {
      if (slots_[i].state.load(std::memory_order_acquire) == kActive) {
        min_epoch =
            std::min(min_epoch, slots_[i].epoch.load(std::memory_order_acquire));
      }
    }
    // Concurrent retirers can interleave tags slightly out of order; stopping
    // at the first ineligible entry is merely conservative (it is freed on a
    // later pass).
    ScopedLock gr(retire_mu_);
    while (!retired_.empty() && retired_.front().tag < min_epoch) {
      batch.push_back(retired_.front());
      retired_.pop_front();
    }
  }
  for (const Retired& r : batch) {  // deleters run outside both locks
    r.deleter(r.p);
  }
  return batch.size();
}

void Qsbr::Drain() {
  while (pending() > 0) {
    if (TryReclaim() == 0) {
      std::this_thread::yield();
    }
  }
}

size_t Qsbr::pending() const {
  ScopedLock g(retire_mu_);
  return retired_.size();
}

Qsbr::Slot* Qsbr::CurrentSlot() {
  for (const DomainEntry& e : tls_domains.entries) {
    if (e.domain == this && e.id == id_) {
      return e.slot;
    }
  }
  // Slow path (once per thread per domain): drop entries for domains that
  // have since died, so a long-lived thread outliving many domains (e.g. a
  // test loop creating services) keeps its list — and the scan above — short.
  {
    ScopedLock g(LiveDomainsMu());
    auto& entries = tls_domains.entries;
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [](const DomainEntry& e) {
                                   return LiveDomains().count(e.id) == 0;
                                 }),
                  entries.end());
  }
  Slot* slot = RegisterThread();
  tls_domains.entries.push_back(DomainEntry{this, id_, slot});
  return slot;
}

Qsbr::Slot* QsbrCurrentSlot() { return Qsbr::Default().CurrentSlot(); }

void QsbrQuiesce() {
  QsbrCurrentSlot();  // the default domain is joined on first call
  // Quiesce every domain this thread has joined, not just Default(): a
  // coordinator that touched a service and then settles into a
  // quiesce-periodically loop must not pin its domain's grace period. The
  // registry mutex spans the liveness check and the store, pinning each
  // domain against concurrent destruction (same protocol as ReleaseAll).
  ScopedLock g(LiveDomainsMu());
  for (const DomainEntry& e : tls_domains.entries) {
    if (LiveDomains().count(e.id) != 0) {
      e.domain->Quiesce(e.slot);
    }
  }
}

QsbrThreadScope::QsbrThreadScope() { QsbrCurrentSlot(); }

QsbrThreadScope::~QsbrThreadScope() { tls_domains.ReleaseAll(); }

}  // namespace wh
