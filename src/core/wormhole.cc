#include "src/core/wormhole.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "src/common/bytes.h"
#include "src/common/crc32c.h"
#include "src/common/free_list.h"
#include "src/common/qsbr.h"

namespace wh {

namespace {

uint32_t HashPrefix(std::string_view prefix) {
  return Crc32cExtend(kCrc32cInit, prefix.data(), prefix.size());
}

uint16_t TagOf(uint32_t hash) { return static_cast<uint16_t>(hash >> 16); }

// Full-key CRC32C for the DirectPos in-leaf search, derived from the LPM's
// saved prefix state: `state` hashes key[0, lo), and extending a raw CRC32C
// state over the tail equals hashing the whole key from byte 0. Returns 0
// when DirectPos is off (the in-leaf search is hash-free by design).
uint32_t ExtendKvHash(bool direct_pos, uint32_t state, std::string_view key,
                      size_t lo) {
  if (!direct_pos) {
    return 0;
  }
  return key.size() > lo ? Crc32cExtend(state, key.data() + lo, key.size() - lo)
                         : state;
}

// Hands every line of a replaced, published bucket chain to Sync::Retire.
template <typename Sync, typename Line>
void RetireChain(Qsbr* qsbr, Line* head) {
  for (Line* nx; head != nullptr; head = nx) {
    nx = head->next;  // immutable under meta_mu_; Retire only defers the free
    Sync::Retire(qsbr, head);
  }
}

// Reports a serialized route that missed `key` (anchor: the leaf it reached,
// if any) and aborts. Bytes print as hex, since keys are binary.
[[noreturn]] void DieMisrouted(std::string_view key, const std::string* anchor) {
  const auto hex = [](std::string_view s) {
    std::string out;
    for (const unsigned char c : s) {
      out += "0123456789abcdef"[c >> 4];
      out += "0123456789abcdef"[c & 15];
    }
    return out;
  };
  std::fprintf(stderr, "wormhole: serialized route of key [%s] reached %s\n",
               hex(key).c_str(),
               anchor == nullptr
                   ? "no leaf"
                   : ("the leaf anchored at [" + hex(*anchor) + "]").c_str());
  std::abort();
}

// Replaced SpecVec blocks from a published leaf store go through QSBR: a
// lock-free reader's op-scoped epoch (or a cursor's pin) may still be
// loading from the old block when the writer swaps in a replacement.
void FreeStoreBlock(void* block) { ::operator delete(block); }

void RetireStoreBlock(void* ctx, void* block) {
  static_cast<Qsbr*>(ctx)->Retire(block, &FreeStoreBlock);
}

}  // namespace

// --- synchronization policies ----------------------------------------------

// Registers the calling thread with the index's QSBR domain before any shared
// pointer is loaded (so concurrent reclaimers account for it) and reports a
// quiescent state on the way out of the operation.
class Concurrent::Op {
 public:
  explicit Op(Qsbr* q) : qsbr_(q), slot_(q->CurrentSlot()) {}
  ~Op() { qsbr_->Quiesce(slot_); }

 private:
  Qsbr* qsbr_;
  Qsbr::Slot* slot_;
};

// Freezes the thread's epoch for a cursor's lifetime, so the leaf it
// remembers between calls stays dereferenceable even after the leaf is
// unlinked and retired.
class Concurrent::Pin {
 public:
  explicit Pin(Qsbr* q) : qsbr_(q), slot_(q->CurrentSlot()) {
    qsbr_->Pin(slot_);
  }
  ~Pin() {
    qsbr_->Unpin(slot_);
    qsbr_->Quiesce(slot_);
  }

 private:
  Qsbr* qsbr_;
  Qsbr::Slot* slot_;
};

template <typename T>
void Concurrent::Retire(Qsbr* qsbr, T* p) {
  qsbr->Retire(p);
}

leafops::BlockRelease Concurrent::StoreRelease(Qsbr* qsbr) {
  return {&RetireStoreBlock, qsbr};
}

void Concurrent::Drain(Qsbr* qsbr) {
  qsbr->Quiesce(qsbr->CurrentSlot());
  // Bounded drain: reclaim while making progress. With this index's threads
  // quiesced (the destructor's contract), everything it retired is freed
  // here; what stays blocked belongs to other indexes sharing the domain or
  // to stale registrants, and spinning on it (Qsbr::Drain) could hang on
  // state this index does not own. Later reclaims or ~Qsbr free it.
  while (qsbr->TryReclaim() > 0) {
  }
}

struct NoSync::Op {
  explicit Op(Qsbr*) {}
};

struct NoSync::Pin {
  explicit Pin(Qsbr*) {}
};

template <typename T>
void NoSync::Retire(Qsbr*, T* p) {
  delete p;  // lint:allow(qsbr-free): NoSync is single-threaded, no readers
}

leafops::BlockRelease NoSync::StoreRelease(Qsbr*) {
  return {};  // null hook: replaced blocks are freed at once
}

void NoSync::Drain(Qsbr*) {}

// --- the index -------------------------------------------------------------
//
// Invariants (see wormhole.h for the model):
//   - Anchors, node prefixes and list membership order are immutable; only
//     pointers between objects change, always via release stores.
//   - All structural mutation (split / removal / table growth) happens under
//     meta_mu_, so there is at most one structural writer; readers see any
//     interleaving of its atomic stores and rely on leaf validation + retry.
//   - Unlinked leaves / nodes / bucket lines are retired (Sync::Retire),
//     never freed inline: under Concurrent a lock-free reader routed through
//     stale state must be able to dereference it, fail validation, and retry
//     safely.

// Trie node with lock-free-readable fields. Pre-publication initialization
// uses relaxed stores (the bucket pointer swap that publishes the node is a
// release store); all later in-place updates are release stores.
template <typename Sync>
struct BasicWormhole<Sync>::Node {
  const std::string prefix;
  std::atomic<Leaf*> lmost{nullptr};
  std::atomic<Leaf*> rmost{nullptr};
  std::atomic<bool> has_terminal{false};
  std::atomic<uint64_t> child_bits[4];

  explicit Node(std::string p) : prefix(std::move(p)) {
    for (auto& w : child_bits) {
      w.store(0, std::memory_order_relaxed);
    }
  }

  void SetChild(uint8_t b) {
    child_bits[b >> 6].fetch_or(1ull << (b & 63), std::memory_order_release);
  }
  void ClearChild(uint8_t b) {
    child_bits[b >> 6].fetch_and(~(1ull << (b & 63)), std::memory_order_release);
  }

  // Largest child byte <= t, or -1.
  int LargestChildLE(uint8_t t) const {
    int w = t >> 6;
    const int bit = t & 63;
    uint64_t bits = child_bits[w].load(std::memory_order_acquire) &
                    (bit == 63 ? ~0ull : (2ull << bit) - 1);
    while (true) {
      if (bits != 0) {
        return (w << 6) + 63 - __builtin_clzll(bits);
      }
      if (--w < 0) {
        return -1;
      }
      bits = child_bits[w].load(std::memory_order_acquire);
    }
  }
};

template <typename Sync>
struct BasicWormhole<Sync>::Leaf {
  const std::string anchor;
  std::atomic<Leaf*> prev{nullptr};
  std::atomic<Leaf*> next{nullptr};
  // Per-leaf reader-writer lock; below meta_mu_ in the hierarchy (a thread
  // holding `lock` never acquires meta_mu_, and never a second leaf's lock).
  mutable typename Sync::LeafMutex lock;
  // Seqlock write counter (protocol helpers in leaf_ops.h): odd exactly while
  // a locked writer is inside a SeqlockWriteSection — every in-leaf mutation,
  // the split's store swap + linkage update, and removal — and a net +2 per
  // section. Lock-free readers (OptimisticLeafGet) snapshot an even value,
  // copy speculatively, and revalidate; cursors compare equality across
  // window boundaries (any change, structural or in-leaf, forces a
  // re-rank/re-route). All accesses outside the leaf_ops.h helpers use
  // explicit memory_order — enforced by the seqlock-order lint rule.
  std::atomic<uint64_t> version{0};
  // Retirement flag (version parity no longer encodes it): set inside the
  // removal's write section, under the exclusive lock + meta_mu_, right
  // before the leaf is unlinked. Lock-free readers check it after the
  // speculative copy; a racy early read only costs a retry.
  std::atomic<bool> dead{false};
  leafops::LeafStore store GUARDED_BY(lock);

  explicit Leaf(std::string a) : anchor(std::move(a)) {}
  bool retired() const {  // lock-free callers included
    return dead.load(std::memory_order_acquire);
  }
};

template <typename Sync>
struct BasicWormhole<Sync>::Table {
  const size_t mask;
  std::vector<std::atomic<Bucket*>> buckets;  // immutable COW chains

  explicit Table(size_t n) : mask(n - 1), buckets(n) {
    for (auto& b : buckets) {
      b.store(nullptr, std::memory_order_relaxed);
    }
  }
};

template <typename Sync>
BasicWormhole<Sync>::BasicWormhole(const Options& opt, Qsbr* qsbr)
    : opt_(opt), qsbr_(qsbr) {
  if (opt_.leaf_capacity < 4) {
    opt_.leaf_capacity = 4;
  } else if (opt_.leaf_capacity > kMaxLeafCapacity) {
    opt_.leaf_capacity = kMaxLeafCapacity;
  }
  head_ = new Leaf("");  // anchor "" — covers everything until the first split
  head_->store.release = Sync::StoreRelease(qsbr_);
  root_ = new Node("");
  root_->lmost.store(head_, std::memory_order_relaxed);
  root_->rmost.store(head_, std::memory_order_relaxed);
  root_->has_terminal.store(true, std::memory_order_relaxed);
  Table* t = new Table(256);
  const uint32_t h = HashPrefix({});
  t->buckets[h & t->mask].store(
      metabucket::Rebuild<Node>(nullptr, nullptr, TagOf(h), root_,
                                opt_.sort_by_tag),
      std::memory_order_relaxed);
  table_.store(t, std::memory_order_release);
  node_count_ = 1;
}

template <typename Sync>
BasicWormhole<Sync>::~BasicWormhole() {
  // Contract: no concurrent operations; every other thread has quiesced or
  // exited. Free the live structure, then drain whatever this index retired.
  Table* t = table_.load(std::memory_order_acquire);
  for (auto& slot : t->buckets) {
    Bucket* b = slot.load(std::memory_order_relaxed);
    // lint:allow(qsbr-free): destructor contract — all threads quiesced
    metabucket::ForEach(b, [](uint16_t, Node* nd) { delete nd; });
    metabucket::FreeChain(b);
  }
  delete t;  // lint:allow(qsbr-free): destructor contract — all threads quiesced
  for (Leaf* l = head_; l != nullptr;) {
    Leaf* next = l->next.load(std::memory_order_relaxed);
    delete l;  // lint:allow(qsbr-free): destructor contract — all threads quiesced
    l = next;
  }
  Sync::Drain(qsbr_);
}

// --- lock-free read path ---------------------------------------------------

// hot-path: one LPM probe's line-chain walk
template <typename Sync>
auto BasicWormhole<Sync>::FindNodeInChain(const Bucket* b, uint32_t hash,
                                          std::string_view prefix) const -> Node* {
  return metabucket::Find(b, TagOf(hash), opt_.tag_matching, opt_.sort_by_tag,
                          [&](const Node* nd) { return nd->prefix == prefix; });
}

// hot-path: per-probe bucket dispatch
template <typename Sync>
auto BasicWormhole<Sync>::LookupNode(const Table* t, uint32_t hash,
                                     std::string_view prefix) const -> Node* {
  return FindNodeInChain(
      t->buckets[hash & t->mask].load(std::memory_order_acquire), hash, prefix);
}

// The MetaTrieHT route of one key, resumable so that MultiGet can interleave
// the routes of a key group the way it interleaves their leaf reads
// (leafops::SpecProbe): Start schedules the first LPM probe, and each Step
// consumes the line the pending probe's bucket head (slot()) points at.
// The LPM binary-searches the key's prefix lengths for the longest one that
// is a trie node, O(log L) probes. That node resolves the leaf: when a child
// byte <= the key's next byte exists, one more probe finds that child and
// the leaf is its rmost; otherwise the leaf is the node's lmost, or lmost's
// predecessor when no anchor equals the node's prefix. The serial
// RouteToLeaf runs the steps in one go. The probe statistics are counted
// here only: one lookup per route, one probe per consumed line.
// hot-path: the O(log L) binary search and the leaf resolution
template <typename Sync>
struct BasicWormhole<Sync>::Route {
  enum class Phase : uint8_t { kLpm, kChild, kDone };
  const BasicWormhole* wh = nullptr;
  const Table* t = nullptr;
  std::string_view key;
  size_t lo = 0;  // LPM invariant: best->prefix is key[0, lo), and lo_state
  size_t hi = 0;  // hashes it
  size_t m = 0;   // prefix length of the pending LPM probe
  uint32_t lo_state = kCrc32cInit;
  uint32_t hash = 0;     // the pending probe's prefix hash
  uint32_t kv_hash = 0;  // from the leaf resolution on: the full-key hash
  uint32_t probes = 0;
  Node* best = nullptr;
  Leaf* leaf = nullptr;  // once done; null if observed mid-publication
  char child_byte = 0;
  Phase phase = Phase::kDone;

  // The steps are forced inline and never let a member's address escape
  // (an out-of-line key.substr would pass &key), so RouteToLeaf's route
  // lives in registers. Kept in memory, every probe's hash went through a
  // store and a reload on the probe chain's critical path, and serial Gets
  // on 20K-key Az1 / URL indexes (one thread, Xeon Sapphire Rapids) ran
  // 7-15% slower.
  [[gnu::always_inline]] void Start(const BasicWormhole* w, std::string_view k) {
    wh = w;
    t = w->table_.load(std::memory_order_acquire);
    key = k;
    lo = 0;
    hi = std::min(k.size(), w->max_anchor_len_.load(std::memory_order_relaxed));
    lo_state = kCrc32cInit;
    probes = 0;
    best = w->root_;
    Next();
  }
  bool done() const { return phase == Phase::kDone; }
  const std::atomic<Bucket*>& slot() const { return t->buckets[hash & t->mask]; }

  [[gnu::always_inline]] void Step(const Bucket* line) {
    probes++;
    const Options& o = wh->opt_;
    if (phase == Phase::kChild) {
      const std::string_view prefix(key.data(), lo);
      const char cb = child_byte;
      const Node* c = metabucket::Find(
          line, TagOf(hash), o.tag_matching, o.sort_by_tag,
          [prefix, cb](const Node* nd) {
            const std::string& p = nd->prefix;
            return p.size() == prefix.size() + 1 && p.back() == cb &&
                   std::memcmp(p.data(), prefix.data(), prefix.size()) == 0;
          });
      // A miss: the child bit and the bucket were read at different instants.
      Finish(c == nullptr ? nullptr : c->rmost.load(std::memory_order_acquire));
      return;
    }
    Node* n = wh->FindNodeInChain(line, hash, std::string_view(key.data(), m));
    if (n != nullptr) {
      best = n;
      lo = m;
      lo_state = hash;
    } else {
      hi = m - 1;
    }
    Next();
  }

 private:
  [[gnu::always_inline]] void Next() {
    const Options& o = wh->opt_;
    if (lo < hi) {
      m = (lo + hi + 1) / 2;
      hash = o.inc_hashing ? Crc32cExtend(lo_state, key.data() + lo, m - lo)
                           : Crc32cExtend(kCrc32cInit, key.data(), m);
      phase = Phase::kLpm;
      return;
    }
    // Reuse the LPM's incremental prefix state for the DirectPos full-key
    // hash instead of rehashing the key from byte 0.
    kv_hash = ExtendKvHash(o.direct_pos, lo_state, key, lo);
    const int c =
        lo < key.size() ? best->LargestChildLE(static_cast<uint8_t>(key[lo])) : -1;
    if (c >= 0) {
      const char cb = static_cast<char>(c);
      child_byte = cb;
      hash = Crc32cExtend(lo_state, &cb, 1);
      phase = Phase::kChild;
      return;
    }
    Leaf* lm = best->lmost.load(std::memory_order_acquire);
    Finish(lm == nullptr || best->has_terminal.load(std::memory_order_acquire)
               ? lm
               : lm->prev.load(std::memory_order_acquire));
  }
  [[gnu::always_inline]] void Finish(Leaf* l) {
    leaf = l;
    phase = Phase::kDone;
    if (wh->opt_.count_probes) {
      wh->lookups_.fetch_add(1, std::memory_order_relaxed);
      wh->probes_.fetch_add(probes, std::memory_order_relaxed);
    }
  }
};

// hot-path: every serial lookup routes through here
template <typename Sync>
auto BasicWormhole<Sync>::RouteToLeaf(std::string_view key,
                                      uint32_t* kv_hash) const -> Leaf* {
  Route r;
  r.Start(this, key);
  while (!r.done()) {
    r.Step(r.slot().load(std::memory_order_acquire));
  }
  *kv_hash = r.kv_hash;
  return r.leaf;
}

// hot-path: per-acquire validation
template <typename Sync>
bool BasicWormhole<Sync>::Covers(const Leaf* leaf, std::string_view key) {
  // Locked callers hold leaf->lock (either mode): the leaf's own range only
  // changes under that lock held exclusively; a *successor's* removal can
  // swing leaf->next concurrently, but that only grows the true range, so a
  // stale next either accepts correctly or rejects and retries. Speculative
  // attempts (OptimisticLeafGet, the cursor's ExtractWindow) run it with no
  // lock as a pre-filter — anchors are immutable, the loads are atomic, and
  // a racy verdict is caught by the seqlock validation that follows.
  if (leaf->retired()) {
    return false;
  }
  if (key < std::string_view(leaf->anchor)) {
    return false;
  }
  const Leaf* nx = leaf->next.load(std::memory_order_acquire);
  return nx == nullptr || key < std::string_view(nx->anchor);
}

// The seqlock bracket every lock-free leaf read runs inside: point reads
// here, window fills in CursorImpl::ExtractWindow. SpecBegin snapshots the
// version and refuses an odd one (a writer is mid-section; reading is
// pointless). SpecEnd's acquire fence orders every speculative load before
// the version re-read, so an unchanged version on a still-live leaf means no
// write section overlapped the copy — the snapshot is consistent.
// hot-path: optimistic read bracket
template <typename Sync>
bool BasicWormhole<Sync>::SpecBegin(const Leaf* leaf, uint64_t* begin) {
  *begin = leafops::SeqlockReadBegin(leaf->version);
  return (*begin & 1) == 0;
}

template <typename Sync>
bool BasicWormhole<Sync>::SpecEnd(const Leaf* leaf, uint64_t begin) {
  return leafops::SeqlockReadValidate(leaf->version, begin) && !leaf->retired();
}

// The end half of a point read: the extractor's answer stands only on an
// internally consistent snapshot that SpecEnd validates (NoSync has no
// writer to validate against). The caller checks coverage (Covers) anywhere
// inside the bracket: Get before the search, so its loads overlap the
// search; MultiGet after it, once the next leaf's anchor it prefetched has
// landed.
template <typename Sync>
auto BasicWormhole<Sync>::PointVerdict(const Leaf* leaf, uint64_t begin,
                                       leafops::SpecRead r) -> SpecOutcome {
  if (r == leafops::SpecRead::kInconsistent ||
      (!Sync::kPlainReads && !SpecEnd(leaf, begin))) {
    return SpecOutcome::kRetry;
  }
  return r == leafops::SpecRead::kFound ? SpecOutcome::kHit : SpecOutcome::kMiss;
}

// hot-path: the lock-free point read (one attempt)
template <typename Sync>
auto BasicWormhole<Sync>::OptimisticLeafGet(Leaf* leaf, std::string_view key,
                                            uint32_t kv_hash,
                                            std::string* value) const -> SpecOutcome {
  // Under NoSync no writer can overlap the read and the route is exact, so
  // the bracket is skipped: its loads of the leaf's version line cost a
  // NoSync Get on a 2M-key index ~15-25%, where Covers alone cost little.
  uint64_t begin = 0;
  if constexpr (!Sync::kPlainReads) {
    if (!SpecBegin(leaf, &begin) || !Covers(leaf, key)) {
      return SpecOutcome::kRetry;  // writer mid-section, or a stale route
    }
  }
  return PointVerdict(leaf, begin,
                      leafops::SpecFind(leaf->store, opt_.direct_pos, key,
                                        kv_hash, value, Sync::kPlainReads));
}

// Round 1 of a stage-2 search: warm the next leaf (Covers reads its anchor)
// and the block headers the probe's Start loads.
template <typename Sync>
void BasicWormhole<Sync>::WarmLeafRead(const Leaf* leaf, bool by_key) const {
  leafops::SpecPrefetchLine(leaf->next.load(std::memory_order_relaxed));
  if (opt_.direct_pos && !by_key) {
    leaf->store.by_hash.Prefetch();
  } else {
    leaf->store.by_key.Prefetch();
  }
  leaf->store.slots.Prefetch();
  leaf->store.slab.Prefetch();
}

template <typename Sync>
auto BasicWormhole<Sync>::AcquireLeaf(std::string_view key, Mode mode,
                                      uint32_t* kv_hash, Leaf* routed)
    -> Leaf* {
  for (int attempt = 0; attempt < 64; attempt++) {
    Leaf* leaf = attempt == 0 && routed != nullptr ? routed
                                                   : RouteToLeaf(key, kv_hash);
    if (leaf == nullptr) {
      std::this_thread::yield();
      continue;
    }
    if (mode == Mode::kShared) {
      leaf->lock.lock_shared();
    } else {
      leaf->lock.lock();
    }
    if (Covers(leaf, key)) {
      return leaf;
    }
    if (mode == Mode::kShared) {
      leaf->lock.unlock_shared();
    } else {
      leaf->lock.unlock();
    }
  }
  // Structural churn outran optimistic routing; serialize with the writers —
  // under meta_mu_ the trie and every leaf's range are stable, so the route
  // is exact. A miss is a routing bug, checked in every build: handed back,
  // the leaf would send the cursor's re-route loop around forever.
  ScopedLock g(meta_mu_);
  Leaf* leaf = RouteToLeaf(key, kv_hash);
  if (leaf == nullptr || !Covers(leaf, key)) {
    DieMisrouted(key, leaf == nullptr ? nullptr : &leaf->anchor);
  }
  if (mode == Mode::kShared) {
    leaf->lock.lock_shared();
  } else {
    leaf->lock.lock();
  }
  return leaf;
}

// --- public API ------------------------------------------------------------

template <typename Sync>
bool BasicWormhole<Sync>::Get(std::string_view key, std::string* value) {
  typename Sync::Op op(qsbr_);
  return GetFrom(0, key, value);
}

template <typename Sync>
bool BasicWormhole<Sync>::GetFrom(uint32_t first, std::string_view key,
                                  std::string* value) {
  uint32_t h;
  // Fast path: route lock-free, then one seqlock-validated speculative read
  // per attempt. The caller's Sync::Op is what makes the lockless dereferences
  // safe — this thread's epoch stays pinned for the whole operation, so a
  // leaf (or a store block) retired mid-read cannot be freed under us.
  for (uint32_t attempt = first; attempt < opt_.optimistic_retries;
       attempt++) {
    Leaf* leaf = RouteToLeaf(key, &h);
    if (leaf == nullptr) {
      continue;  // routed mid-publication; re-route
    }
    const SpecOutcome oc = OptimisticLeafGet(leaf, key, h, value);
    if (oc != SpecOutcome::kRetry) {
      return oc == SpecOutcome::kHit;  // RouteToLeaf counted the lookup
    }
  }
  // Fallback (also the whole path when optimistic_retries is 0): the same
  // read under the leaf's shared lock — readers cannot livelock.
  return LockedLeafGet(key, &h, value);
}

template <typename Sync>
bool BasicWormhole<Sync>::LockedLeafGet(std::string_view key, uint32_t* kv_hash,
                                        std::string* value) {
  // AcquireLeaf retries a stale route under the lock and serializes with
  // structural writers in the limit, so the leaf it hands over covers key.
  Leaf* leaf = AcquireLeaf(key, Mode::kShared, kv_hash);
  leaf->lock.AssertReaderHeld();  // handed over by AcquireLeaf (NO_TSA)
  const SpecOutcome oc = OptimisticLeafGet(leaf, key, *kv_hash, value);
  leaf->lock.unlock_shared();
  // Every version bump and dead-flag store happens under the exclusive
  // lock, so a covering leaf read under the shared lock always validates.
  assert(oc != SpecOutcome::kRetry && "locked read failed validation");
  return oc == SpecOutcome::kHit;
}

template <typename Sync>
size_t BasicWormhole<Sync>::MultiGet(const std::vector<std::string_view>& keys,
                                     std::vector<std::string>* values,
                                     std::vector<uint8_t>* hits) {
  const size_t n = keys.size();
  values->resize(n);
  hits->assign(n, 0);
  if (n == 0) {
    return 0;
  }
  typename Sync::Op op(qsbr_);
  size_t found = 0;
  const auto settle = [&](size_t i, bool hit) {
    if (hit) {
      (*hits)[i] = 1;
      found++;
    } else {
      (*values)[i].clear();
    }
  };
  if (opt_.optimistic_retries == 0) {
    // Every read starts locked, and LockedLeafGet routes the key itself: a
    // pipelined route would only be walked twice.
    for (size_t i = 0; i < n; i++) {
      settle(i, GetFrom(0, keys[i], &(*values)[i]));
    }
    return found;
  }

  // The batch runs as a staged pipeline over groups of kRouteGroup keys:
  // every round each in-flight key takes one step of its work, consuming the
  // cache lines prefetched for it last round and prefetching what its next
  // step loads while the other keys take their turns. The serial path pays
  // each cache miss back-to-back; here up to kRouteGroup misses are in
  // flight at once. Stage 1 is RouteGroup, stage 2 SearchGroup.
  Route routes[kRouteGroup];
  LeafSearch<leafops::SpecProbe> rd[kRouteGroup];

  for (size_t base = 0; base < n; base += kRouteGroup) {
    const size_t g = std::min(kRouteGroup, n - base);
    RouteGroup(keys.data() + base, g, routes);
    SearchGroup(keys.data() + base, g, routes, rd);
    // Stage 3: check coverage, finish and validate. A key that loses
    // attempt 0 runs Get's remaining attempts, so the fast path touches no
    // leaf lock.
    for (size_t i = 0; i < g; i++) {
      const std::string_view key = keys[base + i];
      auto& r = rd[i];
      std::string* out = &(*values)[base + i];
      SpecOutcome oc = SpecOutcome::kRetry;
      if (r.live && Covers(routes[i].leaf, key)) {
        oc = PointVerdict(routes[i].leaf, r.begin, r.probe.Finish(out));
      }
      settle(base + i, oc == SpecOutcome::kRetry ? GetFrom(1, key, out)
                                                 : oc == SpecOutcome::kHit);
    }
  }
  return found;
}

// Stage 2 of MultiGet and MultiPut: the in-leaf searches, interleaved like
// stage 1. Each key's search is OptimisticLeafGet's attempt cut at its cache
// misses, one piece per key per round: snapshot the version and warm the
// next leaf and block headers; acquire the views (by_key: and warm the
// index); warm the first step's line — under DirectPos the index line the
// key's hash tag estimates, by_key the first probe's slot; then one probe
// step per round, each warming what the next one loads — under DirectPos
// the tag run's slot, then its key (by_key: one binary-search level and its
// next slot). A PutProbe that misses under DirectPos goes on with the by_key
// rank search, one level per round. Coverage and validation are the
// caller's, once the search is done. Forced inline: called out of line,
// MultiGet read 2M-key batches ~4% slower per key (in-process A/B, one
// thread, both creation orders).
template <typename Sync>
template <typename Probe>
[[gnu::always_inline]] inline void BasicWormhole<Sync>::SearchGroup(const std::string_view* keys, size_t g,
                                      const Route* routes,
                                      LeafSearch<Probe>* s) const {
  for (size_t i = 0; i < g; i++) {
    const Leaf* leaf = routes[i].leaf;
    s[i].live = leaf != nullptr && SpecBegin(leaf, &s[i].begin);
    if (s[i].live) {
      WarmLeafRead(leaf, /*by_key=*/false);
    }
  }
  for (size_t i = 0; i < g; i++) {
    if (s[i].live) {
      s[i].probe.Start(routes[i].leaf->store, opt_.direct_pos,
                       routes[i].kv_hash, Sync::kPlainReads);
      s[i].probe.WarmIndex();
    }
  }
  for (size_t i = 0; i < g; i++) {
    if (s[i].live) {
      s[i].probe.Prime();
    }
  }
  for (bool more = true; more;) {
    more = false;
    for (size_t i = 0; i < g; i++) {
      if (s[i].live && !s[i].probe.done()) {
        s[i].probe.Step(keys[i], routes[i].kv_hash);
        s[i].probe.Prime();
        more = true;
      }
    }
  }
}

// Stage 1 of MultiGet, and all of PrefetchRoutes: interleaved routes, two
// sub-passes per round so the bucket-head load and the line fetch both
// overlap across keys: load each pending probe's bucket head and prefetch
// its line, then step every route with its line and prefetch the next
// probe's bucket head — or, once the route is done, the leaf's header lines
// (next, version, the store's block pointers).
template <typename Sync>
void BasicWormhole<Sync>::RouteGroup(const std::string_view* keys, size_t g,
                                     Route* routes) const {
  const Bucket* line[kRouteGroup];
  size_t active = g;
  const auto warm = [&active](const Route& r) {
    if (r.done()) {
      active--;
      leafops::SpecPrefetchRange(r.leaf, sizeof(Leaf));
    } else {
      leafops::SpecPrefetchLine(&r.slot());
    }
  };
  for (size_t i = 0; i < g; i++) {
    routes[i].Start(this, keys[i]);
    warm(routes[i]);
  }
  while (active > 0) {
    for (size_t i = 0; i < g; i++) {
      if (!routes[i].done()) {
        line[i] = routes[i].slot().load(std::memory_order_acquire);
        leafops::SpecPrefetchLine(line[i]);
      }
    }
    for (size_t i = 0; i < g; i++) {
      if (!routes[i].done()) {
        routes[i].Step(line[i]);
        warm(routes[i]);
      }
    }
  }
}

template <typename Sync>
void BasicWormhole<Sync>::PrefetchRoutes(const std::string_view* keys,
                                         size_t n) const {
  typename Sync::Op op(qsbr_);
  Route routes[kRouteGroup];
  for (size_t base = 0; base < n; base += kRouteGroup) {
    const size_t g = std::min(kRouteGroup, n - base);
    RouteGroup(keys + base, g, routes);
    for (size_t i = 0; i < g; i++) {
      if (routes[i].leaf != nullptr) {
        WarmLeafRead(routes[i].leaf, /*by_key=*/true);
      }
    }
  }
}

template <typename Sync>
bool BasicWormhole<Sync>::MultiPut(
    const std::vector<std::pair<std::string_view, std::string_view>>& items) {
  typename Sync::Op op(qsbr_);
  // MultiGet's pipeline, with a write stage: stage 1 routes a group of keys
  // (RouteGroup), stage 2 pre-searches each routed leaf lock-free
  // (SearchGroup, with Put's search), and stage 3 applies the group's items
  // in batch order under their leaves' exclusive locks, using a key's
  // pre-search only if the locked leaf is still exactly what it searched.
  std::string_view keys[kRouteGroup];
  Route routes[kRouteGroup];
  LeafSearch<leafops::PutProbe> pre[kRouteGroup];
  Leaf* leaf = nullptr;  // held exclusively while non-null
  size_t inserted = 0;
  bool all = true;
  for (size_t base = 0; base < items.size(); base += kRouteGroup) {
    const size_t g = std::min(kRouteGroup, items.size() - base);
    for (size_t i = 0; i < g; i++) {
      keys[i] = items[base + i].first;
    }
    RouteGroup(keys, g, routes);
    if (opt_.optimistic_retries > 0) {
      SearchGroup(keys, g, routes, pre);
    }
    for (size_t i = 0; i < g; i++) {
      const auto& [key, value] = items[base + i];
      if (key.size() > kMaxKeyBytes || value.size() > kMaxValueBytes) {
        all = false;  // refused: past the input bounds
        continue;
      }
      uint32_t h = routes[i].kv_hash;
      if (leaf != nullptr && !Covers(leaf, key)) {
        leaf->lock.unlock();
        leaf = nullptr;
      }
      if (leaf == nullptr) {
        leaf = AcquireLeaf(key, Mode::kExclusive, &h, routes[i].leaf);
      }
      // The store is the one the pre-search read iff no write section ran
      // on the leaf since its snapshot: the version held still. Under the
      // exclusive lock none can be running.
      const LeafSearch<leafops::PutProbe>& p = pre[i];
      const bool fresh = p.live && leaf == routes[i].leaf && !p.probe.bad() &&
                         leafops::SeqlockReadValidate(leaf->version, p.begin);
      const PutOutcome oc = PutInLeaf(
          leaf, key, value, h,
          fresh ? p.probe.Pos()
                : leafops::Locate(leaf->store, opt_.direct_pos, key, h));
      if (oc == PutOutcome::kInserted) {
        inserted++;
      } else if (oc == PutOutcome::kFull) {
        // Drop the held lock (PutSlow serializes on meta_mu_ and must never
        // run with a leaf lock held) and take the split path.
        leaf->lock.unlock();
        leaf = nullptr;
        inserted += PutSlow(key, value);
      }
    }
  }
  if (leaf != nullptr) {
    leaf->lock.unlock();
  }
  // One shared-counter update per batch: size() is exact once we return.
  if (inserted > 0) {
    item_count_.fetch_add(inserted, std::memory_order_relaxed);
  }
  return all;
}

template <typename Sync>
auto BasicWormhole<Sync>::PutInLeaf(Leaf* leaf, std::string_view key,
                                    std::string_view value, uint32_t kv_hash,
                                    const leafops::SlotPos& at) -> PutOutcome {
  if (at.slot >= 0) {
    leafops::SeqlockWriteSection ws(&leaf->version);
    leafops::UpdateValue(&leaf->store, static_cast<uint16_t>(at.slot), value);
    return PutOutcome::kUpdated;
  }
  if (leaf->store.size() >= opt_.leaf_capacity) {
    return PutOutcome::kFull;
  }
  leafops::SeqlockWriteSection ws(&leaf->version);
  leafops::Insert(&leaf->store, opt_.direct_pos, key, value, kv_hash, at);
  return PutOutcome::kInserted;
}

template <typename Sync>
bool BasicWormhole<Sync>::Put(std::string_view key, std::string_view value) {
  if (key.size() > kMaxKeyBytes || value.size() > kMaxValueBytes) {
    return false;  // refused: past the input bounds
  }
  typename Sync::Op op(qsbr_);
  uint32_t h;
  Leaf* leaf = AcquireLeaf(key, Mode::kExclusive, &h);
  leaf->lock.AssertHeld();  // handed over by AcquireLeaf (NO_TSA)
  const PutOutcome oc =
      PutInLeaf(leaf, key, value, h,
                leafops::Locate(leaf->store, opt_.direct_pos, key, h));
  leaf->lock.unlock();
  if (oc == PutOutcome::kInserted ||
      (oc == PutOutcome::kFull && PutSlow(key, value))) {
    item_count_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

template <typename Sync>
bool BasicWormhole<Sync>::PutSlow(std::string_view key, std::string_view value) {
  ScopedLock g(meta_mu_);
  // Re-resolve the leaf: between the fast path dropping its lock and this
  // point, a concurrent writer may have split (or emptied and removed) the
  // leaf the fast path saw, so the cached pointer must not be trusted.
  uint32_t h;
  Leaf* leaf = RouteToLeaf(key, &h);
  leaf->lock.lock();
  // PutInLeaf succeeds when a concurrent split made room.
  PutOutcome oc = PutInLeaf(leaf, key, value, h,
                            leafops::Locate(leaf->store, opt_.direct_pos, key, h));
  if (oc == PutOutcome::kFull) {
    SplitAndInsert(leaf, key, value, h);  // `leaf` stays the covering left half
    oc = PutOutcome::kInserted;
  }
  leaf->lock.unlock();
  return oc == PutOutcome::kInserted;
}

template <typename Sync>
bool BasicWormhole<Sync>::Delete(std::string_view key) {
  typename Sync::Op op(qsbr_);
  uint32_t h;
  Leaf* leaf = AcquireLeaf(key, Mode::kExclusive, &h);
  leaf->lock.AssertHeld();  // handed over by AcquireLeaf (NO_TSA)
  const int slot = leafops::FindSlot(leaf->store, opt_.direct_pos, key, h);
  if (slot < 0) {
    leaf->lock.unlock();
    return false;
  }
  if (leaf->store.size() > 1 || leaf == head_) {
    {
      leafops::SeqlockWriteSection ws(&leaf->version);
      leafops::Erase(&leaf->store, opt_.direct_pos,
                     static_cast<uint16_t>(slot));
    }
    item_count_.fetch_sub(1, std::memory_order_relaxed);
    leaf->lock.unlock();
    return true;
  }
  // Erasing would empty a non-head leaf: a structural change.
  leaf->lock.unlock();
  return DeleteSlow(key);
}

template <typename Sync>
bool BasicWormhole<Sync>::DeleteSlow(std::string_view key) {
  ScopedLock g(meta_mu_);
  uint32_t h;
  Leaf* leaf = RouteToLeaf(key, &h);  // re-resolve, as in PutSlow
  leaf->lock.lock();
  const int slot = leafops::FindSlot(leaf->store, opt_.direct_pos, key, h);
  if (slot < 0) {
    leaf->lock.unlock();
    return false;
  }
  {
    // The erase and the removal below are separate sections: sections must
    // not nest, and the gap between them only exposes a valid (empty) store.
    leafops::SeqlockWriteSection ws(&leaf->version);
    leafops::Erase(&leaf->store, opt_.direct_pos, static_cast<uint16_t>(slot));
  }
  item_count_.fetch_sub(1, std::memory_order_relaxed);
  if (leaf->store.size() == 0 && leaf != head_) {
    RemoveLeafLocked(leaf);
  }
  leaf->lock.unlock();
  return true;
}

// Per-thread free list of cursor windows. A cursor takes a window when it
// opens and hands it back when it is destroyed, so a thread that opens
// cursor after cursor (Service::Execute opens one per shard per batch)
// reuses slot-snapshot arrays already grown to its leaves instead of
// allocating fresh ones each time. Only the windows are recycled: every
// cursor still takes its own epoch pin and drops it when destroyed. A window
// holds at most kMaxLeafCapacity 24-byte snapshots, so the list holds at
// most ~800 KiB per thread.
using WindowFreeList = ThreadFreeList<leafops::FlatWindow, 8>;

// Epoch-pinned concurrent cursor (protocol in wormhole.h). Between calls it
// holds only the QSBR pin, a leaf pointer + version snapshot, and the filled
// window — never a lock, so a parked cursor blocks no writer and user code
// never runs under a leaf lock.
//
// Two window modes, picked by SetScanLimitHint:
//   unbounded (hint 0, the default): every refill takes the rest of the
//     leaf's ordered window from the seek rank on, so a full sweep pays one
//     refill per leaf.
//   bounded (hint n): a refill takes at most n items — a short scan that
//     fits the window emits straight from one validated fill and never
//     touches the items it will not return. Draining past a truncated window
//     edge continues inside the same leaf under a version check (no
//     re-route) and only falls back to the hash route on a lost race.
//
// Every fill runs one extractor, leafops::SpecFillWindow, inside the seqlock
// protocol exactly like Get: snapshot the leaf's version (even, or bail),
// snapshot the rank window's slot records through relaxed loads with every
// index/offset clamped to its block, then an acquire fence + version
// re-read + dead-flag recheck.
// An attempt runs speculatively — no lock and no atomic RMW on any outcome,
// so a read-only scan never writes a leaf lock word — until
// Options::optimistic_retries attempts of one operation have failed; later
// attempts (every attempt when the option is 0) run the same extractor while
// holding the leaf's shared lock, where validation cannot fail. Window hops
// and truncated-edge continuations revalidate against the snapshot version
// the same way. Fills land in one reusable FlatWindow — one slot-snapshot
// array, no per-item allocation, recycled from cursor to cursor by the
// thread's window free list — and compute the seek rank against the same
// snapshot they take, so the items a positioning skips are never touched.
// key() and value() are views into the slab block the window was filled
// from: its bytes never change (leaf_ops.h's view invariant), and the pin
// keeps the block alive after a writer replaces it.
template <typename Sync>
class BasicWormhole<Sync>::CursorImpl final : public Cursor {
 public:
  // The pin freezes this thread's epoch: leaf_ stays dereferenceable across
  // calls even after the leaf is unlinked and retired.
  explicit CursorImpl(BasicWormhole* wh) : wh_(wh), pin_(wh->qsbr_) {
    WindowFreeList::Take(&win_);
  }
  ~CursorImpl() override { WindowFreeList::Give(std::move(win_)); }

  void Seek(std::string_view target) override {
    bound_.assign(target);
    strict_ = false;
    consumed_ = 0;
    pending_ = Pending::kNone;
    Position(/*forward=*/true);
  }

  void SeekForPrev(std::string_view target) override {
    bound_.assign(target);
    strict_ = false;
    consumed_ = 0;
    pending_ = Pending::kNone;
    Position(/*forward=*/false);
  }

  bool Valid() const override {
    EnsurePositioned();
    return valid_;
  }

  void SetScanLimitHint(size_t items_per_positioning) override {
    hint_ = items_per_positioning;
  }

  void Next() override {
    EnsurePositioned();
    if (!valid_) {
      return;
    }
    consumed_++;
    if (pos_ + 1 < win_.size()) {
      pos_++;
      return;
    }
    // Window drained: the logical position is "first key > the one we just
    // returned" — remember it so any fallback re-routes exactly there.
    bound_.assign(win_.KeyAt(pos_));
    strict_ = true;
    // Defer the refill until the cursor is queried again (Valid/key/value or
    // another step). A bounded scan's LAST Next() always drains its window;
    // refilling eagerly there would fill a whole window — up to half of all
    // fill work for a scan that fits one window — that the caller, who is
    // about to stop, never reads.
    pending_ = Pending::kForward;
  }

  void Prev() override {
    EnsurePositioned();
    if (!valid_) {
      return;
    }
    consumed_++;
    if (pos_ > 0) {
      pos_--;
      return;
    }
    bound_.assign(win_.KeyAt(0));
    strict_ = true;
    pending_ = Pending::kBackward;
  }

  std::string_view key() const override {
    EnsurePositioned();
    return win_.KeyAt(pos_);
  }
  std::string_view value() const override {
    EnsurePositioned();
    return win_.ValueAt(pos_);
  }

 private:
  // A deferred window-boundary step parked by Next()/Prev(): bound_ and
  // strict_ already name the logical position; the refill that materializes
  // it runs on the next query. Every public entry point funnels through
  // EnsurePositioned() first, so the deferral is never observable.
  enum class Pending { kNone, kForward, kBackward };

  void EnsurePositioned() const {
    if (pending_ != Pending::kNone) {
      const_cast<CursorImpl*>(this)->Advance();
    }
  }

  // A drained edge flush with the leaf boundary hops to the neighbor leaf; a
  // truncated edge (a bounded fill left items behind in this very leaf,
  // which a hop would skip) continues inside the leaf instead.
  void Advance() {
    const bool forward = pending_ == Pending::kForward;
    pending_ = Pending::kNone;
    Continue(forward, /*hop=*/forward ? !trunc_hi_ : !trunc_lo_);
  }

  // Remaining per-positioning budget: the hint promises "about hint_ items
  // consumed per Seek/SeekForPrev", so a continuation mid-scan only needs
  // what is left of that promise — a 100-item scan that drains 68 items off
  // its first leaf takes 32 from the next, not a fresh 100. A caller that
  // oversteps its own hint keeps getting hint_-sized windows (one re-fill
  // per hint_ items) rather than degenerate one-item refills.
  size_t Budget() const {
    if (hint_ == 0) {
      return 0;  // unbounded mode
    }
    return consumed_ < hint_ ? hint_ - consumed_ : hint_;
  }

  // Verdict of one fill attempt. kMoved is the coverage pre-filter
  // rejecting bound_ (leaf split past it / retired / stale route): the bound
  // lives elsewhere, so retrying the same leaf is pointless — reposition.
  enum class SpecFill { kOk, kRetry, kMoved };
  // How an attempt holds the leaf's shared lock: not at all (speculative),
  // taken around the extract and validate, or already held by the caller
  // (a locked positioning, handed over by AcquireLeaf).
  enum class Lock { kNone, kTake, kHeld };

  // Attempt `a` of one operation runs locked once the speculative budget is
  // spent — from the first attempt when optimistic_retries is 0.
  bool Locked(uint32_t a) const { return a >= wh_->opt_.optimistic_retries; }
  static Lock LockFor(bool locked) {
    return locked ? Lock::kTake : Lock::kNone;
  }

  // One window fill attempt against `leaf` (ExtractWindow), releasing any
  // lock before it returns.
  // NO_TSA: the lock taken here is the data-dependent target leaf's, or was
  // handed over by AcquireLeaf — transfers TSA cannot express.
  SpecFill TrySpecFill(Leaf* leaf, bool forward, bool has_bound, bool strict,
                       Lock lock) NO_THREAD_SAFETY_ANALYSIS {
    if (lock == Lock::kTake) {
      leaf->lock.lock_shared();
    }
    const SpecFill oc = ExtractWindow(leaf, forward, has_bound, strict);
    if (lock != Lock::kNone) {
      leaf->lock.unlock_shared();
    }
    // Every version bump and dead-flag store happens under the exclusive
    // lock, so a locked attempt is only ever turned away by the pre-filter:
    // bound_ is not in the leaf, or the leaf is dead (which is final).
    assert((lock == Lock::kNone || oc != SpecFill::kRetry || leaf->retired()) &&
           "locked window fill failed validation");
    // Warm the next hop target only when this window reached the leaf edge
    // in scan direction — a truncated window's next refill continues inside
    // THIS leaf, so the neighbor's lines would be fetched for nothing (and
    // bounded short scans would pay it on every positioning).
    if (oc == SpecFill::kOk && (forward ? !trunc_hi_ : !trunc_lo_)) {
      PrefetchNeighborData(leaf, forward);
    }
    return oc;
  }

  // The seqlock-bracketed extract, in OptimisticLeafGet's bracket:
  // SpecBegin, coverage pre-filter, bounds-clamped SpecFillWindow fill,
  // SpecEnd. On kOk the window, truncation flags, and the (leaf_,
  // leaf_version_) snapshot are installed — the validated even `begin` IS
  // the snapshot version every later hop or continuation revalidates.
  // `has_bound` selects the rank source: the bound_ rank search for
  // positioning/continuation fills, or the leaf edge for hop fills (which
  // pre-check only the dead flag — a hop target legitimately does not cover
  // bound_).
  // NO_TSA: the seqlock-reader shape (sync.h usage rules) — reads
  // GUARDED_BY(leaf->lock) data with no lock held (or one TSA cannot see)
  // and discards the result unless the version validates; the TSan hammer
  // tests exercise the race.
  SpecFill ExtractWindow(Leaf* leaf, bool forward, bool has_bound,
                         bool strict) NO_THREAD_SAFETY_ANALYSIS {
    uint64_t begin;
    if (!SpecBegin(leaf, &begin)) {
      return SpecFill::kRetry;
    }
    if (has_bound) {
      if (!Covers(leaf, bound_)) {
        return SpecFill::kMoved;
      }
    } else if (leaf->retired()) {
      return SpecFill::kRetry;
    }
    const leafops::SpecWindow w = leafops::SpecFillWindow(
        leaf->store, forward, has_bound, bound_, strict, Budget(), &win_);
    if (!w.ok || !SpecEnd(leaf, begin)) {
      return SpecFill::kRetry;
    }
    trunc_lo_ = w.lo > 0;
    trunc_hi_ = w.hi < w.n;
    leaf_ = leaf;
    leaf_version_ = begin;
    return SpecFill::kOk;
  }

  // Warm the likely next hop target while the caller drains this window:
  // header plus the store's ordered index, slot array, and slab head — the
  // lines the next fill touches first. Runs with no lock held (TrySpecFill
  // releases first: peeking into a neighbor's store while holding a leaf
  // lock is the shape the lock discipline bans); reaching the neighbor's
  // block pointers is an atomic AcquireView and a prefetch of the payload
  // is not a memory access the model sees, so the deep prefetch is legal.
  // NO_TSA: same lock-free neighbor peek as ExtractWindow.
  void PrefetchNeighborData(const Leaf* leaf,
                            bool forward) NO_THREAD_SAFETY_ANALYSIS {
    const Leaf* nb = forward ? leaf->next.load(std::memory_order_acquire)
                             : leaf->prev.load(std::memory_order_acquire);
    if (nb == nullptr) {
      return;
    }
    leafops::SpecPrefetchLine(nb);
    leafops::SpecPrefetchLine(nb->store.by_key.AcquireView().p);
    leafops::SpecPrefetchLine(nb->store.slots.AcquireView().p);
    leafops::SpecPrefetchLine(nb->store.slab.AcquireView().p);
  }

  // Lands on a validated window's first item in scan direction; false on an
  // empty window.
  bool Land(bool forward) {
    if (win_.size() == 0) {
      return false;
    }
    pos_ = forward ? 0 : win_.size() - 1;
    valid_ = true;
    return true;
  }

  // Fresh positioning at the first key (strict_ ? > : >=) bound_, or going
  // backward the last key (strict_ ? < : <=) bound_: Seek, SeekForPrev, and
  // the re-route after a continuation found bound_ gone from its leaf.
  // Get's loop shape: a speculative attempt routes lock-free (any lost race
  // just re-routes); a locked one routes through AcquireLeaf, which retries
  // stale routes under the lock, serializes with structural writers in the
  // limit, and hands over the covering leaf with its shared lock held. `a`
  // counts the attempts the operation already spent, so a locked
  // continuation that repositions stays locked — bouncing back into
  // speculation under the churn that defeated it would not bound the work.
  void Position(bool forward, uint32_t a = 0) {
    for (;; a++) {
      const bool locked = Locked(a);
      uint32_t h;
      Leaf* leaf = locked ? wh_->AcquireLeaf(bound_, Mode::kShared, &h)
                          : wh_->RouteToLeaf(bound_, &h);
      if (leaf == nullptr) {
        continue;  // routed mid-publication; re-route
      }
      // Backward, the window is the ranks below the first key
      // (strict_ ? >= : >) bound_. An empty window means the seek rank was
      // the leaf's edge, so the validated window "covers" through the leaf
      // boundary and a hop completes it.
      if (TrySpecFill(leaf, forward, /*has_bound=*/true,
                      forward ? strict_ : !strict_,
                      locked ? Lock::kHeld : Lock::kNone) == SpecFill::kOk &&
          (Land(forward) || Hop(forward, locked))) {
        return;
      }
    }
  }

  // The step past a drained window: hop to the scan-direction neighbor
  // (`hop`: the window reached the leaf edge), else refill from leaf_ past
  // bound_ — same leaf, fresh rank, no re-route. The version advances on
  // every write section, so a continuation does not demand equality: a live
  // leaf that still covers bound_ holds exactly the keys between bound_ and
  // its current neighbor's anchor, so bound_'s successor (if any in range)
  // lives here — re-rank and refill. A failed hop retries as a
  // continuation, which hops again from its fresh snapshot when nothing past
  // bound_ is left — far cheaper than a re-route. Only a moved/removed
  // bound_ (kMoved) repositions.
  void Continue(bool forward, bool hop) {
    for (uint32_t a = 0;; a++) {
      const bool locked = Locked(a);
      if (!hop) {
        // Forward: keys > bound_; backward: keys < bound_.
        const SpecFill oc = TrySpecFill(leaf_, forward, /*has_bound=*/true,
                                        /*strict=*/forward, LockFor(locked));
        if (oc == SpecFill::kMoved) {
          Position(forward, a);
          return;
        }
        if (oc != SpecFill::kOk) {
          continue;
        }
        if (Land(forward)) {
          return;
        }
      }
      if (Hop(forward, locked)) {
        return;
      }
      hop = false;
    }
  }

  // Walks from leaf_, whose validated window reached the leaf edge, to the
  // scan-direction neighbors until a nonempty window or the list end. Load
  // the neighbor pointer, THEN revalidate leaf_'s snapshot version
  // (SeqlockReadValidate's acquire fence orders the two loads): an
  // unchanged version proves leaf_ never split after the pointer was read,
  // so that neighbor still bounds everything the window covered. A
  // successor's plain removal swings next without bumping the version, but
  // that only grows the covered range. The target's own fill validation
  // (+ dead recheck) guards its half of the race. Going backward, the
  // target is accepted only while it still links forward to leaf_ under its
  // validated version — a lagging back-link (the target split; its new
  // right sibling sits between them) fails that check AFTER the fill
  // installed the wrong predecessor, so the previous (still coherent)
  // snapshot is restored before the caller continues from it; resuming from
  // the target would skip every key in between. Returns true when handled
  // (window installed or list end reached), false on any lost race.
  bool Hop(bool forward, bool locked) {
    for (;;) {
      Leaf* cur = leaf_;
      const uint64_t cur_version = leaf_version_;
      Leaf* nb = forward ? cur->next.load(std::memory_order_acquire)
                         : cur->prev.load(std::memory_order_acquire);
      if (!leafops::SeqlockReadValidate(cur->version, cur_version)) {
        return false;
      }
      if (nb == nullptr) {
        valid_ = false;  // cur is the list's last (or head) leaf
        return true;
      }
      if (TrySpecFill(nb, forward, /*has_bound=*/false, /*strict=*/false,
                      LockFor(locked)) != SpecFill::kOk) {
        return false;
      }
      if (!forward &&
          (nb->next.load(std::memory_order_acquire) != cur ||
           !leafops::SeqlockReadValidate(nb->version, leaf_version_))) {
        leaf_ = cur;
        leaf_version_ = cur_version;
        return false;
      }
      if (Land(forward)) {
        return true;
      }
      // A validated empty live leaf (only ever the head): keep walking from
      // the fresh snapshot the fill installed.
    }
  }

  BasicWormhole* wh_;
  typename Sync::Pin pin_;
  Leaf* leaf_ = nullptr;  // leaf win_ was filled from (pin keeps it alive)
  uint64_t leaf_version_ = 0;
  leafops::FlatWindow win_;  // reused across refills
  size_t pos_ = 0;
  bool valid_ = false;
  bool trunc_lo_ = false;  // refill left leaf items out below the window
  bool trunc_hi_ = false;  // ... and above it
  size_t hint_ = 0;      // SetScanLimitHint: items per positioning (0 = all)
  size_t consumed_ = 0;  // steps taken since the last Seek/SeekForPrev
  std::string bound_;  // re-route point: first/last key (strict_?beyond:at) it
  bool strict_ = false;
  Pending pending_ = Pending::kNone;  // deferred boundary step (see Advance)
};

template <typename Sync>
std::unique_ptr<Cursor> BasicWormhole<Sync>::NewCursor() {
  return std::make_unique<CursorImpl>(this);
}

template <typename Sync>
size_t BasicWormhole<Sync>::Scan(std::string_view start, size_t count, const ScanFn& fn) {
  if (count == 0) {
    return 0;  // skip the cursor's pin/route round-trip entirely
  }
  typename Sync::Op op(qsbr_);
  CursorImpl c(this);
  return ScanViaCursor(&c, start, count, fn);
}

// --- structural writers (meta_mu_ held) ------------------------------------

template <typename Sync>
void BasicWormhole<Sync>::PublishChain(uint32_t hash, Node* drop, Node* add) {
  Table* t = table_.load(std::memory_order_relaxed);
  std::atomic<Bucket*>& slot = t->buckets[hash & t->mask];
  Bucket* old = slot.load(std::memory_order_relaxed);
  slot.store(metabucket::Rebuild(old, drop, TagOf(hash), add, opt_.sort_by_tag),
             std::memory_order_release);
  RetireChain<Sync>(qsbr_, old);
}

template <typename Sync>
void BasicWormhole<Sync>::MaybeGrowTable() {
  Table* t = table_.load(std::memory_order_relaxed);
  if (node_count_ <= t->buckets.size() * 2) {
    return;
  }
  Table* nt = new Table(t->buckets.size() * 2);
  for (auto& bp : t->buckets) {
    // Rehash from each node's immutable prefix (entries carry only the tag).
    // The new table is unpublished: plain stores suffice, and each chain a
    // rehashed node outgrows is freed at once.
    const Bucket* b = bp.load(std::memory_order_relaxed);
    metabucket::ForEach(b, [&](uint16_t, Node* nd) {
      const uint32_t h = HashPrefix(nd->prefix);
      std::atomic<Bucket*>& ns = nt->buckets[h & nt->mask];
      Bucket* old = ns.load(std::memory_order_relaxed);
      ns.store(metabucket::Rebuild<Node>(old, nullptr, TagOf(h), nd,
                                         opt_.sort_by_tag),
               std::memory_order_relaxed);
      metabucket::FreeChain(old);
    });
  }
  table_.store(nt, std::memory_order_release);
  for (auto& bp : t->buckets) {
    RetireChain<Sync>(qsbr_, bp.load(std::memory_order_relaxed));
  }
  Sync::Retire(qsbr_, t);
}

template <typename Sync>
void BasicWormhole<Sync>::InsertAnchor(const std::string& anchor, Leaf* leaf) {
  uint32_t state = kCrc32cInit;
  Node* parent = nullptr;
  const Table* t = table_.load(std::memory_order_relaxed);
  // Shallow-to-deep insertion keeps the present prefix set prefix-closed at
  // every instant, preserving the binary-search monotonicity readers rely on;
  // each node is fully initialized before the bucket swap publishes it, and
  // the parent's child bit is set only after the child is findable.
  for (size_t d = 0; d <= anchor.size(); d++) {
    if (d > 0) {
      state = Crc32cExtend(state, anchor.data() + d - 1, 1);
    }
    const std::string_view prefix(anchor.data(), d);
    Node* n = LookupNode(t, state, prefix);
    if (n == nullptr) {
      n = new Node(std::string(prefix));
      n->lmost.store(leaf, std::memory_order_relaxed);
      n->rmost.store(leaf, std::memory_order_relaxed);
      if (d == anchor.size()) {
        n->has_terminal.store(true, std::memory_order_relaxed);
      }
      PublishChain(state, nullptr, n);
      node_count_++;
      parent->SetChild(static_cast<uint8_t>(anchor[d - 1]));  // d >= 1: root pre-exists
    } else {
      if (anchor < n->lmost.load(std::memory_order_relaxed)->anchor) {
        n->lmost.store(leaf, std::memory_order_release);
      }
      if (anchor > n->rmost.load(std::memory_order_relaxed)->anchor) {
        n->rmost.store(leaf, std::memory_order_release);
      }
      if (d == anchor.size()) {
        n->has_terminal.store(true, std::memory_order_release);
      }
    }
    parent = n;
  }
  if (anchor.size() > max_anchor_len_.load(std::memory_order_relaxed)) {
    max_anchor_len_.store(anchor.size(), std::memory_order_release);
  }
}

template <typename Sync>
void BasicWormhole<Sync>::SplitAndInsert(Leaf* left, std::string_view key,
                                         std::string_view value, uint32_t kv_hash) {
  // Preconditions: meta_mu_ and left->lock (exclusive) held; left is full and
  // does not contain key. The caller releases left->lock after this returns.
  const size_t n = left->store.size();
  assert(n >= 2);
  (void)n;
  const size_t si =
      leafops::ChooseSplitIndex(left->store, opt_.split_shortest_anchor);
  const std::string_view right_min = left->store.KeyAt(si);
  // Copy the anchor bytes out before SplitTail rewrites the slab under them.
  Leaf* right = new Leaf(std::string(right_min.substr(
      0, leafops::SeparatorLen(left->store.KeyAt(si - 1), right_min))));
  // The right leaf inherits the QSBR-backed block-release hook BEFORE its
  // store is built: any block its later growth replaces must outlive the
  // grace period once the leaf is published.
  right->store.release = left->store.release;
  {
    // One seqlock write section covers the store swap, the covered insert
    // and the linkage update: left's store mutates and its range shrinks,
    // and an optimistic reader overlapping any of it sees an odd or advanced
    // version and retries. Net +2 — the same coverage-change bump as before.
    leafops::SeqlockWriteSection ws(&left->version);
    leafops::SplitTail(&left->store, &right->store, si, opt_.direct_pos);
    // The new item goes to whichever side covers it — placed before
    // publication, so no second published-leaf lock is ever taken.
    leafops::LeafStore* dst = key < std::string_view(right->anchor)
                                  ? &left->store
                                  : &right->store;
    leafops::Insert(dst, opt_.direct_pos, key, value, kv_hash,
                    leafops::Locate(*dst, opt_.direct_pos, key, kv_hash));

    // Publish: link the fully built leaf into the list (the release store
    // to left->next publishes right's fields). A reader routed to left for
    // a right-side key after this fails validation (key >= right->anchor)
    // and retries.
    Leaf* nx = left->next.load(std::memory_order_relaxed);
    right->prev.store(left, std::memory_order_relaxed);
    right->next.store(nx, std::memory_order_relaxed);
    if (nx != nullptr) {
      nx->prev.store(right, std::memory_order_release);
    }
    left->next.store(right, std::memory_order_release);
  }

  InsertAnchor(right->anchor, right);
  MaybeGrowTable();
}

template <typename Sync>
void BasicWormhole<Sync>::RemoveLeafLocked(Leaf* leaf) {
  // Preconditions: meta_mu_ and leaf->lock (exclusive) held; leaf is empty
  // and is not head_.
  assert(leaf != head_ && leaf->store.size() == 0);
  {
    // Retirement is the dead flag now, not version parity; the write section
    // still advances the version by 2 so any optimistic read or cursor
    // snapshot that straddles the removal fails its validation.
    leafops::SeqlockWriteSection ws(&leaf->version);
    leaf->dead.store(true, std::memory_order_release);
  }
  const std::string& a = leaf->anchor;
  std::vector<uint32_t> states(a.size() + 1);
  states[0] = kCrc32cInit;
  for (size_t d = 1; d <= a.size(); d++) {
    states[d] = Crc32cExtend(states[d - 1], a.data() + d - 1, 1);
  }
  const Table* t = table_.load(std::memory_order_relaxed);
  Leaf* lprev = leaf->prev.load(std::memory_order_relaxed);
  Leaf* lnext = leaf->next.load(std::memory_order_relaxed);
  // Deepest-first: nodes whose subtree held only this leaf are unlinked and
  // retired (the prefix set stays prefix-closed at every instant); survivors
  // get their leaf bounds repointed to the contiguous neighbor.
  for (size_t d = a.size();; d--) {
    Node* n = LookupNode(t, states[d], std::string_view(a.data(), d));
    assert(n != nullptr);
    if (n->lmost.load(std::memory_order_relaxed) == leaf &&
        n->rmost.load(std::memory_order_relaxed) == leaf) {
      // d >= 1 here: the root spans head_, which is never removed.
      PublishChain(states[d], n, nullptr);
      node_count_--;
      Node* parent = LookupNode(t, states[d - 1], std::string_view(a.data(), d - 1));
      parent->ClearChild(static_cast<uint8_t>(a[d - 1]));
      Sync::Retire(qsbr_, n);
    } else {
      if (d == a.size()) {
        n->has_terminal.store(false, std::memory_order_release);
      }
      if (n->lmost.load(std::memory_order_relaxed) == leaf) {
        n->lmost.store(lnext, std::memory_order_release);
      }
      if (n->rmost.load(std::memory_order_relaxed) == leaf) {
        n->rmost.store(lprev, std::memory_order_release);
      }
    }
    if (d == 0) {
      break;
    }
  }
  lprev->next.store(lnext, std::memory_order_release);
  if (lnext != nullptr) {
    lnext->prev.store(lprev, std::memory_order_release);
  }
  // The leaf is unreachable for new readers; in-flight ones still holding it
  // see the dead flag (or the advanced version) and retry. Freed after the
  // grace period (the caller's own quiescent report comes after it releases
  // leaf->lock).
  Sync::Retire(qsbr_, leaf);
}

// --- accounting ------------------------------------------------------------

template <typename Sync>
uint64_t BasicWormhole<Sync>::MemoryBytes() const {
  ScopedLock g(meta_mu_);  // structure is stable underneath
  uint64_t total = sizeof(*this);
  for (Leaf* l = head_; l != nullptr; l = l->next.load(std::memory_order_relaxed)) {
    ScopedReadLock lk(l->lock);
    total += sizeof(Leaf) + StrHeapBytes(l->anchor);
    total += leafops::MemoryBytes(l->store, opt_.direct_pos);
  }
  const Table* t = table_.load(std::memory_order_relaxed);
  total += sizeof(Table) + t->buckets.size() * sizeof(std::atomic<Bucket*>);
  for (const auto& bp : t->buckets) {
    const Bucket* b = bp.load(std::memory_order_relaxed);
    total += metabucket::LineCount(b) * sizeof(Bucket);
    metabucket::ForEach(b, [&](uint16_t, const Node* nd) {
      total += sizeof(Node) + StrHeapBytes(nd->prefix);
    });
  }
  return total;
}

template <typename Sync>
WormholeStats BasicWormhole<Sync>::stats() const {
  WormholeStats s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.probes = probes_.load(std::memory_order_relaxed);
  return s;
}

template class BasicWormhole<Concurrent>;
template class BasicWormhole<NoSync>;

}  // namespace wh
