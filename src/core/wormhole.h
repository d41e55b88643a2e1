// Wormhole: an ordered in-memory index with O(log L) point lookups (L = key
// length), after the EuroSys'19 paper.
//
// Structure: all items live in a doubly-linked list of sorted leaf nodes. Each
// leaf owns an anchor key such that anchor <= every key in the leaf < the next
// leaf's anchor; the first leaf's anchor is the empty string. The MetaTrieHT is
// a hash table encoding the trie of every anchor prefix: one node per distinct
// prefix, holding the leftmost/rightmost leaves whose anchors carry that prefix,
// a 256-bit bitmap of child bytes, and a terminal flag (prefix == some anchor).
//
// A point lookup binary-searches the prefix length of the search key against
// the hash table to find the longest prefix match (O(log L) hash probes), then
// uses the child bitmap to locate the leaf whose anchor range covers the key —
// no tree descent, so the cost is independent of the key count N.
//
// Memory layout (the cache-conscious core):
//   - MetaTrieHT buckets are chains of fixed 8-entry 64-byte-aligned lines
//     (src/core/meta_bucket.h): inline 16-bit tags, so a negative probe in
//     the LPM binary search touches exactly one cache line. The sizing policy
//     (grow at 2 entries/bucket) keeps chains at one line almost always.
//   - Leaf items live in one contiguous per-leaf slab (src/core/leaf_ops.h):
//     fixed 24-byte slots with offset/length-encoded keys and inline short
//     values — no per-item std::string headers or heap allocations.
//   - The full-key hash the DirectPos in-leaf search needs is derived by
//     extending the LPM's incremental CRC32C prefix state over the key's
//     tail, never by rehashing from byte 0.
//
// Options gates the paper's Fig. 11 ablation ladder (each optimization layered
// on the previous):
//   tag_matching  compare a 16-bit hash tag before any string comparison
//   inc_hashing   extend a saved CRC32C state during the binary search instead
//                 of rehashing each probed prefix from byte 0
//   sort_by_tag   keep hash-bucket entries sorted by tag (early-exit search)
//   direct_pos    per-leaf hash-ordered index of (hash tag, slot id)
//                 entries: an in-leaf point search starts at the tag's
//                 interpolated position and reads one index line, one slot
//                 and one key instead of binary-searching full keys
//
// One core, two synchronization policies. BasicWormhole<Sync> is the whole
// index; the policy supplies only synchronization (see Concurrent / NoSync
// below). Wormhole = BasicWormhole<Concurrent> is the thread-safe index
// described next; WormholeUnsafe = BasicWormhole<NoSync> runs the very same
// trie, leaf path, point read, split rule and cursor with no-op locks, no
// QSBR guard or pin, immediate frees, and plain key compares and value
// copies in the in-leaf search — the thread-unsafe variant of the paper's
// Figs. 9–10, used by the Fig. 11 ablation configurations.
//
// Concurrency (Wormhole; the paper's section 4 design):
//
// No global lock: one shared_mutex would bounce its reader-count cache line
// between cores and flatten Get throughput as threads grow — the collapse
// the paper's Fig. 9 rules out. Instead:
//
//   - Point reads are LOCK-FREE on the fast path (seqlock-style optimistic
//     validation; the paper's QSBR-reader claim made real). A lookup walks
//     the MetaTrieHT lock-free (hash-bucket lines are immutable copy-on-write
//     chains published by atomic pointer stores; trie-node fields are
//     word-sized atomics), then — without touching the target leaf's lock —
//     snapshots the leaf's version counter (must be even: odd means a writer
//     is mid-mutation), re-checks coverage ([anchor, next->anchor)) and the
//     dead flag, speculatively copies the matched 24-byte slot and value
//     bytes out of the leaf slab through relaxed atomic loads
//     (leafops::SpecFind), issues an acquire fence, and re-reads the
//     version and the dead flag. An unchanged even version proves no writer
//     overlapped the copy, so the bytes are a consistent snapshot; any
//     change discards the copy and retries. MultiGet runs the same read in
//     steps interleaved across a key group, inside the same SpecBegin /
//     PointVerdict bracket, and checks coverage after the search instead.
//     The fast path performs zero atomic RMW: no reader-count cache line
//     bounces between cores.
//   - Reads have ONE extractor each (SpecFind for point reads,
//     SpecFillWindow for cursor windows) and no separate locked path. After
//     Options::optimistic_retries failed attempts (every attempt when it is
//     0) the read runs the same extractor while holding the leaf's shared
//     lock. Every version bump and dead-flag store happens under the leaf's
//     exclusive lock, so under the shared lock validation cannot fail — the
//     locked attempt is what keeps readers from livelocking under write
//     storms. A locked point read or positioning routes through AcquireLeaf
//     (lock, validate coverage, retry a stale route, and serialize with
//     structural writers after a bounded number of attempts).
//   - In-leaf writes (update / insert with room / non-emptying delete) take
//     only that leaf's lock, and bracket every store mutation in a seqlock
//     write section (leaf_ops.h): version goes odd, a release fence, the
//     mutation through relaxed atomic stores, then version lands even two
//     above where it started. Structural changes (split/removal) use the
//     same bracket around the store swap and linkage updates.
//   - A write's in-leaf search may run before its lock is taken. MultiPut
//     searches each key's routed leaf lock-free, like a MultiGet read: a
//     version snapshot, then the search through relaxed loads. Once it
//     holds the leaf's exclusive lock it validates that snapshot as a read
//     does. No writer can be mid-section while the lock is held, and every
//     section a writer completes leaves the version two higher, so an
//     unchanged version means the store is exactly the one the search read,
//     and the write uses its positions. A changed version, a different
//     locked leaf or an inconsistent snapshot discards them, and the search
//     runs again under the lock.
//   - Structural changes (leaf split, empty-leaf removal, table growth)
//     serialize on one internal mutex — they are rare, O(items/capacity) —
//     and publish new state with release stores. Replaced leaves, trie nodes
//     and bucket lines are handed to QSBR (src/common/qsbr.h) and freed only
//     after every thread passes a quiescent state, so lock-free readers can
//     keep dereferencing what they already found.
//
// Ordered cursors (src/common/cursor.h): NewCursor() gives bidirectional
// Seek/Next/Prev iteration; Scan() is a thin wrapper over it. The cursor
// emits from a window of one leaf — validated snapshots of its slot records,
// whose keys and values key()/value() return as views into the leaf's slab
// block, never copies; its protocol, mirroring Get:
//   - The cursor holds a QSBR *epoch pin* (Qsbr::Pin) for its lifetime, so
//     the leaf pointer it remembers between calls stays dereferenceable even
//     after the leaf is unlinked — exactly the guarantee lock-free lookups
//     get from their implicit no-quiesce window, made explicit across calls.
//     The pin also keeps the window's slab block alive after a writer
//     replaces it, and its bytes never change while it lives (the view
//     invariant in leaf_ops.h), so key()/value() views need no copy.
//   - Every window fill is one SpecFillWindow attempt inside the seqlock
//     protocol: read an even version, rank the window and snapshot its slot
//     records through the same relaxed-atomic bounds-clamped discipline
//     SpecFind uses (24 bytes per item, no key byte), then
//     validate — acquire fence, version unchanged, leaf not dead. A
//     speculative attempt holds no lock, so a validated window is a
//     consistent snapshot taken with ZERO atomic RMW: read-only scans never
//     write a leaf lock word or any other shared cache line. Once an
//     operation has spent Options::optimistic_retries attempts, the rest run
//     locked, exactly like Get: a positioning through AcquireLeaf, a
//     continuation or hop target under that leaf's shared lock. Either way
//     the fill honors SetScanLimitHint — a scan that fits the hint takes
//     only the items it will emit and nothing else; without a hint the fill
//     covers the rest of the leaf. Any lock is released before the fill
//     returns; the cursor then prefetches the NEXT leaf's rank index / slot
//     array / slab while the window drains (legal because nothing is held —
//     the neighbor's blocks are QSBR-protected and prefetch is invisible to
//     the memory model). User code only ever sees the window: no cursor
//     path holds a leaf lock while invoking user code, and a cursor parked
//     between calls blocks no writer.
//   - Next/Prev past a window edge flush with the leaf boundary hop to the
//     neighbor leaf: load the neighbor pointer, revalidate the drained
//     leaf's version (which proves the pointer still bounds the window),
//     then fill the neighbor — plus its dead flag and, going backward, the
//     back-link. Past a TRUNCATED edge (bounded fill left items behind in
//     the same leaf) the cursor refills from the same leaf. Any lost race —
//     the leaf split, was removed, or the neighbor changed mid-hop — retries
//     as a refill from the drained leaf past the last returned key, and
//     ultimately a fresh re-Seek from that key, which can only re-route,
//     never skip or duplicate a persistent key.
// Consequence: a cursor observes each window atomically (a consistent
// snapshot at fill time); concurrent inserts/deletes elsewhere may or may
// not be seen, and keys present for the whole traversal are seen exactly
// once.
//
// Threading requirements for embedders: threads are registered with QSBR
// lazily on first use and unregistered at thread exit; every Wormhole
// operation reports a quiescent state on completion. Long-lived threads that
// stop calling into the index should unregister (QsbrThreadScope) so they do
// not stall reclamation, and an index must only be destroyed after all other
// threads have quiesced or exited. A live cursor pins its thread's epoch —
// destroy cursors promptly (and always before the index / QsbrThreadScope).
//
// WormholeUnsafe is not safe for any concurrent use, and any mutation
// invalidates its outstanding cursors: with no epoch pin, a leaf a cursor
// remembers may be freed by the next Delete.
#ifndef WH_SRC_CORE_WORMHOLE_H_
#define WH_SRC_CORE_WORMHOLE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/cursor.h"
#include "src/common/qsbr.h"
#include "src/common/sync.h"
#include "src/common/scan.h"
#include "src/core/leaf_ops.h"
#include "src/core/meta_bucket.h"

namespace wh {

// Upper clamp of Options::leaf_capacity: leaf indexes use 16-bit slot ids.
inline constexpr size_t kMaxLeafCapacity = 4096;

// Input bounds: Put and MultiPut refuse a longer key or value. A leaf's slab
// (uint32_t koff / voff) holds at most kMaxLeafCapacity + 1 items, no more
// dead bytes than live ones plus 255 (MaybeCompact's dead-bytes trigger; its
// shrink trigger only rebuilds sooner, and every store leafops::BuildStore
// makes, split halves included, holds live bytes only), and one overwritten
// value past that: under 4 * kMaxLeafCapacity items' worth of bytes.
inline constexpr size_t kMaxKeyBytes = 8 << 10;
inline constexpr size_t kMaxValueBytes = 120 << 10;
static_assert(4 * kMaxLeafCapacity * (kMaxKeyBytes + kMaxValueBytes) <=
                  std::numeric_limits<decltype(leafops::LeafSlot::koff)>::max(),
              "a full leaf's slab could overflow its 32-bit offsets");

struct Options {
  bool tag_matching = true;
  bool inc_hashing = true;
  bool sort_by_tag = true;
  bool direct_pos = true;
  // Future-work split heuristic (paper section 6): instead of always splitting
  // a full leaf in the middle, scan the middle half for the split point that
  // minimizes the new anchor's length.
  bool split_shortest_anchor = false;
  // Count MetaTrieHT hash probes per lookup (the O(log L) validation bench).
  // When false, lookups touch no shared statistics counters at all.
  bool count_probes = false;
  // Clamped to [4, kMaxLeafCapacity].
  size_t leaf_capacity = 128;
  // Lock-free seqlock-validated attempts per Get / MultiGet key and per
  // cursor window fill before the read runs the same extractor under the
  // leaf's shared lock. 0 means every read and fill takes the shared lock —
  // the forced-fallback tests pin it there to exercise the locked attempt
  // deterministically. Under NoSync the first attempt always validates.
  uint32_t optimistic_retries = 3;
};

struct WormholeStats {
  uint64_t lookups = 0;
  uint64_t probes = 0;
  double avg_probes() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(probes) / static_cast<double>(lookups);
  }
};

// Synchronization policies of BasicWormhole. A policy carries the lock
// types, the compare mode of point reads (kPlainReads: no writer can overlap
// one, so the in-leaf search compares keys and copies the value with plain
// loads), the per-operation QSBR guard (Op), the cursor's epoch pin (Pin)
// and retirement (Retire, plus the leaf stores' block-release hook);
// everything else is one shared implementation. The members are defined in
// wormhole.cc, their only user.
struct Concurrent {
  using LeafMutex = SharedMutex;
  using MetaMutex = Mutex;
  static constexpr bool kPlainReads = false;
  class Op;   // registers with the domain, quiesces when the op ends
  class Pin;  // a cursor's epoch pin for its lifetime
  template <typename T>
  static void Retire(Qsbr* qsbr, T* p);  // freed after the grace period
  static leafops::BlockRelease StoreRelease(Qsbr* qsbr);
  static void Drain(Qsbr* qsbr);  // reclaim what the destroyed index retired
};

// Single-threaded: no-op locks, guard and pin; retirement frees at once.
struct NoSync {
  using LeafMutex = NullMutex;
  using MetaMutex = NullMutex;
  static constexpr bool kPlainReads = true;
  struct Op;
  struct Pin;
  template <typename T>
  static void Retire(Qsbr* qsbr, T* p);
  static leafops::BlockRelease StoreRelease(Qsbr* qsbr);
  static void Drain(Qsbr* qsbr);
};

// The Wormhole index: lock-free lookups through the MetaTrieHT, per-leaf
// reader-writer locks for item access, QSBR reclamation for structural
// changes — each a no-op under NoSync. See the header comment for the full
// concurrency model. Instantiated for Concurrent and NoSync only.
template <typename Sync>
class BasicWormhole {
 public:
  struct Leaf;

  BasicWormhole() : BasicWormhole(Options()) {}
  // `qsbr` is the reclamation domain this index retires into; all threads
  // operating on the index participate in it. The default is the process-wide
  // domain; the Service (src/server) gives its index a domain of its own, so
  // other indexes' slow readers never stall its reclamation. NoSync ignores
  // it.
  explicit BasicWormhole(const Options& opt, Qsbr* qsbr = &Qsbr::Default());
  ~BasicWormhole();
  BasicWormhole(const BasicWormhole&) = delete;
  BasicWormhole& operator=(const BasicWormhole&) = delete;

  // The EXCLUDES(meta_mu_) on the public API is the threading contract: the
  // caller must not hold the structural mutex (each operation may acquire it
  // itself on the slow path — stale-route fallback, splits, merges).
  //
  // Get's fast path is the lock-free optimistic read described in the header
  // comment; it acquires no lock and performs no atomic RMW. On a miss (or a
  // failed speculative attempt) *value may hold scribbled bytes — consume it
  // only when Get returns true.
  bool Get(std::string_view key, std::string* value) EXCLUDES(meta_mu_);
  // False, and nothing changes, when key or value exceeds the input bounds.
  bool Put(std::string_view key, std::string_view value) EXCLUDES(meta_mu_);
  bool Delete(std::string_view key) EXCLUDES(meta_mu_);
  // Wrapper over NewCursor: per-leaf snapshot semantics, fn runs with no
  // leaf lock held (see the cursor section of the header comment).
  size_t Scan(std::string_view start, size_t count, const ScanFn& fn)
      EXCLUDES(meta_mu_);
  // Epoch-pinned bidirectional cursor, safe under concurrent writers (the
  // protocol is described in the header comment; the contract in cursor.h).
  // SetScanLimitHint(n) on the returned cursor engages the bounded fill mode
  // — short scans take only the n items they will emit per positioning.
  // Destroy cursors promptly: a live one pins this thread's QSBR epoch in
  // the index's domain, deferring all reclamation behind it. Opening a
  // cursor per request is cheap: the pin is taken per cursor, but its
  // window comes from a small per-thread free list that destroyed cursors
  // refill, so a thread's cursors reuse slot-snapshot arrays already grown
  // to its leaves instead of allocating new ones.
  std::unique_ptr<Cursor> NewCursor();

  // Batched point lookups. values and hits are resized to keys.size(); on a
  // miss the value slot is cleared and the hit byte is 0. The whole batch
  // runs under one quiescent-state report, through a prefetch-interleaved
  // pipeline over groups of kRouteGroup keys that overlaps the memory
  // latencies a serial loop pays back-to-back (stages in wormhole.cc): the
  // routes, one probe line per key per round — the same Route serial Get
  // runs — then the in-leaf reads step by step — the speculative read, as
  // attempt 0. A key that loses it runs Get's remaining attempts and locked
  // fallback, each route counted like Get's (at optimistic_retries 0 every
  // key goes straight to that fallback). Returns the hit count.
  size_t MultiGet(const std::vector<std::string_view>& keys,
                  std::vector<std::string>* values, std::vector<uint8_t>* hits)
      EXCLUDES(meta_mu_);

  // Keys whose routes MultiGet, MultiPut and PrefetchRoutes interleave at a
  // time: a caller that wants n keys walked as one group passes
  // n <= kRouteGroup. 16 is about as many misses as a core's L1 keeps in
  // flight. With a 128-Get batch in one MultiGet, 16 read 5-10% more
  // get-uniform throughput than 8 in two in-process A/Bs
  // (scripts/ab_inproc.py, 2M keys, 4-vCPU host), and 32 the same as 16.
  static constexpr size_t kRouteGroup = 16;

  // A hint with no visible semantics (like Cursor::SetScanLimitHint): walks
  // the routes of keys[0, n), kRouteGroup at a time, through MultiGet's
  // interleaved route stage and warms each routed leaf's header and the
  // block headers a cursor fill reads, so Seeks of those keys find them in
  // cache. Service::Execute calls it before a run of scans. Its routes
  // count in stats() like any other.
  void PrefetchRoutes(const std::string_view* keys, size_t n) const
      EXCLUDES(meta_mu_);

  // Batched Put: one quiescent-state report for the batch, and MultiGet's
  // pipeline over groups of kRouteGroup keys (stages in wormhole.cc): the
  // routes, then a lock-free leafops::PutProbe per key for its slot or its
  // two insert positions, then the Puts in batch order, each under its
  // leaf's exclusive lock. A key keeps its pre-searched positions only while
  // the leaf's version proves them current (the concurrency section of the
  // header comment); else it searches under the lock, as Put does. Keys
  // hitting the held leaf reuse its lock; a full leaf takes the split path.
  // At optimistic_retries 0 no key pre-searches, and a group of one key (a
  // batch of one, or a batch's last key) is neither routed ahead nor
  // pre-searched: it runs as Put does, which is a batch of one. size()
  // counts the batch's inserts when MultiPut returns. Applies every item
  // within the input bounds; false if it refused any.
  bool MultiPut(
      const std::vector<std::pair<std::string_view, std::string_view>>& items)
      EXCLUDES(meta_mu_);

  uint64_t MemoryBytes() const EXCLUDES(meta_mu_);
  // Exact while no write runs. A MultiPut adds its inserts when it returns,
  // so while one runs, size() lags the items it has applied (and a
  // concurrent Delete of one of them can drop it below the true count).
  size_t size() const { return item_count_.load(std::memory_order_relaxed); }
  WormholeStats stats() const;
  const Options& options() const { return opt_; }

  // RouteToLeaf's leaf for key: exact under NoSync, best-effort (maybe stale
  // or null) under Concurrent. Reads only the trie (svcbench times it).
  Leaf* FindLeaf(std::string_view key) const {
    uint32_t kv_hash;
    return RouteToLeaf(key, &kv_hash);
  }

 private:
  struct Node;
  class CursorImpl;
  // Immutable once published (PublishChain).
  using Bucket = metabucket::BucketLine<Node>;
  struct Table;

  enum class Mode { kShared, kExclusive };

  // Lock-free read path.
  Node* FindNodeInChain(const Bucket* b, uint32_t hash,
                        std::string_view prefix) const;
  Node* LookupNode(const Table* t, uint32_t hash, std::string_view prefix) const;
  // The resumable trie walk of one key — the LPM binary search, then the
  // leaf resolution — stepped one probe line at a time: RouteToLeaf runs it
  // in one go, MultiGet interleaves a key group's. It alone counts the
  // probe statistics.
  struct Route;
  // MultiGet's route stage, shared with PrefetchRoutes: runs the routes of
  // keys[0, g) (g <= kRouteGroup) interleaved into routes[0, g), and
  // prefetches each leaf header as its route ends.
  void RouteGroup(const std::string_view* keys, size_t g, Route* routes) const;
  // Best-effort route to the covering leaf; may return nullptr or a stale
  // leaf during a concurrent structural change (callers validate + retry).
  // When DirectPos is on and the route succeeds, *kv_hash receives the
  // full-key hash extended from the LPM prefix state.
  Leaf* RouteToLeaf(std::string_view key, uint32_t* kv_hash) const;
  // Route + lock + validate, retrying on concurrent splits/merges; falls back
  // to serializing with structural writers after bounded retries. Returns the
  // leaf with its lock held in `mode` and fills *kv_hash as RouteToLeaf does.
  // A non-null `routed` is a leaf the caller already routed key to, with
  // *kv_hash preset from that route: the first attempt locks it unrouted.
  // NO_TSA: which leaf lock is taken is data-dependent (the routed leaf), and
  // the function returns with it held — a transfer TSA cannot express.
  // Callers immediately re-assert the held lock (AssertHeld/AssertReaderHeld)
  // so analysis resumes on their side; TSan covers the waived path.
  Leaf* AcquireLeaf(std::string_view key, Mode mode, uint32_t* kv_hash,
                    Leaf* routed = nullptr) NO_THREAD_SAFETY_ANALYSIS;
  static bool Covers(const Leaf* leaf, std::string_view key);

  enum class SpecOutcome { kHit, kMiss, kRetry };
  // The seqlock bracket of every lock-free leaf read (point reads and cursor
  // window fills): SpecBegin snapshots the version, false if it is odd (a
  // writer is mid-section); SpecEnd is true iff the version held still
  // across the speculative copy and the leaf is not retired.
  static bool SpecBegin(const Leaf* leaf, uint64_t* begin);
  static bool SpecEnd(const Leaf* leaf, uint64_t begin);
  // End half of a point read: kRetry unless the snapshot `r` came from is
  // internally consistent and SpecEnd validates. The caller checks Covers
  // inside the bracket.
  static SpecOutcome PointVerdict(const Leaf* leaf, uint64_t begin,
                                  leafops::SpecRead r);
  // One lock-free optimistic read attempt against a routed leaf candidate:
  // SpecBegin, Covers, leafops::SpecFind, PointVerdict. kHit/kMiss are
  // seqlock-validated verdicts; kRetry means the snapshot was unusable —
  // odd/changed version, dead leaf, key outside the anchor range, or an
  // internally impossible store snapshot. On kMiss/kRetry *value may hold
  // scribbled bytes. Both policies run this body; Sync::kPlainReads only
  // picks the search's compare and copy mode.
  // NO_TSA (here and on the two MultiGet round helpers below): the
  // seqlock-reader shape (sync.h usage rules) — reads GUARDED_BY(leaf->lock)
  // data with no lock and discards the result unless the version validates;
  // the TSan stage exercises the race directly.
  SpecOutcome OptimisticLeafGet(Leaf* leaf, std::string_view key,
                                uint32_t kv_hash, std::string* value) const
      NO_THREAD_SAFETY_ANALYSIS;
  // A key's lock-free in-leaf search in MultiGet's and MultiPut's stage 2:
  // the version snapshot it runs under (live: SpecBegin took an even one)
  // and its probe — a SpecProbe for a point read, a PutProbe for a Put.
  template <typename Probe>
  struct LeafSearch {
    uint64_t begin = 0;
    Probe probe;
    bool live = false;
  };
  // Stage 2 of MultiGet and MultiPut: runs the searches of keys[0, g) in
  // their routed leaves (routes[i].leaf, null: no search), interleaved in
  // rounds — OptimisticLeafGet cut at its cache misses, up to (not
  // including) coverage, Finish and validation, which are the caller's.
  template <typename Probe>
  void SearchGroup(const std::string_view* keys, size_t g,
                   const Route* routes, LeafSearch<Probe>* s) const
      NO_THREAD_SAFETY_ANALYSIS;
  // Round 1 of a stage-2 search: warm the next leaf and the store's block
  // headers. WarmLeafRead(leaf, true), for PrefetchRoutes, warms the by_key
  // index a cursor fill ranks with instead of the point read's.
  void WarmLeafRead(const Leaf* leaf, bool by_key) const
      NO_THREAD_SAFETY_ANALYSIS;
  // Attempts [first, optimistic_retries) of a point read — re-route, then
  // one OptimisticLeafGet each — and then LockedLeafGet. Get runs them all;
  // a MultiGet key whose pipelined attempt 0 lost runs the rest. The caller
  // holds a Sync::Op.
  bool GetFrom(uint32_t first, std::string_view key, std::string* value)
      EXCLUDES(meta_mu_);
  // The point-read fallback shared by Get and MultiGet: AcquireLeaf, then
  // OptimisticLeafGet on the held leaf — under the shared lock its
  // validation cannot fail. Returns whether key was found.
  bool LockedLeafGet(std::string_view key, uint32_t* kv_hash,
                     std::string* value) EXCLUDES(meta_mu_);

  // Structural writers: REQUIRES(meta_mu_) — only the *Slow paths (which
  // acquire it) and the destructor reach these.
  // The one MetaTrieHT publication: swaps hash's bucket chain for a
  // metabucket::Rebuild of it without `drop` and with `add` (either may be
  // null) by release store, then retires the old chain's lines.
  void PublishChain(uint32_t hash, Node* drop, Node* add) REQUIRES(meta_mu_);
  void MaybeGrowTable() REQUIRES(meta_mu_);
  void InsertAnchor(const std::string& anchor, Leaf* leaf) REQUIRES(meta_mu_);
  // NO_TSA: also requires leaf->lock held exclusive on entry (inexpressible
  // on this declaration: Leaf is incomplete here), and the body initializes
  // the new right leaf's store before publication, i.e. before any lock on it
  // exists. The caller keeps holding leaf->lock across the call and releases
  // it afterwards; meta_mu_ is still enforced at call sites.
  void SplitAndInsert(Leaf* leaf, std::string_view key, std::string_view value,
                      uint32_t kv_hash) REQUIRES(meta_mu_)
      NO_THREAD_SAFETY_ANALYSIS;
  // NO_TSA: same caller-held leaf->lock precondition as SplitAndInsert.
  void RemoveLeafLocked(Leaf* leaf) REQUIRES(meta_mu_)
      NO_THREAD_SAFETY_ANALYSIS;
  // The in-leaf half of every Put, at `at` — what leafops::Locate returns
  // for key on the leaf's current store: update key in place, or insert it
  // when the leaf has room; kFull when the leaf is full and lacks key (the
  // caller splits). Counts nothing: callers add inserts to item_count_.
  // NO_TSA: same caller-held leaf->lock precondition as SplitAndInsert.
  enum class PutOutcome { kUpdated, kInserted, kFull };
  PutOutcome PutInLeaf(Leaf* leaf, std::string_view key,
                       std::string_view value, uint32_t kv_hash,
                       const leafops::SlotPos& at) NO_THREAD_SAFETY_ANALYSIS;
  // The body of Put (one item) and MultiPut: applies items[0, n) in order
  // (stages in wormhole.cc). Forced inline (the attribute only takes on this
  // declaration: the class is an extern template), so Put's call folds to
  // the serial route, lock and search; called out of line, Put loads ran
  // ~4% slower (200K K3 keys, one thread).
  // NO_TSA: the held lock is loop-carried — which leaf's lock is held across
  // iterations is data-dependent, a transfer TSA cannot express.
  [[gnu::always_inline]] inline bool PutBatch(
      const std::pair<std::string_view, std::string_view>* items, size_t n)
      EXCLUDES(meta_mu_) NO_THREAD_SAFETY_ANALYSIS;
  // The split path of a Put whose leaf was full; true if it inserted key.
  bool PutSlow(std::string_view key, std::string_view value)
      EXCLUDES(meta_mu_);
  bool DeleteSlow(std::string_view key) EXCLUDES(meta_mu_);

  Options opt_;
  Qsbr* qsbr_;  // reclamation domain; not owned
  std::atomic<Table*> table_{nullptr};
  Node* root_ = nullptr;  // never removed (anchor "" always exists)
  Leaf* head_ = nullptr;  // never removed
  std::atomic<size_t> max_anchor_len_{0};
  // Serializes splits, merges and table growth (rare: O(1/leaf_capacity) of
  // writes). Lookups and in-leaf writes never touch it outside the bounded
  // retry fallback. Top of the lock hierarchy: meta_mu_ > Leaf::lock (a
  // thread holding a leaf lock never acquires meta_mu_).
  mutable typename Sync::MetaMutex meta_mu_;
  size_t node_count_ GUARDED_BY(meta_mu_) = 0;
  std::atomic<size_t> item_count_{0};  // see size()
  mutable std::atomic<uint64_t> probes_{0};
  mutable std::atomic<uint64_t> lookups_{0};
};

using Wormhole = BasicWormhole<Concurrent>;
using WormholeUnsafe = BasicWormhole<NoSync>;
extern template class BasicWormhole<Concurrent>;
extern template class BasicWormhole<NoSync>;

}  // namespace wh

#endif  // WH_SRC_CORE_WORMHOLE_H_
