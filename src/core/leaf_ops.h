// Internal: slab-backed in-leaf KV storage of the Wormhole core (both of its
// sync policies). A leaf's items live in one contiguous LeafStore:
//
//   slots    fixed 24-byte records at stable ids (append on insert,
//            swap-with-last on erase)
//   by_key   slot ids in key order
//   by_hash  (tag, slot id) entries in (hash, key) order — DirectPos only,
//            else empty; a point read starts at tag * n / 2^16 (see SpecProbe)
//   slab     one byte buffer holding every key (and every out-of-line value)
//
// Key bytes are offset/length-encoded into the slab, so a leaf's keys cost
// exactly their bytes — no per-key std::string header, no per-key heap
// allocation, no SSO slack. Values up to kInlineValue bytes (the paper's
// index-only payload size) are stored inline in the slot; longer values go to
// the slab. Erases and relocating overwrites leave dead bytes behind, tracked
// in `dead`. Erases also leave slot and index capacity behind. One builder,
// BuildStore, makes every fresh store from a key-rank range of another:
// SplitTail builds its two halves with it, and Compact rebuilds a store in
// place once dead bytes dominate its slab or it falls below a quarter of its
// slot capacity (MaybeCompact), so a store shrinks back under delete churn.
//
// Concurrency model (the seqlock read path). Mutators require the caller to
// hold the leaf's exclusive lock. The index reads a leaf through exactly two
// extractors — SpecProbe (point reads: SpecFind runs it in one go, MultiGet
// steps a group of them round-robin; MultiPut's pre-search steps PutProbes,
// which wrap it) and SpecFillWindow (cursor window fills, whose rank search
// is a SpecProbe too) — bracketed by SeqlockReadBegin / SeqlockReadValidate
// on the leaf's version counter, with NO lock on the fast path; its fallback
// runs the same extractor under the leaf's shared lock, where validation
// cannot fail. Writers under the exclusive lock (FindSlot, Locate) and the
// NoSync policy's point reads run SpecProbe in its plain compare mode;
// Key/Value are plain-load accessors for writers.
//
// To make the speculative reads defined behavior, each container is a
// SpecVec: a heap block whose capacity is embedded in its own header, so a
// racy reader can clamp every index and offset to the capacity of the exact
// block it loaded — a stale size or torn offset can point at garbage bytes
// but never outside the allocation. Writers publish replacement blocks with
// release stores and push every byte written into an already-published block
// through relaxed atomic stores (plain stores would be a C++ data race with
// the speculative relaxed loads, and a TSan report). Torn or stale data is
// fine — the seqlock version check discards it.
//
// The view invariant: the bytes a validated slot references never change
// for the life of their block. Writers only append past the slab's live end
// (UpdateValue relocates every out-of-line value it changes, shrinks too);
// growth and every built store (BuildStore, published by AdoptStore or a
// split's link) publish a fresh block and retire the old one. So a reader
// may view a validated slot's bytes in place for as long as it keeps the
// block alive (a cursor's epoch pin: FlatWindow). The
// slab-view lint rule rejects a write into a slab at a slot-derived offset.
// Writers' Key/Value views die with the block a mutating call may replace.
#ifndef WH_SRC_CORE_LEAF_OPS_H_
#define WH_SRC_CORE_LEAF_OPS_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/bytes.h"

namespace wh {
namespace leafops {

inline constexpr uint32_t kInlineValue = 8;


// ---------------------------------------------------------------------------
// Relaxed atomic cell accessors. Speculative readers race with writers by
// design; both sides go through these so the race is on atomic objects
// (defined, TSan-clean) instead of plain ones (UB). Relaxed is sufficient:
// ordering comes from the seqlock version protocol, not from the data.
// ---------------------------------------------------------------------------

#if defined(__GNUC__) || defined(__clang__)
inline void RelaxedStore8(char* p, char v) {
  __atomic_store_n(p, v, __ATOMIC_RELAXED);
}
inline uint16_t RelaxedLoad16(const uint16_t* p) {
  return __atomic_load_n(p, __ATOMIC_RELAXED);
}
inline void RelaxedStore16(uint16_t* p, uint16_t v) {
  __atomic_store_n(p, v, __ATOMIC_RELAXED);
}
inline uint32_t RelaxedLoad32(const uint32_t* p) {
  return __atomic_load_n(p, __ATOMIC_RELAXED);
}
inline void RelaxedStore32(uint32_t* p, uint32_t v) {
  __atomic_store_n(p, v, __ATOMIC_RELAXED);
}
inline uint64_t RelaxedLoad64(const uint64_t* p) {
  return __atomic_load_n(p, __ATOMIC_RELAXED);
}
inline void RelaxedStore64(uint64_t* p, uint64_t v) {
  __atomic_store_n(p, v, __ATOMIC_RELAXED);
}
#else
// Every read runs a speculative extractor (the locked fallback included), so
// there is no plain-access build: plain loads racing writers would be UB.
#error "leaf_ops.h requires the GNU __atomic builtins (GCC or Clang)"
#endif
// The word-wise speculative reads below assemble byte 0 into a word's LSB.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "leaf_ops.h requires a little-endian target");

// Byte-range copies where exactly one side is a published block. The
// published side is accessed in 8-byte relaxed chunks once aligned (block
// payloads are 16-aligned, so alignment is reachable); the private side is
// plain memory.
inline void RelaxedCopyIn(char* dst, const char* src, size_t n) {
  size_t i = 0;
  while (i < n && (reinterpret_cast<uintptr_t>(dst + i) & 7) != 0) {
    RelaxedStore8(dst + i, src[i]);
    i++;
  }
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, src + i, 8);
    RelaxedStore64(reinterpret_cast<uint64_t*>(dst + i), w);
  }
  for (; i < n; i++) {
    RelaxedStore8(dst + i, src[i]);
  }
}

// 8 bytes starting at arbitrary `p`, assembled from the one or two ALIGNED
// words that contain them. `p` must point into a SpecVec block payload:
// payloads are 16-aligned and padded to an 8-byte multiple (AllocBlock), so
// every aligned word containing an in-bounds byte is inside the allocation —
// the reason these helpers never issue a misaligned atomic op (UB, and a
// libatomic call on some targets) and never overread the block.
// hot-path: speculative word load
inline uint64_t SpecLoadWord(const char* p) {
  const uintptr_t u = reinterpret_cast<uintptr_t>(p);
  const char* ap = reinterpret_cast<const char*>(u & ~uintptr_t{7});
  const unsigned lead = static_cast<unsigned>(u & 7) * 8;
  const uint64_t lo = RelaxedLoad64(reinterpret_cast<const uint64_t*>(ap));
  if (lead == 0) {
    return lo;
  }
  const uint64_t hi =
      RelaxedLoad64(reinterpret_cast<const uint64_t*>(ap + 8));
  return (lo >> lead) | (hi << (64 - lead));
}

// 1..7 bytes starting at `p`, zero-extended. Unlike SpecLoadWord this never
// touches a word past the requested range, so it is safe right up against
// the padded end of the block.
inline uint64_t SpecLoadTail(const char* p, size_t n) {
  const uintptr_t u = reinterpret_cast<uintptr_t>(p);
  const char* ap = reinterpret_cast<const char*>(u & ~uintptr_t{7});
  const unsigned lead = static_cast<unsigned>(u & 7);
  uint64_t v = RelaxedLoad64(reinterpret_cast<const uint64_t*>(ap)) >>
               (lead * 8);
  if (lead + n > 8) {  // crosses into the next word (implies lead > 0)
    const uint64_t hi =
        RelaxedLoad64(reinterpret_cast<const uint64_t*>(ap + 8));
    v |= hi << ((8 - lead) * 8);
  }
  return v & ((uint64_t{1} << (n * 8)) - 1);
}

// hot-path: speculative value copy-out
inline void RelaxedCopyOut(char* dst, const char* src, size_t n) {
  // A point read's out-of-line value copy. Streams ALIGNED words, carrying
  // the previous word in a register so a misaligned source costs one load
  // per 8 output bytes, not two — each aligned word is read once and
  // shift-merged with its successor.
  if (n >= 8) {
    const uintptr_t u = reinterpret_cast<uintptr_t>(src);
    const uint64_t* ap =
        reinterpret_cast<const uint64_t*>(u & ~uintptr_t{7});
    const unsigned lead = static_cast<unsigned>(u & 7) * 8;
    size_t i = 0;
    if (lead == 0) {
      for (; i + 8 <= n; i += 8) {
        const uint64_t w = RelaxedLoad64(ap + i / 8);
        std::memcpy(dst + i, &w, 8);
      }
    } else {
      // Word ap[i/8 + 1] always holds byte src+i+7, so the load stays
      // inside the padded block for every full chunk.
      uint64_t prev = RelaxedLoad64(ap);
      for (; i + 8 <= n; i += 8) {
        const uint64_t nxt = RelaxedLoad64(ap + i / 8 + 1);
        const uint64_t w = (prev >> lead) | (nxt << (64 - lead));
        std::memcpy(dst + i, &w, 8);
        prev = nxt;
      }
    }
    if (i < n) {  // 1..7 leftover bytes: overlapping word ending at n
      const uint64_t w = SpecLoadWord(src + n - 8);
      std::memcpy(dst + n - 8, &w, 8);
    }
  } else if (n != 0) {
    uint64_t w = SpecLoadTail(src, n);
    for (size_t i = 0; i < n; i++) {
      dst[i] = static_cast<char>(w);
      w >>= 8;
    }
  }
}

// Lexicographic compare of a speculative key [p, p+len) against a private
// byte string, memcmp semantics over the common prefix (the caller breaks
// length ties). Word-at-a-time: equal words short-circuit without a swap;
// the first differing word decides via byte-reversed comparison.
// hot-path: speculative key compare
inline int SpecKeyCompare(const char* p, size_t len, std::string_view b) {
  const size_t common = len < b.size() ? len : b.size();
  // Streams aligned words like RelaxedCopyOut: hierarchical keysets share
  // long prefixes, so the equal-word loop is the whole cost of a probe and
  // must run at one load per 8 bytes.
  size_t i = 0;
  if (common >= 8) {
    const uintptr_t u = reinterpret_cast<uintptr_t>(p);
    const uint64_t* ap =
        reinterpret_cast<const uint64_t*>(u & ~uintptr_t{7});
    const unsigned lead = static_cast<unsigned>(u & 7) * 8;
    if (lead == 0) {
      for (; i + 8 <= common; i += 8) {
        const uint64_t a = RelaxedLoad64(ap + i / 8);
        uint64_t w;
        std::memcpy(&w, b.data() + i, 8);
        if (a != w) {
          return __builtin_bswap64(a) < __builtin_bswap64(w) ? -1 : 1;
        }
      }
    } else {
      uint64_t prev = RelaxedLoad64(ap);
      for (; i + 8 <= common; i += 8) {
        const uint64_t nxt = RelaxedLoad64(ap + i / 8 + 1);
        const uint64_t a = (prev >> lead) | (nxt << (64 - lead));
        uint64_t w;
        std::memcpy(&w, b.data() + i, 8);
        if (a != w) {
          return __builtin_bswap64(a) < __builtin_bswap64(w) ? -1 : 1;
        }
        prev = nxt;
      }
    }
  }
  if (i < common) {
    if (common >= 8) {
      // Overlapping last-word compare (RelaxedCopyOut's tail trick): bytes
      // [common-8, i) already compared equal, so the first difference in
      // this word is the first differing byte overall — and a full-word
      // load + bswap beats assembling a 1..7-byte tail with a
      // runtime-length memcpy, which gcc lowers to a byte loop.
      const uint64_t a = SpecLoadWord(p + common - 8);
      uint64_t w;
      std::memcpy(&w, b.data() + common - 8, 8);
      if (a != w) {
        return __builtin_bswap64(a) < __builtin_bswap64(w) ? -1 : 1;
      }
    } else {
      const uint64_t a = SpecLoadTail(p + i, common - i);
      uint64_t w = 0;
      std::memcpy(&w, b.data() + i, common - i);
      if (a != w) {
        return __builtin_bswap64(a) < __builtin_bswap64(w) ? -1 : 1;
      }
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// SpecVec: the vector replacement whose blocks a lockless reader may touch.
// ---------------------------------------------------------------------------

// How to dispose of a replaced block. The concurrent Wormhole routes blocks
// through QSBR (a speculative reader may still be loading from one); the
// single-threaded index and unit tests leave fn null for an immediate free.
struct BlockRelease {
  void (*fn)(void* ctx, void* block) = nullptr;
  void* ctx = nullptr;
};

// Contiguous T storage with the capacity embedded in the block itself.
// Readers that cannot trust the owner's size (it may change under them) call
// AcquireView() and clamp to View::cap — every byte inside [p, p + cap*T) is
// inside one live allocation for as long as the reader's QSBR epoch pins it.
//
// The writer-side API mirrors the std::vector surface the old code used
// (size/capacity/data/operator[]/begin/end) so writers and the
// single-threaded index read it like a vector. Mutation is exclusive-writer
// only.
template <typename T>
class SpecVec {
 public:
  SpecVec() = default;
  // Destruction is single-owner teardown: the embedding leaf is only
  // destroyed after its own grace period (or single-threaded), so no
  // speculative reader can still hold this block.
  ~SpecVec() { FreeBlock(block_.load(std::memory_order_relaxed)); }
  SpecVec(const SpecVec&) = delete;
  SpecVec& operator=(const SpecVec&) = delete;

  size_t size() const { return size_.load(std::memory_order_relaxed); }
  size_t capacity() const {
    const Block* b = block_.load(std::memory_order_relaxed);
    return b == nullptr ? 0 : b->cap;
  }
  T* data() { return Payload(block_.load(std::memory_order_relaxed)); }
  const T* data() const {
    return Payload(block_.load(std::memory_order_relaxed));
  }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }

  struct View {
    const T* p = nullptr;
    size_t cap = 0;  // of the block `p` points into — the reader's bound
  };
  // Speculative entry point. The acquire load pairs with the release
  // publication in Reserve/AdoptFrom, making the header cap (and
  // all bytes copied before publication) visible.
  View AcquireView() const {
    const Block* b = block_.load(std::memory_order_acquire);
    if (b == nullptr) {
      return View{};
    }
    return View{Payload(b), b->cap};
  }
  // Warms the block header AcquireView reads. A prefetch is no access in the
  // memory model, so the relaxed pointer load is all it needs.
  void Prefetch() const {
    __builtin_prefetch(block_.load(std::memory_order_relaxed), 0, 3);
  }

  void SetSize(size_t n) { size_.store(n, std::memory_order_relaxed); }

  // Grows capacity to exactly n elements (no-op if already >= n, so an
  // empty vector stays blockless at n == 0), copying the current contents
  // into the fresh block with plain stores — it is private until the release
  // publication below.
  void Reserve(size_t n, const BlockRelease& rel) {
    Block* old = block_.load(std::memory_order_relaxed);
    if ((old == nullptr ? 0 : old->cap) >= n) {
      return;
    }
    Block* fresh = AllocBlock(n);
    if (old != nullptr) {
      std::memcpy(Payload(fresh), Payload(old),
                  size_.load(std::memory_order_relaxed) * sizeof(T));
    }
    block_.store(fresh, std::memory_order_release);
    ReleaseBlock(old, rel);
  }

  // Steals src's block (publishing it here with release) and empties src.
  // src must be private to the calling thread — this is how AdoptStore swaps
  // a built store into a published leaf in one pointer store per vector.
  void AdoptFrom(SpecVec* src, const BlockRelease& rel) {
    Block* old = block_.load(std::memory_order_relaxed);
    size_.store(src->size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    block_.store(src->block_.load(std::memory_order_relaxed),
                 std::memory_order_release);
    src->block_.store(nullptr, std::memory_order_relaxed);
    src->size_.store(0, std::memory_order_relaxed);
    ReleaseBlock(old, rel);
  }

 private:
  struct Block {
    size_t cap;
    size_t reserved_;  // pads the header to 16 so the payload is 16-aligned
  };
  static_assert(sizeof(Block) == 16, "payload alignment depends on this");

  static T* Payload(Block* b) {
    return b == nullptr ? nullptr : reinterpret_cast<T*>(b + 1);
  }
  static const T* Payload(const Block* b) {
    return b == nullptr ? nullptr : reinterpret_cast<const T*>(b + 1);
  }
  static Block* AllocBlock(size_t n) {
    // Payload padded to an 8-byte multiple: the speculative copy/compare
    // helpers (SpecLoadWord and friends) read whole aligned words, and every
    // aligned word containing an in-bounds payload byte must itself be
    // inside the allocation. The pad bytes are never written or trusted.
    const size_t bytes = (n * sizeof(T) + 7) & ~size_t{7};
    Block* b = static_cast<Block*>(::operator new(sizeof(Block) + bytes));
    b->cap = n;
    b->reserved_ = 0;
    return b;
  }
  static void FreeBlock(void* b) { ::operator delete(b); }
  static void ReleaseBlock(Block* b, const BlockRelease& rel) {
    if (b == nullptr) {
      return;
    }
    if (rel.fn != nullptr) {
      rel.fn(rel.ctx, b);
    } else {
      FreeBlock(b);
    }
  }

  std::atomic<Block*> block_{nullptr};
  std::atomic<size_t> size_{0};
};

// ---------------------------------------------------------------------------
// Seqlock protocol helpers. The version counter lives on the leaf (it also
// covers linkage/coverage changes, not just the store), but the protocol is
// defined here next to the data it protects — and the seqlock-order lint rule
// holds all other code to "hand the counter to these helpers or use explicit
// memory_order".
// ---------------------------------------------------------------------------

// Reader entry: snapshot the counter. An odd snapshot means a writer is mid-
// mutation — bail immediately rather than read garbage for nothing.
// hot-path: optimistic read entry
inline uint64_t SeqlockReadBegin(const std::atomic<uint64_t>& counter) {
  return counter.load(std::memory_order_acquire);
}

// Reader exit: all speculative loads complete (program-order) before the
// fence; the fence orders them before the re-read, so an unchanged even
// counter proves no writer overlapped the read window (Boehm, "Can seqlocks
// get along with programming language memory models?").
// hot-path: optimistic read validation
inline bool SeqlockReadValidate(const std::atomic<uint64_t>& counter,
                                uint64_t begin) {
  std::atomic_thread_fence(std::memory_order_acquire);
  return counter.load(std::memory_order_relaxed) == begin && (begin & 1) == 0;
}

// Writer bracket, used under the leaf's exclusive lock: odd while the
// mutation runs, net +2 per section. The ctor's release fence orders the
// odd store before any data store; the dtor's release store orders all data
// stores before the even store. Sections never nest (the counter would go
// even mid-mutation).
class SeqlockWriteSection {
 public:
  explicit SeqlockWriteSection(std::atomic<uint64_t>* counter)
      : counter_(counter),
        begin_(counter->load(std::memory_order_relaxed)) {
    assert((begin_ & 1) == 0 && "seqlock write sections must not nest");
    counter_->store(begin_ + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }
  ~SeqlockWriteSection() {
    counter_->store(begin_ + 2, std::memory_order_release);
  }
  SeqlockWriteSection(const SeqlockWriteSection&) = delete;
  SeqlockWriteSection& operator=(const SeqlockWriteSection&) = delete;

 private:
  std::atomic<uint64_t>* counter_;
  uint64_t begin_;
};

struct LeafSlot {
  uint32_t hash;  // raw CRC32C of the full key (DirectPos only; else 0)
  uint32_t koff;  // key bytes at slab[koff, koff + klen)
  uint32_t klen;
  uint32_t vlen;
  union {
    uint32_t voff;               // slab offset when vlen > kInlineValue
    char vinl[kInlineValue];     // value bytes when vlen <= kInlineValue
  };
};
static_assert(sizeof(LeafSlot) == 24, "LeafSlot grew past 24 bytes");

// Whole-slot copies in three 8-byte relaxed chunks: 24 | 8 and the payload is
// 16-aligned, so every slot starts on an 8-byte boundary. A torn slot (the
// race window the ISSUE bounds via the fixed slot size) is three chunks at
// worst, and the seqlock validation throws it away.
// hot-path: speculative slot snapshot
inline LeafSlot SlotLoad(const LeafSlot* src) {
  uint64_t w[3];
  const uint64_t* p = reinterpret_cast<const uint64_t*>(src);
  w[0] = RelaxedLoad64(p);
  w[1] = RelaxedLoad64(p + 1);
  w[2] = RelaxedLoad64(p + 2);
  LeafSlot out;
  std::memcpy(&out, w, sizeof(out));
  return out;
}

// First two slot words only — hash/koff/klen/vlen, everything a search
// probe orders by. Binary searches never touch the value word, so loading
// it (SlotLoad) would be a third relaxed load per probe for nothing.
// hot-path: speculative probe snapshot
struct LeafSlotKey {
  uint32_t hash;
  uint32_t koff;
  uint32_t klen;
  uint32_t vlen;
};
inline LeafSlotKey SlotLoadKey(const LeafSlot* src) {
  uint64_t w[2];
  const uint64_t* p = reinterpret_cast<const uint64_t*>(src);
  w[0] = RelaxedLoad64(p);
  w[1] = RelaxedLoad64(p + 1);
  LeafSlotKey out;
  std::memcpy(&out, w, sizeof(out));
  return out;
}

// Warms the cache line holding p. A prefetch is no access in the memory
// model, so a speculative reader may warm any address.
// hot-path: speculative probe prefetch
inline void SpecPrefetchLine(const void* p) {
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
}
// Warms every cache line of [p, p + bytes); a null p warms nothing.
inline void SpecPrefetchRange(const void* p, size_t bytes) {
  const uintptr_t first = reinterpret_cast<uintptr_t>(p);
  for (uintptr_t a = first & ~uintptr_t{63}; p != nullptr && a < first + bytes;
       a += 64) {
    SpecPrefetchLine(reinterpret_cast<const void*>(a));
  }
}

inline void SlotStore(LeafSlot* dst, const LeafSlot& v) {
  uint64_t w[3];
  std::memcpy(w, &v, sizeof(w));
  uint64_t* p = reinterpret_cast<uint64_t*>(dst);
  RelaxedStore64(p, w[0]);
  RelaxedStore64(p + 1, w[1]);
  RelaxedStore64(p + 2, w[2]);
}

// A by_hash entry: the key hash's tag (its high 16 bits) over the slot id.
// Entries stay in (hash, key) order, so tags never decrease along the index
// and a probe reads hashes from the index line instead of from each slot.
inline uint32_t HashEntry(uint32_t hash, uint16_t id) {
  return (hash & 0xffff0000u) | id;
}
inline uint16_t EntryId(uint32_t entry) { return static_cast<uint16_t>(entry); }
inline uint32_t EntryTag(uint32_t entry) { return entry >> 16; }
// Stores into a published index, for both entry widths.
inline void RelaxedStoreEntry(uint16_t* p, uint16_t v) { RelaxedStore16(p, v); }
inline void RelaxedStoreEntry(uint32_t* p, uint32_t v) { RelaxedStore32(p, v); }

// A slot's key and value, decoded against the slab block `slab` it points
// into: inline values live in the slot itself.
inline std::string_view SlotKey(const char* slab, const LeafSlot& s) {
  return {slab + s.koff, s.klen};
}
inline std::string_view SlotValue(const char* slab, const LeafSlot& s) {
  return s.vlen <= kInlineValue ? std::string_view{s.vinl, s.vlen}
                                : std::string_view{slab + s.voff, s.vlen};
}

struct LeafStore {
  SpecVec<LeafSlot> slots;
  SpecVec<uint16_t> by_key;
  SpecVec<uint32_t> by_hash;
  // SpecVec reservations allocate exactly what is asked (like the
  // std::vector::reserve this replaced), so the gentle growth policy in
  // AppendRaw holds and fig. 16's capacity accounting stays honest.
  SpecVec<char> slab;
  uint32_t dead = 0;  // reclaimable slab bytes (see Compact)
  // Disposal hook for replaced blocks; the concurrent index points this at
  // QSBR retirement, everyone else leaves it null (immediate free).
  BlockRelease release;

  size_t size() const { return slots.size(); }
  std::string_view Key(uint16_t id) const {
    return SlotKey(slab.data(), slots[id]);
  }
  std::string_view Value(uint16_t id) const {
    return SlotValue(slab.data(), slots[id]);
  }
  // Key at key-ordered position `rank` (ranks 0..size()-1 walk the leaf in
  // ascending key order): what split-point selection compares.
  std::string_view KeyAt(size_t rank) const { return Key(by_key[rank]); }
};

// A cursor's window: one key-ordered rank range of a leaf, as validated
// snapshots of its slot records plus the slab block they point into. Keys
// and out-of-line values are views into that block (see the view
// invariant); inline values ride in the snapshots. A fill copies 24 bytes
// per item and no key or value byte, and `entries` keeps its capacity
// across fills (and cursors, through their per-thread window free list).
struct FlatWindow {
  const char* slab = nullptr;  // payload of the block the entries point into
  std::vector<LeafSlot> entries;

  size_t size() const { return entries.size(); }
  std::string_view KeyAt(size_t i) const { return SlotKey(slab, entries[i]); }
  std::string_view ValueAt(size_t i) const {
    return SlotValue(slab, entries[i]);
  }
};

// Appends a record without touching the ordered indexes (bulk-build path;
// callers rebuild indexes afterwards or splice via Insert instead).
inline uint16_t AppendRaw(LeafStore* s, std::string_view key,
                          std::string_view value, uint32_t hash) {
  // Grow the slab with ~12.5% headroom instead of the containers' doubling:
  // slabs are the dominant footprint (fig. 16 counts capacity), leaves are
  // small, and splits re-reserve exactly, so the gentler policy caps waste
  // without measurable realloc cost.
  const size_t need =
      s->slab.size() + key.size() +
      (value.size() > kInlineValue ? value.size() : 0);
  if (need > s->slab.capacity()) {
    s->slab.Reserve(need + need / 8, s->release);
  }
  if (s->slots.size() == s->slots.capacity()) {
    s->slots.Reserve(s->slots.size() + s->slots.size() / 4 + 8, s->release);
  }
  LeafSlot slot{};
  slot.hash = hash;
  size_t off = s->slab.size();
  slot.koff = static_cast<uint32_t>(off);
  slot.klen = static_cast<uint32_t>(key.size());
  char* slab = s->slab.data();
  if (!key.empty()) {
    RelaxedCopyIn(slab + off, key.data(), key.size());
    off += key.size();
  }
  slot.vlen = static_cast<uint32_t>(value.size());
  if (slot.vlen <= kInlineValue) {
    if (!value.empty()) {
      std::memcpy(slot.vinl, value.data(), value.size());
    }
  } else {
    slot.voff = static_cast<uint32_t>(off);
    RelaxedCopyIn(slab + off, value.data(), value.size());
    off += value.size();
  }
  s->slab.SetSize(off);
  const uint16_t id = static_cast<uint16_t>(s->slots.size());
  SlotStore(s->slots.data() + id, slot);
  s->slots.SetSize(id + 1);
  return id;
}

// The one builder of a fresh store: fills *dst (empty, private to the
// caller) with src's items of key ranks [lo, hi), appended in key order, so
// slot id i holds rank lo + i and by_key is the identity. Every block is
// exact-size and the slab holds live bytes only. by_hash, when src has one
// (DirectPos: the index is never allocated without it), is src's
// (hash, key)-ordered index restricted to the range, each entry's slot id
// renumbered through rank[] (old slot id -> key rank): one pass each, no
// comparison. Plain writes: dst is private until the caller publishes it
// (AdoptStore, or a split's link store).
inline void BuildStore(const LeafStore& src, size_t lo, size_t hi,
                       LeafStore* dst) {
  assert(lo <= hi && hi <= src.size() && dst->size() == 0);
  const size_t n = hi - lo;
  uint64_t bytes = 0;
  for (size_t r = lo; r < hi; r++) {
    const LeafSlot& sl = src.slots[src.by_key[r]];
    bytes += sl.klen + (sl.vlen > kInlineValue ? sl.vlen : 0);
  }
  dst->slots.Reserve(n, dst->release);
  dst->slab.Reserve(bytes, dst->release);
  dst->by_key.Reserve(n, dst->release);
  for (size_t r = lo; r < hi; r++) {
    const uint16_t id = src.by_key[r];
    AppendRaw(dst, src.Key(id), src.Value(id), src.slots[id].hash);
    dst->by_key.data()[r - lo] = static_cast<uint16_t>(r - lo);
  }
  dst->by_key.SetSize(n);
  if (n == 0 || src.by_hash.size() == 0) {
    return;
  }
  std::vector<uint16_t> rank(src.size());
  for (size_t r = 0; r < rank.size(); r++) {
    rank[src.by_key[r]] = static_cast<uint16_t>(r);
  }
  dst->by_hash.Reserve(n, dst->release);
  dst->by_hash.SetSize(n);
  uint32_t* bh = dst->by_hash.data();
  for (const uint32_t e : src.by_hash) {
    const size_t r = rank[EntryId(e)];
    if (r >= lo && r < hi) {
      *bh++ = HashEntry(e, static_cast<uint16_t>(r - lo));
    }
  }
}

// Publishes the built store *fresh in place of published *dst's contents:
// one release block store per vector, the old blocks retired through dst's
// release hook. A speculative reader of dst can see a mix of old and new
// blocks — in-bounds garbage its version check rejects.
inline void AdoptStore(LeafStore* dst, LeafStore* fresh) {
  dst->slots.AdoptFrom(&fresh->slots, dst->release);
  dst->by_key.AdoptFrom(&fresh->by_key, dst->release);
  dst->by_hash.AdoptFrom(&fresh->by_hash, dst->release);
  dst->slab.AdoptFrom(&fresh->slab, dst->release);
  dst->dead = fresh->dead;
}

// Rebuilds the store in place: live slab bytes only, and slots and indexes
// right-sized. Slot ids change (they become key ranks).
inline void Compact(LeafStore* s) {
  LeafStore fresh;  // null release hook: it owns no block once adopted
  BuildStore(*s, 0, s->size(), &fresh);
  AdoptStore(s, &fresh);
}

inline void MaybeCompact(LeafStore* s) {
  // Both triggers keep compaction O(1) amortized. Dead bytes: at least half
  // the slab must be dead, and tiny slabs are never worth rewriting. Shrink:
  // the store fell below a quarter of its slot capacity. A growth step
  // leaves capacity at most 1.25 * size + 8, so an insert/erase pair never
  // rebuilds twice in a row.
  if ((s->dead >= 256 && s->dead * 2 > s->slab.size()) ||
      s->size() * 4 + 8 < s->slots.capacity()) {
    Compact(s);
  }
}

// ---------------------------------------------------------------------------
// Speculative (lockless) point lookup. Everything below may run with NO lock
// and must assume every load can be stale or torn; correctness comes from (a)
// clamping all derived indexes/offsets to the capacity of the block they were
// loaded from, and (b) the caller's SeqlockReadValidate discarding the result
// unless the leaf version held still.
// ---------------------------------------------------------------------------

enum class SpecRead {
  kFound,         // key present; *value filled (if non-null)
  kAbsent,        // key not in the snapshot
  kInconsistent,  // internally impossible snapshot — retry without validating
};

// The one search over a leaf's ordered indexes. Point reads run it (SpecFind
// in one go, MultiGet stepping a group round-robin), and so do FindSlot, the
// cursor's rank search (SpecFillWindow) and Put's search for Insert's two
// splice positions (PutProbe).
// Every cell is loaded through the relaxed accessors and every id and offset
// is clamped to the capacity of the block it came from. On garbage data the
// search still terminates (every walk is monotone and bounded by n) and at
// worst lands on a wrong slot, which the key compare or the caller's
// validation rejects. On kAbsent/kInconsistent *value may hold scribbled
// bytes; callers only consume it on a validated kFound.
//
// DirectPos is the paper's tag-run search: by_hash entries carry their
// hash's tag, and CRC32C tags are uniform, so the run of tag t starts near
// t * n / 2^16. A kScan step walks from there to the run's first entry on
// that index line; each kSlot step checks one run entry's slot hash, and a
// kKey step its key bytes. A hit costs one index line, one slot and one key.
// The key gets its own step so that a pipelined caller can warm it first:
// comparing it in the slot's step measured ~5% slower batched Gets. Once
// done, lo is the key's (hash, key) lower bound: its by_hash splice position.
// Worst case: the run is walked entry by entry, and an equal-hash run (in
// key order) key by key up to the first key not below the probe's. CRC32C
// is unkeyed, so keys crafted to share a hash make a probe O(run length)
// slot loads and key compares, where the by_key bisection is O(log n): on a
// 128-item leaf of 8 KiB keys, up to ~1 MiB of key bytes per read.
// Without DirectPos (the fig. 11 ablation, and every rank search) each
// kBisect step is one level of a lower bound over by_key: the first key >=
// the probe's (> when `strict`), whose rank is lo once done. A level that
// compares equal records the hit, so a point read needs no final compare.
//
// A `plain` probe's caller excludes writers (the leaf's exclusive lock, or
// NoSync): keys compare with a vectorized memcmp, and Finish copies with
// assign. The relaxed word loops cost a single-threaded Get 10-24%.
//
// A resumable probe, so a batch can overlap the dependent misses of several
// reads (Wormhole::MultiGet and MultiPut step a group round-robin): Start
// acquires the views and clamps the stale size, Step advances one phase,
// Finish copies the value out. Prefetching is the caller's: a pipelined
// caller warms the index (WarmIndex), then before each Step what it loads
// (Prime); the serial Run warms both slots the next bisection level may
// probe.
// hot-path: optimistic point read
struct SpecProbe {
  enum class Phase : uint8_t { kBisect, kScan, kSlot, kKey, kDone };
  SpecVec<uint16_t>::View idx;     // by_key
  SpecVec<uint32_t>::View tagged;  // by_hash
  SpecVec<LeafSlot>::View slots;
  SpecVec<char>::View slab;
  size_t n = 0;
  size_t lo = 0;   // kBisect: interval [lo, lo + cnt); else the entry at hand
  size_t cnt = 0;
  uint32_t koff = 0;  // kKey: slot id's key bytes
  uint32_t klen = 0;
  uint16_t id = 0;  // the slot under test, the hit once found
  Phase phase = Phase::kDone;
  bool direct_pos = false;
  bool plain = false;
  bool strict = false;
  bool hit = false;
  bool bad = false;  // a bound check failed: Finish reports kInconsistent

  void Start(const LeafStore& s, bool dp, uint32_t hash, bool plain_mode,
             bool strict_bound = false) {
    direct_pos = dp;
    plain = plain_mode;
    strict = strict_bound;
    slots = s.slots.AcquireView();
    slab = s.slab.AcquireView();
    if (dp) {
      tagged = s.by_hash.AcquireView();
    } else {
      idx = s.by_key.AcquireView();
    }
    // A stale size is clamped; validation will reject the attempt.
    n = std::min(s.size(), dp ? tagged.cap : idx.cap);
    lo = dp ? ((hash >> 16) * n) >> 16 : 0;  // tag < 2^16: lo < n, or 0
    cnt = n;
    hit = bad = false;
    phase = n == 0 ? Phase::kDone : dp ? Phase::kScan : Phase::kBisect;
  }
  bool done() const { return bad || phase == Phase::kDone; }

  // Warms the by_key lines the first bisection levels load: all of a
  // default-sized leaf's index, the middle 128 ids of a larger one.
  // DirectPos's first Step reads one index line, which Prime warms.
  void WarmIndex() const {
    if (!direct_pos) {
      const size_t span = std::min<size_t>(n, 128);
      SpecPrefetchRange(idx.p + (n - span) / 2, span * sizeof(uint16_t));
    }
  }
  // Warms what the next Step loads.
  void Prime() const {
    if (phase == Phase::kScan) {
      SpecPrefetchLine(tagged.p + lo);
    } else if (phase == Phase::kKey) {
      SpecPrefetchRange(slab.p + koff, klen);
    } else if (phase == Phase::kSlot || phase == Phase::kBisect) {
      PrefetchSlot(phase == Phase::kSlot ? EntryId(RelaxedLoad32(tagged.p + lo))
                                         : RelaxedLoad16(idx.p + lo + cnt / 2));
    }
  }

  void Step(std::string_view key, uint32_t hash) {
    const uint32_t tag = hash >> 16;
    switch (phase) {
      case Phase::kBisect:
        Bisect(key);
        return;
      case Phase::kScan:  // to the tag's lower bound, rightward or leftward
        while (lo < n && EntryTag(RelaxedLoad32(tagged.p + lo)) < tag) {
          lo++;
        }
        while (lo > 0 && EntryTag(RelaxedLoad32(tagged.p + lo - 1)) >= tag) {
          lo--;
        }
        break;
      case Phase::kSlot: {
        id = EntryId(RelaxedLoad32(tagged.p + lo));
        if (id >= slots.cap) {
          bad = true;
          return;
        }
        const LeafSlotKey sl = SlotLoadKey(slots.p + id);
        if (static_cast<uint64_t>(sl.koff) + sl.klen > slab.cap) {
          bad = true;
          return;
        }
        if (sl.hash >= hash) {  // the run is in hash order
          koff = sl.koff;
          klen = sl.klen;
          phase = sl.hash == hash ? Phase::kKey : Phase::kDone;
          return;
        }
        lo++;
        break;
      }
      case Phase::kKey: {
        // An equal-hash run is in key order: stop at the first key not
        // below the probe's.
        const int cmp = Compare(koff, klen, key);
        if (cmp >= 0) {
          hit = cmp == 0;
          phase = Phase::kDone;
          return;
        }
        lo++;
        break;
      }
      case Phase::kDone:
        return;
    }
    // Stay in the tag run at entry lo, or end the probe past it.
    phase = lo < n && EntryTag(RelaxedLoad32(tagged.p + lo)) == tag
                ? Phase::kSlot
                : Phase::kDone;
  }

  // Steps the probe to its end. Each by_key level first warms both slots
  // the next level can probe, while this level's key compare is in flight:
  // a level is a serial id -> slot -> key-bytes dependency chain, so on a
  // cold leaf every level is a full miss.
  void Run(std::string_view key, uint32_t hash) {
    while (!done()) {
      if (phase == Phase::kBisect) {
        const size_t half = cnt / 2;
        PrefetchSlot(RelaxedLoad16(idx.p + lo + half / 2));
        if (cnt > half + 1) {
          const size_t rest = cnt - half - 1;
          PrefetchSlot(RelaxedLoad16(idx.p + lo + half + 1 + rest / 2));
        }
      }
      Step(key, hash);
    }
  }

  SpecRead Finish(std::string* value) const {
    if (bad) {
      return SpecRead::kInconsistent;
    }
    if (!hit) {
      return SpecRead::kAbsent;
    }
    if (value != nullptr) {
      const LeafSlot sl = SlotLoad(slots.p + id);  // Step bounded id
      if (sl.vlen <= kInlineValue) {
        value->assign(sl.vinl, sl.vlen);  // sl is a local snapshot already
      } else if (static_cast<uint64_t>(sl.voff) + sl.vlen > slab.cap) {
        return SpecRead::kInconsistent;
      } else if (plain) {
        value->assign(slab.p + sl.voff, sl.vlen);
      } else {
        value->resize(sl.vlen);
        RelaxedCopyOut(value->data(), slab.p + sl.voff, sl.vlen);
      }
    }
    return SpecRead::kFound;
  }

 private:
  // An id read from a stale index is clamped like a probe's.
  void PrefetchSlot(uint16_t i) const {
    if (i < slots.cap) {
      SpecPrefetchLine(slots.p + i);
    }
  }
  // One level of the lower bound over the by_key ids.
  void Bisect(std::string_view key) {
    const size_t half = cnt / 2;
    const size_t mid = lo + half;
    const uint16_t i = RelaxedLoad16(idx.p + mid);
    if (i >= slots.cap) {
      bad = true;
      return;
    }
    const LeafSlotKey sl = SlotLoadKey(slots.p + i);
    if (static_cast<uint64_t>(sl.koff) + sl.klen > slab.cap) {
      bad = true;
      return;
    }
    const int cmp = Compare(sl.koff, sl.klen, key);
    if (cmp == 0) {
      hit = true;
      id = i;
    }
    if (strict ? cmp <= 0 : cmp < 0) {
      lo = mid + 1;
      cnt -= half + 1;
    } else {
      cnt = half;
    }
    if (cnt == 0) {
      phase = Phase::kDone;
    }
  }
  // Orders the slab key [koff, koff + klen) against `key`: <0, 0 or >0.
  int Compare(uint32_t koff, uint32_t klen, std::string_view key) const {
    if (plain) {
      return std::string_view(slab.p + koff, klen).compare(key);
    }
    const int cmp = SpecKeyCompare(slab.p + koff, klen, key);
    return cmp != 0 ? cmp : (klen > key.size()) - (klen < key.size());
  }
};

// hot-path: optimistic point read
inline SpecRead SpecFind(const LeafStore& s, bool direct_pos,
                         std::string_view key, uint32_t hash,
                         std::string* value, bool plain) {
  SpecProbe p;
  p.Start(s, direct_pos, hash, plain);
  p.Run(key, hash);
  return p.Finish(value);
}

// Slot id of `key`, or -1: the probe's plain mode, for callers that exclude
// writers (under the leaf's exclusive lock, or single-threaded). `hash` is
// the precomputed full-key CRC32C raw state — lookup paths extend the LPM's
// incremental prefix state instead of rehashing the key from byte 0;
// ignored unless direct_pos.
// hot-path: Delete's in-leaf search
inline int FindSlot(const LeafStore& s, bool direct_pos, std::string_view key,
                    uint32_t hash) {
  SpecProbe p;
  p.Start(s, direct_pos, hash, /*plain_mode=*/true);
  p.Run(key, hash);
  return p.hit ? p.id : -1;
}

// What Put's in-leaf search finds: the key's slot, or the two positions
// Insert splices a new key at.
struct SlotPos {
  int slot = -1;        // the key's slot id, or -1
  size_t hash_pos = 0;  // on a miss, its by_hash position (DirectPos only)
  size_t key_pos = 0;   // on a miss, its by_key rank
};

// Put's in-leaf search: a SpecProbe that, once a DirectPos search has
// missed, runs again as the by_key rank search, so one probe yields both of
// Insert's splice positions (without DirectPos the point search is that
// rank search already). Resumable and prefetched like SpecProbe, so
// Wormhole::MultiPut steps a group of them the way MultiGet steps its
// reads; like a point read's, its answer stands only under the leaf's
// exclusive lock, or when the leaf's version held still from before Start
// until the answer is used.
struct PutProbe {
  SpecProbe p;
  const LeafStore* s = nullptr;
  size_t hash_pos = 0;  // the DirectPos search's lower bound, once it missed

  void Start(const LeafStore& store, bool dp, uint32_t hash, bool plain_mode) {
    s = &store;
    hash_pos = 0;
    p.Start(store, dp, hash, plain_mode);
    RankOnMiss(hash);
  }
  bool done() const { return p.done(); }
  bool bad() const { return p.bad; }
  void WarmIndex() const { p.WarmIndex(); }
  void Prime() const { p.Prime(); }
  void Step(std::string_view key, uint32_t hash) {
    p.Step(key, hash);
    RankOnMiss(hash);
  }
  void Run(std::string_view key, uint32_t hash) {
    p.Run(key, hash);
    RankOnMiss(hash);
    p.Run(key, hash);
  }
  SlotPos Pos() const {
    SlotPos at;
    if (p.hit) {
      at.slot = p.id;
    } else {
      at.hash_pos = hash_pos;
      at.key_pos = p.lo;
    }
    return at;
  }

 private:
  void RankOnMiss(uint32_t hash) {
    if (p.direct_pos && p.done() && !p.bad && !p.hit) {
      hash_pos = p.lo;
      p.Start(*s, /*dp=*/false, hash, p.plain);
      p.WarmIndex();
    }
  }
};

// Put's in-leaf search for callers that exclude writers, as FindSlot's.
// hot-path: every Put's in-leaf search
inline SlotPos Locate(const LeafStore& s, bool direct_pos, std::string_view key,
                      uint32_t hash) {
  PutProbe p;
  p.Start(s, direct_pos, hash, /*plain_mode=*/true);
  p.Run(key, hash);
  return p.Pos();
}

// Result of one speculative whole-window fill. `ok == false` means an
// internal bounds check caught an impossible snapshot — retry without
// validating. `ok == true` only promises every span the snapshots name lies
// inside the block they point into; the snapshots are garbage until the
// caller's SeqlockReadValidate (+ dead-flag recheck) proves the leaf version
// held still across the fill.
struct SpecWindow {
  bool ok = false;
  size_t lo = 0;  // first rank filled
  size_t hi = 0;  // one past the last rank filled
  size_t n = 0;   // snapshot size the ranks were computed against
};

// SpecFind's discipline applied to a whole window, and the only window
// extractor: fill `win` with a key-ordered rank range — forward:
// [rank of the first key (strict ? > : >=) bound, +budget); backward: ranks
// below that bound, the last `budget` of them — through AcquireView + relaxed
// loads only, clamping every id and offset to the capacity of the block it
// was loaded from. Under the leaf's shared lock the same code simply never
// trips a bound. `has_bound == false` skips the rank search (hop fills: rank
// 0 forward, the leaf end backward). budget == 0 means unbounded.
//
// The rank search is SpecProbe's by_key bisection with the `strict` bound:
// on possibly-garbage keys it still terminates and at worst lands on a
// wrong rank, which the caller's version check rejects. The fill is one
// pass over the probe's views: each slot is loaded once (SlotLoad), its
// spans are checked against the slab block, and the snapshot is the entry;
// no key or value byte is read. Rank order is random over the slots array,
// so the pass warms the slot kAhead ranks ahead, and each item's key (and
// out-of-line value) line for the caller that emits it.
// hot-path: speculative cursor window fill
inline SpecWindow SpecFillWindow(const LeafStore& s, bool forward,
                                 bool has_bound, std::string_view bound,
                                 bool strict, size_t budget, FlatWindow* win) {
  SpecProbe p;
  p.Start(s, /*dp=*/false, 0, /*plain_mode=*/false, strict);
  size_t rank = forward ? 0 : p.n;
  if (has_bound) {
    p.Run(bound, 0);
    if (p.bad) {
      return {};
    }
    rank = p.lo;
  }
  const auto& idx = p.idx;
  const auto& slots = p.slots;
  const auto& slab = p.slab;
  const size_t n = p.n;
  size_t lo, hi;
  if (forward) {
    lo = rank;
    hi = budget == 0 ? n : std::min(n, lo + budget);
  } else {
    hi = rank;
    lo = (budget == 0 || hi <= budget) ? 0 : hi - budget;
  }
  win->entries.clear();
  win->slab = slab.p;
  win->entries.reserve(hi - lo);
  constexpr size_t kAhead = 4;
  for (size_t r = lo; r < hi; r++) {
    if (r + kAhead < hi) {
      const uint16_t ahead = RelaxedLoad16(idx.p + r + kAhead);
      if (ahead < slots.cap) {
        SpecPrefetchLine(slots.p + ahead);
      }
    }
    const uint16_t id = RelaxedLoad16(idx.p + r);
    if (id >= slots.cap) {
      return {};
    }
    const LeafSlot sl = SlotLoad(slots.p + id);
    if (static_cast<uint64_t>(sl.koff) + sl.klen > slab.cap) {
      return {};
    }
    SpecPrefetchLine(slab.p + sl.koff);
    if (sl.vlen > kInlineValue) {
      if (static_cast<uint64_t>(sl.voff) + sl.vlen > slab.cap) {
        return {};
      }
      SpecPrefetchLine(slab.p + sl.voff);
    }
    win->entries.push_back(sl);
  }
  return {true, lo, hi, n};
}

// Appends a new item and splices its slot id into the ordered indexes.
// `hash` must be the full-key CRC32C raw state when direct_pos (ignored
// otherwise). `at` is a PutProbe miss for `key` on this unchanged store under
// the same direct_pos: where the key goes in by_key, and in by_hash.
inline void Insert(LeafStore* s, bool direct_pos, std::string_view key,
                   std::string_view value, uint32_t hash, const SlotPos& at) {
  const uint16_t id = AppendRaw(s, key, value, direct_pos ? hash : 0);
  // The splice shifts the ordered tail one position right; every displaced
  // cell is rewritten through a relaxed store because the block is published.
  const auto splice = [&](auto* index, size_t pos, auto entry) {
    const size_t old_n = index->size();
    if (old_n == index->capacity()) {
      index->Reserve(old_n + old_n / 4 + 8, s->release);
    }
    auto* p = index->data();
    for (size_t i = old_n; i > pos; i--) {
      RelaxedStoreEntry(p + i, p[i - 1]);
    }
    RelaxedStoreEntry(p + pos, entry);
    index->SetSize(old_n + 1);
  };
  splice(&s->by_key, at.key_pos, id);
  if (direct_pos) {
    splice(&s->by_hash, at.hash_pos, HashEntry(hash, id));
  }
}

// Overwrites slot `id`'s value: inline when short, else appended past the
// slab's live end, also when it would fit the old span — a published slot's
// bytes never change (the view invariant). The old out-of-line span goes
// dead. The slot is rewritten as one whole-slot store so a speculative
// reader never sees a half-updated length/offset pair from plain field
// writes (it can still see a torn slot — validation covers that).
inline void UpdateValue(LeafStore* s, uint16_t id, std::string_view value) {
  LeafSlot sl = s->slots[id];  // private working copy; plain read is fine
  if (sl.vlen > kInlineValue) {
    s->dead += sl.vlen;
  }
  const uint32_t new_len = static_cast<uint32_t>(value.size());
  if (new_len <= kInlineValue) {
    if (new_len > 0) {
      std::memcpy(sl.vinl, value.data(), new_len);
    }
  } else {
    const size_t need = s->slab.size() + new_len;
    if (need > s->slab.capacity()) {
      s->slab.Reserve(need + need / 8, s->release);
    }
    const uint32_t voff = static_cast<uint32_t>(s->slab.size());
    RelaxedCopyIn(s->slab.data() + voff, value.data(), new_len);
    s->slab.SetSize(s->slab.size() + new_len);
    sl.voff = voff;
  }
  sl.vlen = new_len;
  SlotStore(s->slots.data() + id, sl);
  MaybeCompact(s);
}

// Erases slot `id` (swap-with-last in `slots`, linear fixups in the indexes).
inline void Erase(LeafStore* s, bool direct_pos, uint16_t id) {
  {
    const LeafSlot& sl = s->slots[id];
    s->dead += sl.klen + (sl.vlen > kInlineValue ? sl.vlen : 0);
  }
  const uint16_t last = static_cast<uint16_t>(s->slots.size() - 1);
  // Leaves hold at most leaf_capacity (~128) items: linear index fixups are
  // cheap and immune to comparator subtleties.
  const auto fixup = [&](auto* index) {
    const size_t n = index->size();
    auto* p = index->data();
    using Entry = std::remove_reference_t<decltype(*p)>;
    size_t erase_pos = n;
    for (size_t i = 0; i < n; i++) {
      if (EntryId(p[i]) == id) {
        erase_pos = i;
      } else if (EntryId(p[i]) == last) {
        // The last slot moves into the erased spot. A by_hash entry keeps
        // its tag; a by_key id has none.
        RelaxedStoreEntry(p + i,
                          static_cast<Entry>((p[i] & ~uint32_t{0xffff}) | id));
      }
    }
    assert(erase_pos < n);
    for (size_t i = erase_pos; i + 1 < n; i++) {
      RelaxedStoreEntry(p + i, p[i + 1]);
    }
    index->SetSize(n - 1);
  };
  fixup(&s->by_key);
  if (direct_pos) {
    fixup(&s->by_hash);
  }
  if (id != last) {
    SlotStore(s->slots.data() + id, s->slots[last]);
  }
  s->slots.SetSize(last);
  MaybeCompact(s);
}

// Shortest prefix of right_min that compares greater than left_max — the new
// leaf's anchor A, satisfying left_max < A <= right_min. Because left_max <
// right_min, the first byte where right_min departs from left_max exists
// within right_min, and cutting just past it yields the separator.
inline size_t SeparatorLen(std::string_view left_max, std::string_view right_min) {
  size_t i = 0;
  while (i < left_max.size() && left_max[i] == right_min[i]) {
    i++;
  }
  return i + 1;
}

// Split position for a full leaf's key-ordered items: the midpoint, or with
// `shortest_anchor` (paper section 6) the position in the middle half whose
// separator is shortest, ties broken toward the midpoint. The new right
// leaf's anchor is KeyAt(si) truncated to SeparatorLen(KeyAt(si-1), KeyAt(si)).
inline size_t ChooseSplitIndex(const LeafStore& s, bool shortest_anchor) {
  const size_t n = s.size();
  size_t si = n / 2;
  if (shortest_anchor) {
    const size_t lo = std::max<size_t>(1, n / 4);
    const size_t hi = std::min(n - 1, 3 * n / 4);
    size_t best_len = SeparatorLen(s.KeyAt(si - 1), s.KeyAt(si));
    for (size_t sp = lo; sp <= hi; sp++) {
      const size_t len = SeparatorLen(s.KeyAt(sp - 1), s.KeyAt(sp));
      const auto dist = [&](size_t x) {
        return x > n / 2 ? x - n / 2 : n / 2 - x;
      };
      if (len < best_len || (len == best_len && dist(sp) < dist(si))) {
        best_len = len;
        si = sp;
      }
    }
  }
  return si;
}

// Moves the key-ordered tail [si, n) of *left into *right (empty and
// private) and rebuilds the retained head [0, si) in place, both through
// BuildStore: both halves come out right-sized, so a leaf's growth slack
// resets to zero at every split.
inline void SplitTail(LeafStore* left, LeafStore* right, size_t si) {
  assert(si >= 1 && si < left->size() && right->size() == 0);
  BuildStore(*left, si, left->size(), right);
  LeafStore head;  // null release hook: it owns no block once adopted
  BuildStore(*left, 0, si, &head);
  AdoptStore(left, &head);
}

// Exact heap footprint of one store (the embedding Leaf's sizeof is the
// caller's to count). Without DirectPos by_hash is never allocated.
inline uint64_t MemoryBytes(const LeafStore& s) {
  return s.slots.capacity() * sizeof(LeafSlot) + s.slab.capacity() +
         s.by_key.capacity() * sizeof(uint16_t) +
         s.by_hash.capacity() * sizeof(uint32_t);
}

}  // namespace leafops
}  // namespace wh

#endif  // WH_SRC_CORE_LEAF_OPS_H_
