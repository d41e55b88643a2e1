// Internal: cache-line MetaTrieHT hash buckets of the Wormhole core. A bucket
// is a chain of fixed 8-entry lines:
//
//   struct alignas(64) BucketLine { tags[8]; count; nodes[8]; next; }
//
// The 16-bit tag array, the count and the first node pointers share the
// line's first 64 bytes, so a negative probe (no tag match — the common case
// during the LPM binary search) costs exactly one cache line, and the lines
// never straddle one. The table sizing policy (grow at 2 entries/bucket)
// keeps chains at a single line almost always; `next` only matters for
// pathological tag pileups.
//
// Entries store no full 32-bit hash: the tag is the filter the lookup path
// uses, and the rare structural consumers that need the full hash (table
// growth rehash) recompute it from the node's immutable prefix.
//
// The chain invariant is "every line full except the last" and, with
// `sorted`, ascending tag order across the whole chain (equal tags keep
// insertion order), which gives lookups an early exit at the first greater
// tag. The one mutating helper (Insert) is for a structural writer building
// a new, unpublished chain; readers only ever see immutable chains published
// by pointer swap (CopyChain/CopyChainExcept build the replacement).
#ifndef WH_SRC_CORE_META_BUCKET_H_
#define WH_SRC_CORE_META_BUCKET_H_

#include <cassert>
#include <cstdint>

namespace wh {
namespace metabucket {

template <typename NodeT>
struct alignas(64) BucketLine {
  static constexpr int kEntries = 8;
  uint16_t tags[kEntries];
  uint8_t count = 0;
  NodeT* nodes[kEntries];
  BucketLine* next = nullptr;
};

// First node in the chain whose tag passes the filter and whose pred
// accepts it. `sorted` enables the early exit (valid whenever the chain is
// tag-ordered: a matching node's tag always equals `tag`); `tag_matching`
// off models the Fig. 11 base configuration, where every entry pays the
// pred (prefix comparison) instead of the 2-byte filter.
template <typename NodeT, typename Pred>
// hot-path: one hash probe
NodeT* Find(const BucketLine<NodeT>* line, uint16_t tag, bool tag_matching,
            bool sorted, const Pred& pred) {
  for (; line != nullptr; line = line->next) {
    for (int i = 0; i < line->count; i++) {
      if (sorted && line->tags[i] > tag) {
        return nullptr;
      }
      if (tag_matching && line->tags[i] != tag) {
        continue;
      }
      if (pred(line->nodes[i])) {
        return line->nodes[i];
      }
    }
  }
  return nullptr;
}

// Inserts into an unpublished chain rooted at `line` (never null). With
// `sorted`, the entry lands after all equal tags and displaced entries ripple
// into later lines; otherwise it appends. Allocates a tail line when the
// chain is full.
template <typename NodeT>
void Insert(BucketLine<NodeT>* line, uint16_t tag, NodeT* node, bool sorted) {
  int idx;
  if (sorted) {
    idx = -1;
    for (BucketLine<NodeT>* l = line;; l = l->next) {
      for (int i = 0; i < l->count; i++) {
        if (l->tags[i] > tag) {
          line = l;
          idx = i;
          break;
        }
      }
      if (idx >= 0) {
        break;
      }
      if (l->next == nullptr) {
        line = l;
        idx = l->count;
        break;
      }
    }
  } else {
    while (line->next != nullptr) {
      line = line->next;
    }
    idx = line->count;
  }
  uint16_t ctag = tag;
  NodeT* cnode = node;
  constexpr int kE = BucketLine<NodeT>::kEntries;
  while (true) {
    if (idx == kE) {  // past this line's end: continue at the next line
      if (line->next == nullptr) {
        line->next = new BucketLine<NodeT>();
      }
      line = line->next;
      idx = 0;
      continue;
    }
    if (line->count < kE) {
      for (int i = line->count; i > idx; i--) {
        line->tags[i] = line->tags[i - 1];
        line->nodes[i] = line->nodes[i - 1];
      }
      line->tags[idx] = ctag;
      line->nodes[idx] = cnode;
      line->count++;
      return;
    }
    // Full line: displace its last entry, shift, place the carry, and ripple
    // the displaced entry into the next line at position 0.
    const uint16_t otag = line->tags[kE - 1];
    NodeT* const onode = line->nodes[kE - 1];
    for (int i = kE - 1; i > idx; i--) {
      line->tags[i] = line->tags[i - 1];
      line->nodes[i] = line->nodes[i - 1];
    }
    line->tags[idx] = ctag;
    line->nodes[idx] = cnode;
    ctag = otag;
    cnode = onode;
    if (line->next == nullptr) {
      line->next = new BucketLine<NodeT>();
    }
    line = line->next;
    idx = 0;
  }
}

template <typename NodeT, typename Fn>
void ForEach(const BucketLine<NodeT>* line, const Fn& fn) {
  for (; line != nullptr; line = line->next) {
    for (int i = 0; i < line->count; i++) {
      fn(line->tags[i], line->nodes[i]);
    }
  }
}

// Deep copy for copy-on-write publication; CopyChain(nullptr) yields one
// fresh empty line (the insert that follows needs a head).
template <typename NodeT>
BucketLine<NodeT>* CopyChain(const BucketLine<NodeT>* old) {
  if (old == nullptr) {
    return new BucketLine<NodeT>();
  }
  BucketLine<NodeT>* h = nullptr;
  BucketLine<NodeT>** tail = &h;
  for (const BucketLine<NodeT>* l = old; l != nullptr; l = l->next) {
    BucketLine<NodeT>* c = new BucketLine<NodeT>(*l);
    c->next = nullptr;
    *tail = c;
    tail = &c->next;
  }
  return h;
}

// Copy that drops `skip`, repacked to the all-full-but-last invariant.
// Returns nullptr when the result is empty; *found reports whether skip was
// present.
template <typename NodeT>
BucketLine<NodeT>* CopyChainExcept(const BucketLine<NodeT>* old,
                                   const NodeT* skip, bool* found) {
  BucketLine<NodeT>* h = nullptr;
  BucketLine<NodeT>* cur = nullptr;
  *found = false;
  ForEach(old, [&](uint16_t tag, NodeT* nd) {
    if (nd == skip) {
      *found = true;
      return;
    }
    if (cur == nullptr || cur->count == BucketLine<NodeT>::kEntries) {
      BucketLine<NodeT>* fresh = new BucketLine<NodeT>();
      if (cur != nullptr) {
        cur->next = fresh;
      } else {
        h = fresh;
      }
      cur = fresh;
    }
    cur->tags[cur->count] = tag;
    cur->nodes[cur->count] = nd;
    cur->count++;
  });
  return h;
}

// Frees every line including `head` (heap-allocated chains).
template <typename NodeT>
void FreeChain(BucketLine<NodeT>* head) {
  while (head != nullptr) {
    BucketLine<NodeT>* nx = head->next;
    delete head;
    head = nx;
  }
}

template <typename NodeT>
uint64_t LineCount(const BucketLine<NodeT>* head) {
  uint64_t n = 0;
  for (; head != nullptr; head = head->next) {
    n++;
  }
  return n;
}

}  // namespace metabucket
}  // namespace wh

#endif  // WH_SRC_CORE_META_BUCKET_H_
