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
// tag. Chains are immutable once built: every structural change — a node
// insert, a node removal, a table-growth rehash — builds a replacement with
// the one builder (Rebuild), and readers only ever see chains published
// whole by pointer swap.
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

template <typename NodeT, typename Fn>
void ForEach(const BucketLine<NodeT>* line, const Fn& fn) {
  for (; line != nullptr; line = line->next) {
    for (int i = 0; i < line->count; i++) {
      fn(line->tags[i], line->nodes[i]);
    }
  }
}

// The one chain builder: a fresh chain holding old's entries in order,
// minus `drop`, plus (tag, add) when `add` is non-null — with `sorted`,
// after every entry whose tag is <= tag, otherwise last. Packed to the
// all-full-but-last invariant; nullptr when no entry is left. A non-null
// `drop` must be in the chain.
template <typename NodeT>
BucketLine<NodeT>* Rebuild(const BucketLine<NodeT>* old, const NodeT* drop,
                           uint16_t tag, NodeT* add, bool sorted) {
  BucketLine<NodeT>* head = nullptr;
  BucketLine<NodeT>* cur = nullptr;
  const auto append = [&](uint16_t t, NodeT* nd) {
    if (cur == nullptr || cur->count == BucketLine<NodeT>::kEntries) {
      BucketLine<NodeT>* fresh = new BucketLine<NodeT>();
      (cur == nullptr ? head : cur->next) = fresh;
      cur = fresh;
    }
    cur->tags[cur->count] = t;
    cur->nodes[cur->count] = nd;
    cur->count++;
  };
  bool dropped = false;
  ForEach(old, [&](uint16_t t, NodeT* nd) {
    if (nd == drop) {
      dropped = true;
      return;
    }
    if (add != nullptr && sorted && t > tag) {
      append(tag, add);
      add = nullptr;
    }
    append(t, nd);
  });
  if (add != nullptr) {
    append(tag, add);
  }
  assert((drop == nullptr || dropped) && "MetaTrieHT entry missing on removal");
  (void)dropped;
  return head;
}

// Frees every line including `head`: a chain no reader can reach (never
// published, or past its grace period).
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
