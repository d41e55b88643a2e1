// First-class ordered cursors: the bidirectional iteration interface every
// index in this repo implements (src/core, src/skiplist, src/bptree, src/art,
// src/masstree, and src/cuckoo's ordered fallback). The one-shot ScanFn entry
// points (src/common/scan.h) are thin wrappers over cursors now — see
// ScanViaCursor below.
//
// ===========================================================================
// Cursor contract (normative; asserted by tests/test_cursor.cc against a
// std::map oracle for every MakeIndex name)
//
// Positioning:
//   Seek(t)         positions at the FIRST key >= t. The empty string compares
//                   <= every key, so Seek("") positions at the smallest key
//                   (of an empty index: invalid). If no key >= t exists
//                   (seek past end), the cursor becomes invalid.
//   SeekForPrev(t)  positions at the LAST key <= t. If no key <= t exists
//                   (t sorts before the whole index — including
//                   SeekForPrev("") when no empty key is stored), the cursor
//                   becomes invalid.
// Both may be called any number of times, in any state, and fully reposition
// the cursor. Key comparisons are bytewise-unsigned (memcmp order), the same
// order every index and std::string_view use.
//
// Stepping:
//   Next()  moves to the immediately following key; Prev() to the immediately
//   preceding one. Stepping off either end makes the cursor invalid. Next and
//   Prev on an INVALID cursor are no-ops (the cursor stays invalid; only a
//   Seek/SeekForPrev revives it) — callers never need to guard a step.
//   Directions may be mixed freely at any valid position.
//
// Accessors:
//   key()/value() require Valid(). The returned views are owned by the cursor
//   or the index and stay readable until the next call on the same cursor.
//
// Mutation:
//   Single-writer indexes: any Put/Delete on the index invalidates every
//   outstanding cursor (using one afterwards is undefined). The concurrent
//   Wormhole is the exception: its cursors stay usable under concurrent
//   writers with per-leaf snapshot semantics (see wormhole.h; each leaf's
//   window is one seqlock-validated snapshot of its slots, whose key and
//   value views point into the epoch-pinned leaf block — lock-free, so a
//   read-only scan performs zero atomic RMW — and after optimistic_retries
//   lost races the same fill runs under the per-leaf shared lock. Either
//   way a cursor never holds a leaf lock across user code, and never
//   blocks writers between calls).
//
// Hints:
//   SetScanLimitHint(n) tells the cursor the caller expects to consume about
//   n items per positioning (0 = unbounded, the default). It is purely an
//   optimization hint — visible semantics NEVER change — and it is sticky
//   across repositionings until overwritten. Wormhole (both sync policies)
//   bounds its window fills by it: snapshot only the n items the caller
//   will read instead of the whole leaf window (see wormhole.h). A caller that
//   walks past the hinted count stays correct but may pay a re-route per
//   overstep.
//
// Lifetime: a cursor must not outlive its index (nor, for the concurrent
// Wormhole, the thread's QSBR registration — destroy cursors before
// QsbrThreadScope ends).
// ===========================================================================
#ifndef WH_SRC_COMMON_CURSOR_H_
#define WH_SRC_COMMON_CURSOR_H_

#include <string_view>

#include "src/common/scan.h"

namespace wh {

class Cursor {
 public:
  virtual ~Cursor() = default;

  virtual void Seek(std::string_view target) = 0;
  virtual void SeekForPrev(std::string_view target) = 0;
  virtual bool Valid() const = 0;
  virtual void Next() = 0;
  virtual void Prev() = 0;
  virtual std::string_view key() const = 0;
  virtual std::string_view value() const = 0;
  // Optimization hint only (see the contract block); default: ignore it.
  virtual void SetScanLimitHint(size_t items_per_positioning) {
    (void)items_per_positioning;
  }
};

// The legacy Scan(start, count, fn) semantics expressed over a cursor: visits
// at most `count` items with key >= start in ascending order, stops early when
// fn returns false, returns the number of fn invocations. Every index's Scan
// entry point delegates here, so callback scans and cursors cannot drift.
// Templated over the concrete cursor type so an index passing its own
// CursorImpl gets devirtualized calls in this hot loop; the count-th item is
// emitted without a trailing Next(), so a bounded-window cursor never pays a
// useless repositioning for a step nobody consumes.
template <typename C>
inline size_t ScanViaCursor(C* c, std::string_view start, size_t count,
                            const ScanFn& fn) {
  if (count == 0) {
    return 0;  // skip the positioning descent entirely
  }
  c->SetScanLimitHint(count);
  size_t emitted = 0;
  c->Seek(start);
  while (c->Valid()) {
    emitted++;
    if (!fn(c->key(), c->value()) || emitted == count) {
      break;
    }
    c->Next();
  }
  return emitted;
}

}  // namespace wh

#endif  // WH_SRC_COMMON_CURSOR_H_
