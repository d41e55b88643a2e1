// Differential coverage for the bounded emit-in-place scan fast path
// (SetScanLimitHint, src/common/cursor.h): for both Wormhole classes, over
// all 8 paper keysets, a cursor running with any scan-limit hint must return
// byte-identical key AND value streams to the unhinted snapshot-window path
// and to a std::map oracle — forward, reverse, and mixing directions across
// truncated window edges. leaf_capacity=4 forces every scan of more than a
// few items to straddle leaf splits, so the bounded refill, the in-leaf
// continuation, and the leaf-hop paths all engage; the default capacity
// covers the everything-fits-one-window case. The multi-thread tests drive
// bounded cursors under structural churn so the TSan stage (scripts/check.sh)
// watches the fast path's lock/validation protocol, not just its quiesced
// results. Every window fill runs the one extractor (SpecFillWindow inside
// the seqlock protocol; wormhole.h), speculatively or, once
// optimistic_retries attempts failed, under the leaf's shared lock: a sweep
// hammer under split/merge + inline<->slab value churn asserts untorn values
// and exactly-once residents for the speculative attempts, and the
// forced-fallback tests (optimistic_retries=0) pin the locked attempts to
// the oracle, single-threaded and under churn in both scan directions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cursor.h"
#include "src/common/rng.h"
#include "src/core/wormhole.h"
#include "src/workload/keysets.h"

namespace wh {
namespace {

using Oracle = std::map<std::string, std::string>;
using Stream = std::vector<std::pair<std::string, std::string>>;

// A key above every generated key (keysets emit bytes < 0xfe).
std::string HighSentinel() { return std::string(64, '\xfe'); }

// The hints under test: 0 is the unhinted snapshot-window reference, 1 the
// degenerate single-item window, the rest shorter / equal / longer than a
// typical scan so windows truncate on either side of it.
const size_t kHints[] = {0, 1, 3, 16, 100};

Stream CursorScan(Cursor* c, size_t hint, const std::string& start,
                  size_t count, bool reverse) {
  c->SetScanLimitHint(hint);
  Stream out;
  if (reverse) {
    c->SeekForPrev(start);
  } else {
    c->Seek(start);
  }
  while (c->Valid() && out.size() < count) {
    out.emplace_back(std::string(c->key()), std::string(c->value()));
    if (reverse) {
      c->Prev();
    } else {
      c->Next();
    }
  }
  return out;
}

Stream OracleScan(const Oracle& oracle, const std::string& start, size_t count,
                  bool reverse) {
  Stream out;
  if (reverse) {
    auto it = oracle.upper_bound(start);
    while (it != oracle.begin() && out.size() < count) {
      --it;
      out.emplace_back(it->first, it->second);
    }
  } else {
    for (auto it = oracle.lower_bound(start);
         it != oracle.end() && out.size() < count; ++it) {
      out.emplace_back(it->first, it->second);
    }
  }
  return out;
}

template <typename Index>
void RunFastpathDifferential(const Options& opt,
                             const std::vector<std::string>& pool,
                             uint64_t seed) {
  Index index(opt);
  Oracle oracle;
  Rng rng(seed);

  // Puts with overwrites plus deletions, as in test_cursor: cursors see
  // updated values and post-removal leaf structures.
  for (size_t i = 0; i < pool.size(); i++) {
    const std::string v = "value-" + std::to_string(i);
    index.Put(pool[i], v);
    oracle[pool[i]] = v;
  }
  for (size_t i = 0; i < pool.size(); i += 3) {
    index.Delete(pool[i]);
    oracle.erase(pool[i]);
  }
  ASSERT_FALSE(oracle.empty());

  auto c = index.NewCursor();

  // Bounded scans vs oracle, forward and reverse, from interior starts, the
  // front, and past-the-end: every hint must yield the identical stream.
  for (int probe = 0; probe < 60; probe++) {
    std::string start;
    switch (probe % 4) {
      case 0:
        start = pool[rng.NextBounded(pool.size())];
        break;
      case 1:
        start = pool[rng.NextBounded(pool.size())] + "\x01";
        break;
      case 2:
        start = "";
        break;
      default:
        start = HighSentinel();
        break;
    }
    const size_t count = 1 + rng.NextBounded(120);
    for (const bool reverse : {false, true}) {
      const Stream expect = OracleScan(oracle, start, count, reverse);
      for (const size_t hint : kHints) {
        SCOPED_TRACE("start=" + start + " count=" + std::to_string(count) +
                     " hint=" + std::to_string(hint) +
                     " reverse=" + std::to_string(reverse));
        ASSERT_EQ(CursorScan(c.get(), hint, start, count, reverse), expect);
      }
    }
  }

  // Mixed-direction walks on a tightly bounded cursor: every turn-around at
  // a truncated window edge must land exactly where the oracle iterator is.
  c->SetScanLimitHint(2);
  for (int walk = 0; walk < 40; walk++) {
    const std::string start = pool[rng.NextBounded(pool.size())];
    c->Seek(start);
    auto it = oracle.lower_bound(start);
    for (int step = 0; step < 24; step++) {
      if (rng.NextBounded(2) == 0) {
        if (it != oracle.end()) {
          ++it;
        }
        c->Next();
      } else if (it == oracle.end()) {
        c->Prev();  // no-op by contract
      } else if (it == oracle.begin()) {
        it = oracle.end();
        c->Prev();
      } else {
        --it;
        c->Prev();
      }
      if (it == oracle.end()) {
        ASSERT_FALSE(c->Valid()) << "walk " << walk << " step " << step;
        break;
      }
      ASSERT_TRUE(c->Valid()) << "walk " << walk << " step " << step;
      ASSERT_EQ(c->key(), it->first) << "walk " << walk << " step " << step;
      ASSERT_EQ(c->value(), it->second) << "walk " << walk << " step " << step;
    }
  }
}

TEST(ScanFastpath, BoundedMatchesSnapshotAllKeysets) {
  for (const KeysetId id : kAllKeysets) {
    SCOPED_TRACE(std::string("keyset=") + KeysetName(id));
    const auto pool = GenerateKeyset({id, 500, 13});
    for (const uint32_t capacity : {4u, 128u}) {
      SCOPED_TRACE("leaf_capacity=" + std::to_string(capacity));
      Options opt;
      opt.leaf_capacity = capacity;
      const uint64_t seed = 0xfa57 ^ static_cast<uint64_t>(id);
      {
        SCOPED_TRACE("class=Wormhole");
        RunFastpathDifferential<Wormhole>(opt, pool, seed);
      }
      {
        SCOPED_TRACE("class=WormholeUnsafe");
        RunFastpathDifferential<WormholeUnsafe>(opt, pool, seed);
      }
    }
  }
}

// Bounded cursors racing structural churn: two writers split and drain
// leaves at the minimum capacity while two readers run short hinted scans.
// Every window refill, in-leaf continuation, and hop revalidation runs
// against live writers — under TSan an unsynchronized slab read in the
// bounded fill is a reported race; the ordering assertions catch any
// skip/duplicate a lost-race fallback might introduce.
TEST(ScanFastpath, BoundedCursorsUnderChurn) {
  Options opt;
  opt.leaf_capacity = 4;
  Wormhole index(opt);

  constexpr int kResident = 3000;
  auto key_of = [](int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "sf-%06d", i);
    return std::string(buf);
  };
  for (int i = 0; i < kResident; i++) {
    index.Put(key_of(i), "resident");
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scans{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < 2; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(42 + static_cast<uint64_t>(tid));
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "churn%d-%06llu", tid,
                      static_cast<unsigned long long>(rng.NextBounded(1500)));
        index.Put(buf, "churn");
        if (i++ % 2 == 0) {
          std::snprintf(buf, sizeof(buf), "churn%d-%06llu", tid,
                        static_cast<unsigned long long>(rng.NextBounded(1500)));
          index.Delete(buf);
        }
      }
    });
  }
  for (int tid = 0; tid < 2; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(7 + static_cast<uint64_t>(tid));
      auto c = index.NewCursor();
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t limit = 1 + rng.NextBounded(24);
        c->SetScanLimitHint(limit);
        const std::string start =
            key_of(static_cast<int>(rng.NextBounded(kResident)));
        std::string prev;
        bool first = true;
        size_t got = 0;
        for (c->Seek(start); c->Valid() && got < limit; c->Next(), got++) {
          const std::string_view k = c->key();
          if (first) {
            if (k < std::string_view(start)) {
              failures.fetch_add(1);  // inclusive start violated
            }
            first = false;
          } else if (k <= std::string_view(prev)) {
            failures.fetch_add(1);  // out of order or duplicate
          }
          prev.assign(k);
        }
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(scans.load(), 0u);
}

// The speculative fill's hardest diet: full-range cursor sweeps while two
// writers (a) flip resident values between an inline encoding (<= 8 bytes,
// stored in the slot) and a slab-backed one (torn copies would mix the two
// or cut one short), and (b) churn same-prefix neighbor keys at
// leaf_capacity=4 so leaves split and drain mid-sweep. Residents are never
// deleted, so the cursor contract owes each sweep every resident exactly
// once, in order, with an untorn value. After the writers stop, a forward
// and a reverse sweep must mirror each other exactly.
TEST(ScanFastpath, SpeculativeSweepsUnderSplitMergeValueChurn) {
  Options opt;
  opt.leaf_capacity = 4;
  Wormhole index(opt);

  constexpr int kResident = 600;
  auto resident_key = [](int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "spec-%06d", i);
    return std::string(buf);
  };
  // The two legal values per resident, both derived from the key: one fits
  // the inline slot encoding, one forces a slab copy.
  auto short_val = [](const std::string& k) { return k.substr(k.size() - 6); };
  auto long_val = [](const std::string& k) { return k + k + k; };
  const std::string kChurnVal = "cv";

  for (int i = 0; i < kResident; i++) {
    const std::string k = resident_key(i);
    index.Put(k, short_val(k));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sweeps{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < 2; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(97 + static_cast<uint64_t>(tid));
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string rk =
            resident_key(static_cast<int>(rng.NextBounded(kResident)));
        index.Put(rk, (i & 1) != 0 ? long_val(rk) : short_val(rk));
        // Churn keys extend a resident key, so they land in the same leaves
        // the sweeps are draining — splits and empty-leaf removals happen
        // under the cursor, not off in a disjoint key range.
        const std::string ck =
            resident_key(static_cast<int>(rng.NextBounded(kResident))) + "+c" +
            std::to_string(tid);
        if (i % 3 == 2) {
          index.Delete(ck);
        } else {
          index.Put(ck, kChurnVal);
        }
        i++;
      }
    });
  }
  for (int tid = 0; tid < 2; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(1009 + static_cast<uint64_t>(tid));
      auto c = index.NewCursor();
      std::vector<uint8_t> seen(kResident);
      while (!stop.load(std::memory_order_relaxed)) {
        const bool reverse = rng.NextBounded(2) == 0;
        const size_t hint = 1 + rng.NextBounded(24);
        c->SetScanLimitHint(hint);
        std::fill(seen.begin(), seen.end(), 0);
        std::string prev;
        bool first = true;
        if (reverse) {
          c->SeekForPrev(HighSentinel());
        } else {
          c->Seek("");
        }
        for (; c->Valid(); reverse ? c->Prev() : c->Next()) {
          const std::string k(c->key());
          const std::string v(c->value());
          if (!first &&
              (reverse ? !(k < prev) : !(prev < k))) {
            failures.fetch_add(1);  // out of order or duplicate
          }
          first = false;
          prev = k;
          if (k.size() == 11 && k.compare(0, 5, "spec-") == 0) {
            int idx = std::atoi(k.c_str() + 5);
            if (idx < 0 || idx >= kResident || seen[idx]++ != 0) {
              failures.fetch_add(1);  // resident duplicated within one sweep
            }
            if (v != short_val(k) && v != long_val(k)) {
              failures.fetch_add(1);  // torn value
            }
          } else if (v != kChurnVal) {
            failures.fetch_add(1);  // torn churn value
          }
        }
        for (int i = 0; i < kResident; i++) {
          if (!seen[i]) {
            failures.fetch_add(1);  // resident skipped
          }
        }
        sweeps.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(sweeps.load(), 0u);

  // Quiescent mirror check: the forward stream and the reversed reverse
  // stream must be byte-identical (keys and values).
  auto c = index.NewCursor();
  Stream fwd;
  for (c->Seek(""); c->Valid(); c->Next()) {
    fwd.emplace_back(std::string(c->key()), std::string(c->value()));
  }
  Stream rev;
  for (c->SeekForPrev(HighSentinel()); c->Valid(); c->Prev()) {
    rev.emplace_back(std::string(c->key()), std::string(c->value()));
  }
  std::reverse(rev.begin(), rev.end());
  EXPECT_EQ(fwd, rev);
  EXPECT_GE(fwd.size(), static_cast<size_t>(kResident));
}

// optimistic_retries=0 disables speculation entirely: every fill, hop, and
// continuation runs its extractor under the leaf's shared lock. The full
// differential (all keysets, minimum leaf capacity) run in this mode pins
// the locked attempts to the oracle, so a speculative-path bug can never
// hide behind "the fallback catches it" while the fallback itself has
// rotted.
TEST(ScanFastpath, ForcedFallbackMatchesOracleAllKeysets) {
  for (const KeysetId id : kAllKeysets) {
    SCOPED_TRACE(std::string("keyset=") + KeysetName(id));
    const auto pool = GenerateKeyset({id, 500, 13});
    Options opt;
    opt.leaf_capacity = 4;
    opt.optimistic_retries = 0;
    RunFastpathDifferential<Wormhole>(opt, pool,
                                      0xfb4c ^ static_cast<uint64_t>(id));
  }
}

// The same churn hammer as BoundedCursorsUnderChurn with speculation off:
// under TSan this exercises the locked fill / hop / reposition attempts
// against live writers in both directions — one scanner runs Seek/Next, the
// other SeekForPrev/Prev, whose reverse hop carries the back-link guard —
// so the locked attempts stay race-checked, not just the speculative ones.
// Residents are never deleted, so every scan must land exactly on its start
// key and never step over a resident.
TEST(ScanFastpath, ForcedFallbackCursorsUnderChurn) {
  Options opt;
  opt.leaf_capacity = 4;
  opt.optimistic_retries = 0;
  Wormhole index(opt);

  constexpr int kResident = 1000;
  auto key_of = [](int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "ff-%06d", i);
    return std::string(buf);
  };
  for (int i = 0; i < kResident; i++) {
    index.Put(key_of(i), "resident");
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scans{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    Rng rng(271);
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "ff-%06d+c",
                    static_cast<int>(rng.NextBounded(kResident)));
      if (i++ % 3 == 2) {
        index.Delete(buf);
      } else {
        index.Put(buf, "churn");
      }
    }
  });
  // "ff-<i>+c" sorts right after resident i and before resident i + 1.
  auto index_of = [](std::string_view k) {
    return std::atoi(std::string(k.substr(3, 6)).c_str());
  };
  for (const bool reverse : {false, true}) {
    threads.emplace_back([&, reverse] {
      Rng rng(reverse ? 32 : 31);
      auto c = index.NewCursor();
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t limit = 1 + rng.NextBounded(16);
        c->SetScanLimitHint(limit);
        const std::string start =
            key_of(static_cast<int>(rng.NextBounded(kResident)));
        if (reverse) {
          c->SeekForPrev(start);
        } else {
          c->Seek(start);
        }
        if (!c->Valid() || c->key() != std::string_view(start)) {
          failures.fetch_add(1);
        }
        std::string prev = start;
        for (size_t got = 1; c->Valid() && got < limit; got++) {
          if (reverse) {
            c->Prev();
          } else {
            c->Next();
          }
          if (!c->Valid()) {
            break;
          }
          const std::string_view k = c->key();
          // The resident next to prev in scan direction: k must not pass it.
          const int i = index_of(prev);
          const bool churn = prev.size() > 9;
          const int next = reverse ? (churn ? i : i - 1) : i + 1;
          const bool ordered = reverse ? k < std::string_view(prev)
                                       : k > std::string_view(prev);
          const bool skipped =
              next >= 0 && next < kResident &&
              (reverse ? k < std::string_view(key_of(next))
                       : k > std::string_view(key_of(next)));
          if (!ordered || skipped) {
            failures.fetch_add(1);
          }
          prev.assign(k);
        }
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(scans.load(), 0u);
}

}  // namespace
}  // namespace wh
