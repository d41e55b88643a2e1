// Multithreaded smoke test for the thread-safe Wormhole: readers and a scanner
// run at full speed while writers churn inserts/deletes and force splits.
// Resident keys are never deleted, so any lost key is a bug; a disjoint
// namespace is never inserted, so any hit there is a phantom. Runs under ASan
// via scripts/check.sh (and the build-asan configuration).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/core/wormhole.h"

namespace wh {
namespace {

std::string ResidentKey(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "res-%06d", i);
  return buf;
}

std::string ChurnKey(int tid, uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wrk%d-%06llu", tid,
                static_cast<unsigned long long>(i));
  return buf;
}

TEST(WormholeConcurrent, ReadersSeeNoLostOrPhantomKeys) {
  // Small leaves force frequent splits, the rare structural path.
  Options opt;
  opt.leaf_capacity = 16;
  Wormhole index(opt);

  constexpr int kResident = 8000;
  constexpr int kChurnRange = 4000;
  for (int i = 0; i < kResident; i++) {
    index.Put(ResidentKey(i), "resident");
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> failures{0};

  std::vector<std::thread> threads;
  // Two writers: churn their own namespace (insert then delete), overwrite
  // resident keys, but never remove them.
  for (int tid = 0; tid < 2; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(100 + static_cast<uint64_t>(tid));
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t k = rng.NextBounded(kChurnRange);
        index.Put(ChurnKey(tid, k), "churn");
        index.Put(ResidentKey(static_cast<int>(rng.NextBounded(kResident))),
                  "resident");
        if (i % 2 == 0) {
          index.Delete(ChurnKey(tid, rng.NextBounded(kChurnRange)));
        }
        i++;
      }
    });
  }
  // Two readers: resident keys must always hit; the "phantom-" namespace,
  // never inserted, must always miss.
  for (int tid = 0; tid < 2; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(200 + static_cast<uint64_t>(tid));
      std::string value;
      while (!stop.load(std::memory_order_relaxed)) {
        const int i = static_cast<int>(rng.NextBounded(kResident));
        if (!index.Get(ResidentKey(i), &value)) {
          failures.fetch_add(1);
        }
        if (index.Get("phantom-" + std::to_string(rng.NextBounded(1000)), &value)) {
          failures.fetch_add(1);
        }
        reads.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }
  // One scanner: keys must come back in strictly increasing order and only
  // from known namespaces.
  threads.emplace_back([&] {
    Rng rng(300);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string start = ResidentKey(static_cast<int>(rng.NextBounded(kResident)));
      std::string prev;
      bool first = true;
      index.Scan(start, 200, [&](std::string_view k, std::string_view) {
        if (first) {
          if (k < std::string_view(start)) {
            failures.fetch_add(1);  // inclusive start: nothing before it
          }
          first = false;
        } else if (k <= std::string_view(prev)) {
          failures.fetch_add(1);  // out of order
        }
        if (k.substr(0, 4) != "res-" && k.substr(0, 3) != "wrk") {
          failures.fetch_add(1);  // phantom key surfaced by scan
        }
        prev.assign(k);
        return true;
      });
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(reads.load(), 0u);

  // Post-churn integrity: every resident key is still there, values sane.
  std::string value;
  for (int i = 0; i < kResident; i++) {
    ASSERT_TRUE(index.Get(ResidentKey(i), &value)) << ResidentKey(i);
    ASSERT_EQ(value, "resident");
  }
  // And the index still agrees with a single-threaded shadow on churn keys:
  // every surviving churn key must Get and Delete consistently.
  for (int tid = 0; tid < 2; tid++) {
    for (int i = 0; i < kChurnRange; i++) {
      const std::string k = ChurnKey(tid, static_cast<uint64_t>(i));
      if (index.Get(k, &value)) {
        ASSERT_EQ(value, "churn");
        ASSERT_TRUE(index.Delete(k));
        ASSERT_FALSE(index.Get(k, &value));
      }
    }
  }
}

// Regression for the Put slow path: once a writer drops the leaf lock to take
// the structural path, the leaf it saw may have been split by the other
// writer, so the slow path must re-resolve the covering leaf. Two writers
// interleave keys that land in the same leaves with a tiny capacity, keeping
// every insert near a split boundary; a stale-leaf bug shows up as a key
// inserted into a leaf that no longer covers it (lost on readback or
// misordered in the scan).
TEST(WormholeConcurrent, TwoWritersHammerSplitBoundaries) {
  Options opt;
  opt.leaf_capacity = 4;  // minimum: every few inserts force a split
  Wormhole index(opt);

  constexpr int kKeys = 30000;
  std::vector<std::thread> writers;
  for (int tid = 0; tid < 2; tid++) {
    writers.emplace_back([&, tid] {
      // Interleaved halves of one dense keyspace: both writers are always
      // working inside the same leaves, racing each split.
      for (int i = tid; i < kKeys; i += 2) {
        index.Put(ResidentKey(i), "x");
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }

  ASSERT_EQ(index.size(), static_cast<size_t>(kKeys));
  std::string value;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(index.Get(ResidentKey(i), &value)) << ResidentKey(i);
  }
  // One ordered pass: no duplicates, no misplaced keys.
  std::string prev;
  size_t seen = 0;
  index.Scan("", kKeys + 1, [&](std::string_view k, std::string_view) {
    if (seen > 0) {
      EXPECT_LT(std::string_view(prev), k);
    }
    prev.assign(k);
    seen++;
    return true;
  });
  EXPECT_EQ(seen, static_cast<size_t>(kKeys));
}

// Drains whole key ranges to empty while readers run, so empty-leaf removal —
// leaf retirement plus trie-node/bucket retirement under QSBR — happens
// constantly under concurrent lock-free lookups. Readers check for lost keys
// (kept namespace must always hit) and phantoms (drained keys must be gone at
// the end); under ASan a premature free of a leaf or trie node a reader still
// holds becomes a use-after-free.
TEST(WormholeConcurrent, DeleteUntilMergeUnderReaders) {
  Options opt;
  opt.leaf_capacity = 4;  // many leaves; every drained leaf exercises removal
  Wormhole index(opt);

  constexpr int kDoomed = 12000;
  constexpr int kKept = 512;
  for (int i = 0; i < kDoomed; i++) {
    index.Put("doomed-" + std::to_string(1000000 + i), "d");
  }
  for (int i = 0; i < kKept; i++) {
    index.Put("keep-" + std::to_string(1000000 + i), "k");
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < 2; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(400 + static_cast<uint64_t>(tid));
      std::string value;
      while (!stop.load(std::memory_order_relaxed)) {
        const int i = static_cast<int>(rng.NextBounded(kKept));
        if (!index.Get("keep-" + std::to_string(1000000 + i), &value) ||
            value != "k") {
          failures.fetch_add(1);
        }
        // Doomed keys may or may not still exist, but a hit must be sane.
        const int j = static_cast<int>(rng.NextBounded(kDoomed));
        if (index.Get("doomed-" + std::to_string(1000000 + j), &value) &&
            value != "d") {
          failures.fetch_add(1);
        }
      }
    });
  }
  // Two deleters sweep the doomed range from both ends: every leaf in the
  // range is drained to empty and removed while the readers run.
  std::vector<std::thread> deleters;
  std::atomic<uint64_t> deleted{0};
  for (int tid = 0; tid < 2; tid++) {
    deleters.emplace_back([&, tid] {
      for (int i = tid; i < kDoomed; i += 2) {
        const int k = tid == 0 ? i : kDoomed - 1 - (i - 1);
        if (index.Delete("doomed-" + std::to_string(1000000 + k))) {
          deleted.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : deleters) {
    t.join();
  }
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(deleted.load(), static_cast<uint64_t>(kDoomed));
  EXPECT_EQ(index.size(), static_cast<size_t>(kKept));
  // No phantom survivors, no lost keepers.
  std::string value;
  for (int i = 0; i < kDoomed; i++) {
    ASSERT_FALSE(index.Get("doomed-" + std::to_string(1000000 + i), &value));
  }
  for (int i = 0; i < kKept; i++) {
    ASSERT_TRUE(index.Get("keep-" + std::to_string(1000000 + i), &value));
  }
  size_t seen = 0;
  index.Scan("", kDoomed + kKept, [&](std::string_view k, std::string_view) {
    EXPECT_EQ(k.substr(0, 5), "keep-");
    seen++;
    return true;
  });
  EXPECT_EQ(seen, static_cast<size_t>(kKept));
}

// MetaTrieHT table growth under lock-free readers. The index starts at its
// initial 256-bucket table and a writer inserts kGrown keys at the minimum
// leaf capacity: every leaf's anchor is a trie node of its own, so the
// thousands of leaves push the node count past several doublings (the table
// grows past 2 nodes per bucket). The writer then deletes them all, so the
// grown table's chains shrink again through leaf removals. Readers route
// through every republished chain and every new table: kept keys must always
// hit, never-inserted keys must always miss. Under ASan a chain or table
// freed before its grace period shows as a use-after-free.
TEST(WormholeConcurrent, TableGrowthUnderReaders) {
  Options opt;
  opt.leaf_capacity = 4;
  Wormhole index(opt);
  constexpr int kKept = 256;
  constexpr int kGrown = 20000;
  for (int i = 0; i < kKept; i++) {
    index.Put("keep-" + std::to_string(1000000 + i), "k");
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int tid = 0; tid < 2; tid++) {
    readers.emplace_back([&, tid] {
      Rng rng(500 + static_cast<uint64_t>(tid));
      std::string value;
      while (!stop.load(std::memory_order_relaxed)) {
        const int i = static_cast<int>(rng.NextBounded(kKept));
        if (!index.Get("keep-" + std::to_string(1000000 + i), &value) ||
            value != "k") {
          failures.fetch_add(1);
        }
        if (index.Get("phantom-" + std::to_string(i), &value)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::vector<int> order(kGrown);
  for (int i = 0; i < kGrown; i++) {
    order[i] = i;
  }
  Rng rng(77);
  for (int i = kGrown - 1; i > 0; i--) {
    std::swap(order[i], order[rng.NextBounded(static_cast<uint64_t>(i) + 1)]);
  }
  for (const int i : order) {
    index.Put("grow-" + std::to_string(1000000 + i), "g");
  }
  EXPECT_EQ(index.size(), static_cast<size_t>(kKept + kGrown));
  for (const int i : order) {
    ASSERT_TRUE(index.Delete("grow-" + std::to_string(1000000 + i)));
  }
  stop.store(true);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(index.size(), static_cast<size_t>(kKept));
  std::string value;
  for (int i = 0; i < kKept; i++) {
    ASSERT_TRUE(index.Get("keep-" + std::to_string(1000000 + i), &value));
  }
}

// The prefetch-interleaved MultiGet routes optimistically with no locks held,
// so its route hints go stale whenever a writer splits or removes a leaf
// mid-batch; every stale hint must fail leaf validation and fall back, never
// serve from the wrong leaf. Tiny leaves keep every batch racing a structural
// change; under ASan a reader still holding a retired leaf/bucket line
// becomes a use-after-free, under TSan any unsynchronized slab access is a
// reported race. Residents are never deleted (a miss is a lost key) and the
// phantom namespace is never inserted (a hit is a phantom). The churn keys
// sit right after resident keys, so the residents' own leaves take the
// in-leaf inserts, splits and removals; each resident's value is derived
// from its key — half inline, half longer than the inline cutoff — and
// checked exactly, so an answer read from the wrong slot or the wrong leaf
// fails.
TEST(WormholeConcurrent, BatchedReadersUnderConcurrentSplits) {
  Options opt;
  opt.leaf_capacity = 4;  // maximal structural churn
  Wormhole index(opt);

  constexpr int kResident = 6000;
  constexpr int kChurnRange = 3000;
  const auto resident_value = [](int i) {
    return i % 2 == 0 ? "r" + std::to_string(i)
                      : "resident-value-" + std::to_string(i);
  };
  for (int i = 0; i < kResident; i++) {
    index.Put(ResidentKey(i), resident_value(i));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  // Two writers churn inserts/deletes between residents: constant splits
  // and leaf removals in the leaves the readers read.
  for (int tid = 0; tid < 2; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(500 + static_cast<uint64_t>(tid));
      const auto churn_key = [&] {
        const int k = static_cast<int>(rng.NextBounded(kChurnRange));
        return ResidentKey(2 * k) + "+w" + std::to_string(tid);
      };
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        index.Put(churn_key(), "churn");
        if (i++ % 2 == 0) {
          index.Delete(churn_key());
        }
      }
    });
  }
  // Two batched readers: shuffled batches of residents + phantoms, sized to
  // cover partial and multi-group pipelines.
  for (int tid = 0; tid < 2; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(600 + static_cast<uint64_t>(tid));
      std::vector<std::string> storage;
      std::vector<int> resident;  // resident index per batch slot; -1: phantom
      std::vector<std::string_view> batch;
      std::vector<std::string> values;
      std::vector<uint8_t> hits;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t n = 1 + rng.NextBounded(24);
        storage.clear();
        resident.clear();
        for (size_t i = 0; i < n; i++) {
          if (rng.NextBounded(4) == 0) {
            storage.push_back("phantom-" + std::to_string(rng.NextBounded(1000)));
            resident.push_back(-1);
          } else {
            resident.push_back(static_cast<int>(rng.NextBounded(kResident)));
            storage.push_back(ResidentKey(resident.back()));
          }
        }
        batch.assign(storage.begin(), storage.end());
        index.MultiGet(batch, &values, &hits);
        for (size_t i = 0; i < n; i++) {
          const bool is_resident = resident[i] >= 0;
          if (hits[i] != static_cast<uint8_t>(is_resident ? 1 : 0)) {
            failures.fetch_add(1);
          }
          if (is_resident && values[i] != resident_value(resident[i])) {
            failures.fetch_add(1);
          }
        }
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(batches.load(), 0u);
  // Post-churn: one big batch over every resident key must fully hit.
  std::vector<std::string> storage;
  for (int i = 0; i < kResident; i++) {
    storage.push_back(ResidentKey(i));
  }
  std::vector<std::string_view> batch(storage.begin(), storage.end());
  std::vector<std::string> values;
  std::vector<uint8_t> hits;
  EXPECT_EQ(index.MultiGet(batch, &values, &hits),
            static_cast<size_t>(kResident));
  for (int i = 0; i < kResident; i++) {
    EXPECT_EQ(values[i], resident_value(i)) << ResidentKey(i);
  }
}

// Cursors (epoch-pinned, per-leaf snapshot windows) iterating both directions
// while writers force splits and empty-leaf removals at the minimum leaf
// capacity. Residents are never deleted and churn is a disjoint namespace, so
// a full forward pass must see every resident exactly once, in strictly
// increasing order, with no phantom keys; the reverse pass mirrors that.
// Every leaf hop races the writers' structural churn, exercising the
// version/dead-flag revalidation and the re-Seek fallback; under ASan a
// cursor dereferencing a prematurely freed leaf is a use-after-free, under
// TSan any window copy racing an in-leaf write is a reported race. Cursors
// never hold a leaf lock between calls, so writers keep making progress
// regardless of how slowly the readers step.
TEST(WormholeConcurrent, CursorsUnderConcurrentSplits) {
  Options opt;
  opt.leaf_capacity = 4;  // maximal structural churn
  Wormhole index(opt);

  constexpr int kResident = 4000;
  constexpr int kChurnRange = 2500;
  for (int i = 0; i < kResident; i++) {
    index.Put(ResidentKey(i), "resident");
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> passes{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  // Two writers churn inserts/deletes: constant splits and leaf removals in
  // the same leaves the residents live in (names interleave).
  for (int tid = 0; tid < 2; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(700 + static_cast<uint64_t>(tid));
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        index.Put(ChurnKey(tid, rng.NextBounded(kChurnRange)), "churn");
        if (i++ % 2 == 0) {
          index.Delete(ChurnKey(tid, rng.NextBounded(kChurnRange)));
        }
      }
    });
  }
  // One full-sweep forward iterator: every resident present, strict order,
  // no phantoms. Cursors are created and destroyed per pass, so reclamation
  // is only pinned for one sweep at a time.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto c = index.NewCursor();
      int expect = 0;
      std::string prev;
      bool first = true;
      for (c->Seek(""); c->Valid(); c->Next()) {
        const std::string_view k = c->key();
        if (!first && k <= std::string_view(prev)) {
          failures.fetch_add(1);  // out of order or duplicate
        }
        first = false;
        prev.assign(k);
        if (k.substr(0, 4) == "res-") {
          if (k != ResidentKey(expect)) {
            failures.fetch_add(1);  // lost or phantom resident
          } else {
            expect++;
          }
          if (c->value() != "resident") {
            failures.fetch_add(1);
          }
        } else if (k.substr(0, 3) != "wrk") {
          failures.fetch_add(1);  // phantom namespace
        }
      }
      if (expect != kResident) {
        failures.fetch_add(1);  // forward sweep lost residents
      }
      passes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // One reverse iterator from past the end down to the front.
  threads.emplace_back([&] {
    const std::string top(32, '\x7e');
    while (!stop.load(std::memory_order_relaxed)) {
      auto c = index.NewCursor();
      int expect = kResident - 1;
      std::string prev;
      bool first = true;
      for (c->SeekForPrev(top); c->Valid(); c->Prev()) {
        const std::string_view k = c->key();
        if (!first && k >= std::string_view(prev)) {
          failures.fetch_add(1);
        }
        first = false;
        prev.assign(k);
        if (k.substr(0, 4) == "res-") {
          if (expect < 0 || k != ResidentKey(expect)) {
            failures.fetch_add(1);
          } else {
            expect--;
          }
        } else if (k.substr(0, 3) != "wrk") {
          failures.fetch_add(1);
        }
      }
      if (expect != -1) {
        failures.fetch_add(1);  // reverse sweep lost residents
      }
      passes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // One short-scan reader mixing directions around random residents: seek,
  // walk a few keys forward, reverse over the same ground — ordering must
  // hold in both directions across live leaf hops.
  threads.emplace_back([&] {
    Rng rng(900);
    while (!stop.load(std::memory_order_relaxed)) {
      auto c = index.NewCursor();
      const std::string start =
          ResidentKey(static_cast<int>(rng.NextBounded(kResident)));
      c->Seek(start);
      if (c->Valid() && c->key() < std::string_view(start)) {
        failures.fetch_add(1);  // Seek must land at or after the bound
      }
      std::string prev;
      bool first = true;
      for (int step = 0; step < 16 && c->Valid(); step++, c->Next()) {
        if (!first && c->key() <= std::string_view(prev)) {
          failures.fetch_add(1);
        }
        first = false;
        prev.assign(c->key());
      }
      // Turn around: each Prev must land strictly below the cursor's own
      // previous position (concurrent inserts may appear in the gap, so only
      // the cursor-relative ordering is asserted).
      std::string cur;
      if (c->Valid()) {
        cur.assign(c->key());
      }
      for (int step = 0; step < 16 && c->Valid(); step++) {
        c->Prev();
        if (!c->Valid()) {
          break;
        }
        if (c->key() >= std::string_view(cur)) {
          failures.fetch_add(1);
        }
        cur.assign(c->key());
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(passes.load(), 0u);

  // Quiesced end state: a fresh forward pass equals a fresh reverse pass.
  std::vector<std::string> fwd;
  std::vector<std::string> rev;
  auto c = index.NewCursor();
  for (c->Seek(""); c->Valid(); c->Next()) {
    fwd.emplace_back(c->key());
  }
  for (c->SeekForPrev(std::string(32, '\x7e')); c->Valid(); c->Prev()) {
    rev.emplace_back(c->key());
  }
  std::reverse(rev.begin(), rev.end());
  EXPECT_EQ(fwd, rev);
  EXPECT_EQ(fwd.size(), index.size());
}

// Regression: Scan with count == 0 must be a no-op that leaves no leaf lock
// behind (a leaked shared lock would deadlock the next writer on that leaf).
TEST(WormholeConcurrent, ZeroCountScanDoesNotLeakLeafLock) {
  Wormhole index;
  for (int i = 0; i < 100; i++) {
    index.Put(ResidentKey(i), "x");
  }
  size_t calls = 0;
  EXPECT_EQ(index.Scan("", 0, [&](std::string_view, std::string_view) {
    calls++;
    return true;
  }), 0u);
  EXPECT_EQ(calls, 0u);
  // Writes to the same leaf must still complete.
  index.Put(ResidentKey(0), "y");
  std::string value;
  ASSERT_TRUE(index.Get(ResidentKey(0), &value));
  EXPECT_EQ(value, "y");
}

// Regression for the exactly-once contract (cursor.h) around the re-Seek
// fallback: when a cursor loses a validation race it re-routes from the LAST
// RETURNED key with strict semantics ("first key strictly greater"). If a
// writer deletes that exact key and re-inserts it mid-race, a fallback that
// repositioned non-strictly (">=") would return it a second time. Writers
// here churn delete-then-reinsert of the very keys the sweeps walk, at the
// minimum leaf capacity so deletions retire leaves and re-inserts split them
// — every window edge races a structural change at or next to the bound key.
// Stable keys interleave with churn keys inside the same leaves and are
// never touched: each sweep must see every stable key exactly once, and all
// keys strictly ordered (a double emit breaks the ordering check; a strict-
// ness bug on the churned bound key breaks it on the re-inserted key
// itself). Both hinted (bounded refill + in-leaf continuation) and unhinted
// (whole-window) cursors run the same assertions, forward and reverse.
TEST(WormholeConcurrent, ReinsertedBoundKeyIsNotEmittedTwice) {
  Options opt;
  opt.leaf_capacity = 4;
  Wormhole index(opt);

  // Even ids are stable, odd ids churn: every capacity-4 leaf mixes both.
  constexpr int kSpan = 6000;
  constexpr int kStable = kSpan / 2;
  auto key_of = [](int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "re-%06d", i);
    return std::string(buf);
  };
  for (int i = 0; i < kSpan; i++) {
    index.Put(key_of(i), i % 2 == 0 ? "stable" : "churn");
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> passes{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  // Two writers: delete a churn key and immediately re-insert the SAME key,
  // so any cursor whose bound equals it races the delete/reinsert pair.
  for (int tid = 0; tid < 2; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(800 + static_cast<uint64_t>(tid));
      while (!stop.load(std::memory_order_relaxed)) {
        const int i = 1 + 2 * static_cast<int>(rng.NextBounded(kSpan / 2));
        const std::string k = key_of(i);
        index.Delete(k);
        index.Put(k, "churn");
      }
    });
  }
  // Sweep readers: hint 0 (snapshot windows) and hint 3 (bounded windows
  // with truncated-edge continuations), one forward and one reverse each.
  for (const size_t hint : {size_t{0}, size_t{3}}) {
    threads.emplace_back([&, hint] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto c = index.NewCursor();
        c->SetScanLimitHint(hint);
        int stable_seen = 0;
        std::string prev;
        bool first = true;
        for (c->Seek(""); c->Valid(); c->Next()) {
          const std::string_view k = c->key();
          if (!first && k <= std::string_view(prev)) {
            failures.fetch_add(1);  // duplicate or out-of-order emit
          }
          first = false;
          prev.assign(k);
          if (c->value() == "stable") {
            stable_seen++;
          }
        }
        if (stable_seen != kStable) {
          failures.fetch_add(1);  // stable keys are never written: lost one
        }
        passes.fetch_add(1, std::memory_order_relaxed);
      }
    });
    threads.emplace_back([&, hint] {
      const std::string top(32, '\x7e');
      while (!stop.load(std::memory_order_relaxed)) {
        auto c = index.NewCursor();
        c->SetScanLimitHint(hint);
        int stable_seen = 0;
        std::string prev;
        bool first = true;
        for (c->SeekForPrev(top); c->Valid(); c->Prev()) {
          const std::string_view k = c->key();
          if (!first && k >= std::string_view(prev)) {
            failures.fetch_add(1);
          }
          first = false;
          prev.assign(k);
          if (c->value() == "stable") {
            stable_seen++;
          }
        }
        if (stable_seen != kStable) {
          failures.fetch_add(1);
        }
        passes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(passes.load(), 0u);

  // Quiesced: every key (stable and churn) present exactly once, in order.
  size_t seen = 0;
  std::string prev;
  index.Scan("", kSpan + 1, [&](std::string_view k, std::string_view) {
    if (seen > 0) {
      EXPECT_LT(std::string_view(prev), k);
    }
    prev.assign(k);
    seen++;
    return true;
  });
  EXPECT_EQ(seen, static_cast<size_t>(kSpan));
}

// Four threads load keys 0..kLoadKeys-1 into one index, thread t the keys
// i = t mod 4, through load(index, t). The index must end with exactly the
// items a serial load of every key with value "x" gives, in the same order.
constexpr int kLoadKeys = 20000;

template <typename LoadFn>
void ExpectParallelLoadMatchesSerial(const Options& opt, LoadFn load) {
  Wormhole parallel(opt);
  WormholeUnsafe serial(opt);
  for (int i = 0; i < kLoadKeys; i++) {
    serial.Put(ResidentKey(i), "x");
  }
  std::vector<std::thread> threads;
  for (int tid = 0; tid < 4; tid++) {
    threads.emplace_back([&, tid] { load(&parallel, tid); });
  }
  for (auto& t : threads) {
    t.join();
  }
  ASSERT_EQ(parallel.size(), serial.size());
  // Identical contents in identical order.
  using Items = std::vector<std::pair<std::string, std::string>>;
  Items a;
  Items b;
  parallel.Scan("", kLoadKeys + 1, [&](std::string_view k, std::string_view v) {
    a.emplace_back(k, v);
    return true;
  });
  serial.Scan("", kLoadKeys + 1, [&](std::string_view k, std::string_view v) {
    b.emplace_back(k, v);
    return true;
  });
  ASSERT_EQ(a.size(), static_cast<size_t>(kLoadKeys));
  ASSERT_EQ(a, b);
}

TEST(WormholeConcurrent, ParallelLoadMatchesSerialLoad) {
  Options opt;
  opt.leaf_capacity = 32;
  ExpectParallelLoadMatchesSerial(opt, [](Wormhole* index, int tid) {
    for (int i = tid; i < kLoadKeys; i += 4) {
      index->Put(ResidentKey(i), "x");
    }
  });
}

// The same load through MultiPut. The threads' keys interleave, so their
// batches write the same leaves at once, and a key's lock-free pre-search
// often goes stale under another thread's insert or split before the key
// takes the leaf's lock. Each batch inserts 16 keys with a placeholder
// value and then updates them to "x", so both the insert and the update
// positions of pre-searches are exercised; at leaf capacity 4 nearly every
// group splits a leaf.
TEST(WormholeConcurrent, ParallelMultiPutLoadMatchesSerialLoad) {
  for (const size_t leaf_capacity : {size_t{32}, size_t{4}}) {
    SCOPED_TRACE("leaf_capacity=" + std::to_string(leaf_capacity));
    Options opt;
    opt.leaf_capacity = leaf_capacity;
    ExpectParallelLoadMatchesSerial(opt, [](Wormhole* index, int tid) {
      std::vector<std::string> keys;
      std::vector<std::pair<std::string_view, std::string_view>> batch;
      for (int lo = tid; lo < kLoadKeys; lo += 4 * 16) {
        keys.clear();
        for (int i = lo; i < kLoadKeys && i < lo + 4 * 16; i += 4) {
          keys.push_back(ResidentKey(i));
        }
        batch.clear();
        for (const std::string& k : keys) {
          batch.emplace_back(k, "placeholder");
        }
        for (const std::string& k : keys) {
          batch.emplace_back(k, "x");
        }
        EXPECT_TRUE(index->MultiPut(batch));
      }
    });
  }
}

// Hammer for the lock-free optimistic read path. Tiny leaves keep splits and
// merges constant, and writers flip resident values between a short inline
// value and a long out-of-line slab value, so optimistic readers race every
// leaf mutation shape: slot rewrite, slab append/compact, split, merge. A
// resident key must always hit, and the value must be exactly one of the two
// legal values — anything else is a torn read the seqlock validation failed
// to catch. Absent keys must always miss. Runs under ASan and TSan with the
// default retry budget and with optimistic_retries = 0, where every Get and
// MultiGet key takes the locked read (the same extractor under the leaf's
// shared lock) against the live split/merge churn — each over both in-leaf
// indexes: DirectPos's tag runs in by_hash, and the by_key bisection of the
// direct_pos = false ablation.
class OptimisticGetChurn
    : public testing::TestWithParam<std::tuple<bool, uint32_t>> {};

TEST_P(OptimisticGetChurn, OptimisticGetUnderSplitMergeChurn) {
  Options opt;
  opt.leaf_capacity = 4;
  opt.direct_pos = std::get<0>(GetParam());
  opt.optimistic_retries = std::get<1>(GetParam());
  Wormhole index(opt);

  constexpr int kResident = 64;
  auto short_val = [](const std::string& key) {
    return key.substr(4);  // 6 chars: stored inline in the slot.
  };
  auto long_val = [](const std::string& key) {
    return key + key + key;  // 30 chars: stored out-of-line in the slab.
  };
  for (int i = 0; i < kResident; i++) {
    index.Put(ResidentKey(i), short_val(ResidentKey(i)));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};

  std::vector<std::thread> threads;
  // Two writers: alternate each resident key between its two legal values
  // (inline <-> slab transitions), and churn a private namespace with inserts
  // and deletes so leaves constantly split and merge around the residents.
  for (int tid = 0; tid < 2; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(300 + static_cast<uint64_t>(tid));
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string res = ResidentKey(static_cast<int>(rng.NextBounded(kResident)));
        index.Put(res, (i & 1) ? long_val(res) : short_val(res));
        const uint64_t k = rng.NextBounded(512);
        index.Put(ChurnKey(tid, k), "churn");
        if (i % 2 == 0) {
          index.Delete(ChurnKey(tid, rng.NextBounded(512)));
        }
        i++;
      }
    });
  }
  // Two readers: resident Gets must hit with an untorn value; absent keys
  // must miss; periodic MultiGet batches exercise the pipelined variant of
  // the same optimistic protocol.
  for (int tid = 0; tid < 2; tid++) {
    threads.emplace_back([&, tid] {
      Rng rng(400 + static_cast<uint64_t>(tid));
      std::string value;
      uint64_t iter = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string res = ResidentKey(static_cast<int>(rng.NextBounded(kResident)));
        if (!index.Get(res, &value)) {
          failures.fetch_add(1);
        } else if (value != short_val(res) && value != long_val(res)) {
          failures.fetch_add(1);
        }
        if (index.Get("absent-" + std::to_string(rng.NextBounded(1000)), &value)) {
          failures.fetch_add(1);
        }
        if (iter % 16 == 0) {
          std::vector<std::string> keys;
          std::vector<std::string_view> views;
          std::vector<std::string> values;
          std::vector<uint8_t> hits;
          for (int j = 0; j < 8; j++) {
            keys.push_back(ResidentKey(static_cast<int>(rng.NextBounded(kResident))));
          }
          for (const auto& k : keys) {
            views.emplace_back(k);
          }
          index.MultiGet(views, &values, &hits);
          for (size_t j = 0; j < keys.size(); j++) {
            if (!hits[j]) {
              failures.fetch_add(1);
            } else if (values[j] != short_val(keys[j]) &&
                       values[j] != long_val(keys[j])) {
              failures.fetch_add(1);
            }
          }
        }
        iter++;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0u);

  // Post-churn: every resident key still readable with a legal value.
  std::string value;
  for (int i = 0; i < kResident; i++) {
    const std::string res = ResidentKey(i);
    ASSERT_TRUE(index.Get(res, &value)) << res;
    ASSERT_TRUE(value == short_val(res) || value == long_val(res)) << res;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WormholeConcurrent, OptimisticGetChurn,
    testing::Combine(testing::Bool(), testing::Values(3u, 0u)),
    [](const testing::TestParamInfo<std::tuple<bool, uint32_t>>& info) {
      return std::string(std::get<0>(info.param) ? "DirectPos" : "ByKey") +
             "_retries" + std::to_string(std::get<1>(info.param));
    });

// With the retry budget pinned to zero every read skips the speculative
// attempts and runs the extractor under the shared lock; a differential run
// against a std::map oracle proves the locked attempt alone is a complete,
// correct read path.
TEST(WormholeConcurrent, ForcedFallbackMatchesOracle) {
  Options opt;
  opt.leaf_capacity = 8;
  opt.optimistic_retries = 0;
  Wormhole index(opt);
  std::map<std::string, std::string> oracle;

  Rng rng(7777);
  std::string value;
  for (int step = 0; step < 20000; step++) {
    const std::string key = ResidentKey(static_cast<int>(rng.NextBounded(600)));
    const uint64_t op = rng.NextBounded(10);
    if (op < 6) {
      const std::string val = "v" + std::to_string(rng.NextBounded(1000)) +
                              (op < 3 ? std::string(20, 'x') : std::string());
      index.Put(key, val);
      oracle[key] = val;
    } else if (op < 8) {
      ASSERT_EQ(index.Delete(key), oracle.erase(key) > 0);
    } else {
      auto it = oracle.find(key);
      ASSERT_EQ(index.Get(key, &value), it != oracle.end());
      if (it != oracle.end()) {
        ASSERT_EQ(value, it->second);
      }
    }
    if (step % 1024 == 0) {
      std::vector<std::string> keys;
      std::vector<std::string_view> views;
      std::vector<std::string> values;
      std::vector<uint8_t> hits;
      for (int j = 0; j < 16; j++) {
        keys.push_back(ResidentKey(static_cast<int>(rng.NextBounded(600))));
      }
      for (const auto& k : keys) {
        views.emplace_back(k);
      }
      index.MultiGet(views, &values, &hits);
      for (size_t j = 0; j < keys.size(); j++) {
        auto it = oracle.find(keys[j]);
        ASSERT_EQ(hits[j] != 0, it != oracle.end()) << keys[j];
        if (it != oracle.end()) {
          ASSERT_EQ(values[j], it->second) << keys[j];
        }
      }
    }
  }
  ASSERT_EQ(index.size(), oracle.size());
}

// --- the view invariant ------------------------------------------------------
// A cursor's key() and value() are views into the slab block its window was
// filled from, so the bytes a validated slot names must never change while
// a pinned cursor can still see them (leaf_ops.h). Out-of-line values that
// shrink are the case an in-place overwrite would break.

// An out-of-line value of generation g in 'A'..'P': 9 + 4 * (g - 'A') bytes,
// all g. A view that a writer scribbled over reads mixed bytes or a length
// that does not match its first byte.
std::string GenValue(char g) { return std::string(9 + 4 * (g - 'A'), g); }
bool IsGenValue(std::string_view v) {
  return !v.empty() && v[0] >= 'A' && v[0] <= 'P' &&
         v.size() == 9 + 4 * static_cast<size_t>(v[0] - 'A') &&
         v.find_first_not_of(v[0]) == std::string_view::npos;
}

// A churn differential against std::map in which out-of-line values shrink
// and grow. Full scans in both directions must equal the oracle, and a
// cursor parked at a random key must keep reading its window's snapshot
// through the same views while the thread overwrites that key (shrinking
// it), its leaf neighbors and the rest, inserting and deleting around it.
TEST(WormholeConcurrent, ViewChurnMatchesOracle) {
  Options opt;
  opt.leaf_capacity = 8;
  Wormhole index(opt);
  std::map<std::string, std::string> oracle;
  Rng rng(4242);
  const auto random_put = [&](const std::string& key) {
    const std::string v = GenValue(static_cast<char>('A' + rng.NextBounded(16)));
    index.Put(key, v);
    oracle[key] = v;
  };
  for (int round = 0; round < 300; round++) {
    for (int step = 0; step < 40; step++) {
      const std::string key = ResidentKey(static_cast<int>(rng.NextBounded(400)));
      if (rng.NextBounded(4) == 0) {
        ASSERT_EQ(index.Delete(key), oracle.erase(key) > 0);
      } else {
        random_put(key);
      }
    }
    auto c = index.NewCursor();
    c->Seek(ResidentKey(static_cast<int>(rng.NextBounded(400))));
    if (c->Valid()) {
      const std::string_view kview = c->key();
      const std::string_view vview = c->value();
      const std::string kcopy(kview);
      const std::string vcopy(vview);
      ASSERT_EQ(oracle.at(kcopy), vcopy);
      index.Put(kcopy, GenValue('A'));  // the shortest out-of-line value
      oracle[kcopy] = GenValue('A');
      for (int step = 0; step < 40; step++) {
        const std::string key =
            ResidentKey(static_cast<int>(rng.NextBounded(400)));
        if (rng.NextBounded(4) == 0 && key != kcopy) {
          ASSERT_EQ(index.Delete(key), oracle.erase(key) > 0);
        } else {
          random_put(key);
        }
      }
      ASSERT_EQ(kview, kcopy) << "round " << round;
      ASSERT_EQ(vview, vcopy) << "round " << round << " key " << kcopy;
    }
    c.reset();
    if (round % 10 == 0) {
      auto it = oracle.begin();
      auto sweep = index.NewCursor();
      for (sweep->Seek(""); sweep->Valid(); sweep->Next(), ++it) {
        ASSERT_NE(it, oracle.end());
        ASSERT_EQ(sweep->key(), it->first);
        ASSERT_EQ(sweep->value(), it->second);
      }
      ASSERT_EQ(it, oracle.end());
      auto rit = oracle.rbegin();
      for (sweep->SeekForPrev("\xff"); sweep->Valid(); sweep->Prev(), ++rit) {
        ASSERT_NE(rit, oracle.rend());
        ASSERT_EQ(sweep->key(), rit->first);
        ASSERT_EQ(sweep->value(), rit->second);
      }
      ASSERT_EQ(rit, oracle.rend());
    }
  }
}

// A parked cursor's views stay unchanged while every key of its leaf is
// overwritten with a shorter value, and then again through the compactions
// and the split that further overwrites and inserts force; the cursor's
// epoch pin keeps each replaced slab block alive (ASan checks that part).
TEST(WormholeConcurrent, ParkedCursorViewsSurviveShrinkingOverwrites) {
  Options opt;
  opt.leaf_capacity = 16;
  Wormhole index(opt);
  for (int i = 0; i < 12; i++) {
    index.Put(ResidentKey(i), GenValue('P'));
  }
  auto c = index.NewCursor();
  c->SetScanLimitHint(12);
  c->Seek(ResidentKey(0));
  for (int i = 0; i < 4; i++) {
    c->Next();
  }
  ASSERT_TRUE(c->Valid());
  const std::string_view kview = c->key();
  const std::string_view vview = c->value();
  ASSERT_EQ(kview, ResidentKey(4));
  for (int i = 0; i < 12; i++) {
    index.Put(ResidentKey(i), GenValue('B'));
  }
  EXPECT_EQ(kview, ResidentKey(4));
  EXPECT_EQ(vview, GenValue('P'));
  for (int round = 0; round < 20; round++) {
    for (int i = 0; i < 12; i++) {
      index.Put(ResidentKey(i), GenValue(round % 2 == 0 ? 'A' : 'C'));
    }
  }
  for (int i = 12; i < 40; i++) {
    index.Put(ResidentKey(i), GenValue('D'));
  }
  EXPECT_EQ(kview, ResidentKey(4));
  EXPECT_EQ(vview, GenValue('P'));
  // The window itself is one snapshot: the items after the park point read
  // their fill-time values too.
  c->Next();
  ASSERT_TRUE(c->Valid());
  EXPECT_EQ(c->key(), ResidentKey(5));
  EXPECT_EQ(c->value(), GenValue('P'));
}

// A scanner reads its views twice, a yield apart, while a writer overwrites
// the same keys with values that shrink and grow. Every view must hold one
// whole generation both times; a write into a span a view names reads as
// mixed bytes (and as a data race under TSan).
TEST(WormholeConcurrent, ScannerViewsUnderShrinkingWriter) {
  Options opt;
  opt.leaf_capacity = 16;
  Wormhole index(opt);
  constexpr int kKeys = 512;
  for (int i = 0; i < kKeys; i++) {
    index.Put(ResidentKey(i), GenValue('P'));
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(31);
    while (!stop.load(std::memory_order_relaxed)) {
      index.Put(ResidentKey(static_cast<int>(rng.NextBounded(kKeys))),
                GenValue(static_cast<char>('A' + rng.NextBounded(16))));
    }
  });
  Rng rng(32);
  uint64_t bad = 0;
  uint64_t seen = 0;
  for (int scan = 0; scan < 600; scan++) {
    auto c = index.NewCursor();
    c->SetScanLimitHint(24);
    c->Seek(ResidentKey(static_cast<int>(rng.NextBounded(kKeys))));
    for (int i = 0; i < 24 && c->Valid(); i++, c->Next()) {
      const std::string_view k = c->key();
      const std::string_view v = c->value();
      const bool first = IsGenValue(v) && k.substr(0, 4) == "res-";
      std::this_thread::yield();
      bad += (first && IsGenValue(v) && k.substr(0, 4) == "res-") ? 0 : 1;
      seen++;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(bad, 0u) << "of " << seen << " items";
  EXPECT_GT(seen, 600u);
}

}  // namespace
}  // namespace wh
