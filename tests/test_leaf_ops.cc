// Property tests for the slab-backed LeafStore (src/core/leaf_ops.h): random
// Insert / UpdateValue / Erase / RebuildIndexes / Compact sequences must keep
// `slots`, `by_key`, `by_hash` and the slab encoding mutually consistent, and
// FindSlot must agree with a std::map oracle at every step, and so must
// SpecFillWindow (the cursor's only window extractor) and the resumable
// SpecProbe (the point-read extractor, stepped round-robin over a group of
// keys as MultiGet does) on the quiescent store.
// Value lengths straddle the inline threshold so every encoding transition
// (inline <-> out-of-line, and the relocating overwrite of an out-of-line
// value that grows or shrinks) is exercised.
//
// Also here, the MetaTrieHT bucket chains (src/core/meta_bucket.h): chains
// of several lines, built only by metabucket::Rebuild, must stay packed
// (every line full but the last), keep tag order or add order, and match a
// std::vector model under random adds and drops.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/core/leaf_ops.h"
#include "src/core/meta_bucket.h"

namespace wh {
namespace {

using leafops::kInlineValue;
using leafops::LeafStore;

uint32_t FullHash(std::string_view key) {
  return Crc32cExtend(kCrc32cInit, key.data(), key.size());
}

// Inserts an absent key as Put does: at the positions its Locate miss
// hands over.
void InsertAbsent(LeafStore* s, bool direct_pos, std::string_view key,
                  std::string_view value, uint32_t hash) {
  const leafops::SlotPos at = leafops::Locate(*s, direct_pos, key, hash);
  ASSERT_LT(at.slot, 0) << key;
  leafops::Insert(s, direct_pos, key, value, hash, at);
}

// The hash a store's keys were inserted with. The adversarial cases below
// pass degenerate ones into Insert to stress the tag-run search.
using HashFn = uint32_t (*)(std::string_view);

// Every structural invariant of one store, checked against the oracle.
void CheckStore(const LeafStore& s, bool direct_pos,
                const std::map<std::string, std::string>& oracle,
                HashFn hash_of = FullHash) {
  ASSERT_EQ(s.size(), oracle.size());
  ASSERT_EQ(s.by_key.size(), s.slots.size());
  ASSERT_EQ(s.by_hash.size(), direct_pos ? s.slots.size() : 0u);
  ASSERT_LE(s.dead, s.slab.size());

  // by_key is a permutation of slot ids in strict key order, and the decoded
  // (key, value) sequence equals the oracle's.
  std::vector<bool> seen(s.slots.size(), false);
  auto it = oracle.begin();
  for (size_t i = 0; i < s.by_key.size(); i++, ++it) {
    const uint16_t id = s.by_key[i];
    ASSERT_LT(id, s.slots.size());
    ASSERT_FALSE(seen[id]);
    seen[id] = true;
    ASSERT_EQ(s.Key(id), std::string_view(it->first));
    ASSERT_EQ(s.Value(id), std::string_view(it->second));
    if (i > 0) {
      ASSERT_LT(s.KeyAt(i - 1), s.KeyAt(i));
    }
  }

  if (direct_pos) {
    // by_hash is a permutation in (hash, key) order, each entry carries its
    // slot's tag, and each slot's cached hash is the key's hash.
    std::vector<bool> hseen(s.slots.size(), false);
    for (size_t i = 0; i < s.by_hash.size(); i++) {
      const uint16_t id = leafops::EntryId(s.by_hash[i]);
      ASSERT_LT(id, s.slots.size());
      ASSERT_FALSE(hseen[id]);
      hseen[id] = true;
      ASSERT_EQ(s.slots[id].hash, hash_of(s.Key(id)));
      ASSERT_EQ(s.by_hash[i] >> 16, s.slots[id].hash >> 16)
          << "entry " << i << " lost its tag";
      if (i > 0) {
        const uint16_t pid = leafops::EntryId(s.by_hash[i - 1]);
        const bool ordered =
            s.slots[pid].hash < s.slots[id].hash ||
            (s.slots[pid].hash == s.slots[id].hash && s.Key(pid) < s.Key(id));
        ASSERT_TRUE(ordered) << "by_hash out of order at " << i;
      }
    }
  }

  // FindSlot agrees with the oracle for every present key and for probes.
  for (const auto& [key, value] : oracle) {
    const int slot = leafops::FindSlot(s, direct_pos, key, hash_of(key));
    ASSERT_GE(slot, 0) << key;
    ASSERT_EQ(s.Value(static_cast<uint16_t>(slot)), std::string_view(value));
  }
  const std::string absent = "\xff\xff-definitely-absent";
  ASSERT_EQ(leafops::FindSlot(s, direct_pos, absent, hash_of(absent)), -1);
}

// SpecFillWindow on a quiescent store copies exactly the oracle's rank range:
// forward [rank, rank + budget), backward the last `budget` ranks below rank,
// where rank is the first key (strict ? > : >=) bound, or the leaf edge in
// scan direction without a bound. budget 0 is unbounded. `win` is reused
// across calls, so stale entries from earlier, larger fills sit in its
// capacity.
void CheckSpecFillWindow(const LeafStore& s,
                         const std::map<std::string, std::string>& oracle,
                         const std::vector<std::string>& bounds,
                         leafops::FlatWindow* win) {
  const std::vector<std::pair<std::string, std::string>> items(oracle.begin(),
                                                               oracle.end());
  const size_t n = items.size();
  for (const bool forward : {true, false}) {
    for (const size_t budget : {size_t{0}, size_t{1}, size_t{7}}) {
      for (size_t b = 0; b <= bounds.size(); b++) {
        const bool has_bound = b < bounds.size();
        const std::string bound = has_bound ? bounds[b] : std::string();
        for (const bool strict : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "forward=" << forward << " budget=" << budget
                       << " bound=" << (has_bound ? bound : "<none>")
                       << " strict=" << strict);
          size_t rank = forward ? 0 : n;
          if (has_bound) {
            const auto it = strict ? oracle.upper_bound(bound)
                                   : oracle.lower_bound(bound);
            rank = static_cast<size_t>(std::distance(oracle.begin(), it));
          }
          size_t lo = rank;
          size_t hi = rank;
          if (forward) {
            hi = budget == 0 ? n : std::min(n, rank + budget);
          } else {
            lo = budget == 0 || rank <= budget ? 0 : rank - budget;
          }
          const leafops::SpecWindow w = leafops::SpecFillWindow(
              s, forward, has_bound, bound, strict, budget, win);
          ASSERT_TRUE(w.ok);
          ASSERT_EQ(w.n, n);
          ASSERT_EQ(w.lo, lo);
          ASSERT_EQ(w.hi, hi);
          ASSERT_EQ(win->size(), hi - lo);
          for (size_t i = 0; i < hi - lo; i++) {
            ASSERT_EQ(win->KeyAt(i), std::string_view(items[lo + i].first));
            ASSERT_EQ(win->ValueAt(i), std::string_view(items[lo + i].second));
          }
        }
      }
    }
  }
}

std::string RandomValue(Rng& rng) {
  // Lengths 0..(3*kInlineValue): below, at, and well past the inline cutoff.
  const size_t len = rng.NextBounded(3 * kInlineValue + 1);
  std::string v;
  for (size_t i = 0; i < len; i++) {
    v.push_back(static_cast<char>('a' + rng.NextBounded(26)));
  }
  return v;
}

// The resumable SpecProbe driven the way Wormhole::MultiGet drives it: a
// group of 4-8 probes started together and advanced round-robin, one call
// each per round, on the quiescent store. Every verdict and value must
// match FindSlot and the oracle — for present keys, pool keys currently
// absent, and keys never inserted.
void CheckSpecProbes(const LeafStore& s, bool direct_pos,
                     const std::map<std::string, std::string>& oracle,
                     const std::vector<std::string>& keys, Rng& rng,
                     HashFn hash_of = FullHash) {
  const size_t g = 4 + rng.NextBounded(5);
  std::vector<std::string_view> group(g);
  std::vector<leafops::SpecProbe> probes(g);
  for (size_t i = 0; i < g; i++) {
    group[i] = keys[rng.NextBounded(keys.size())];
    probes[i].Start(s, direct_pos, hash_of(group[i]), /*plain_mode=*/false);
    probes[i].WarmIndex();
  }
  for (const auto& p : probes) {
    p.Prime();
  }
  for (bool more = true; more;) {
    more = false;
    for (size_t i = 0; i < g; i++) {
      if (!probes[i].done()) {
        probes[i].Step(group[i], hash_of(group[i]));
        probes[i].Prime();
        more = true;
      }
    }
  }
  for (size_t i = 0; i < g; i++) {
    SCOPED_TRACE(std::string(group[i]));
    std::string value;
    const leafops::SpecRead r = probes[i].Finish(&value);
    const int slot =
        leafops::FindSlot(s, direct_pos, group[i], hash_of(group[i]));
    const auto it = oracle.find(std::string(group[i]));
    ASSERT_EQ(slot >= 0, it != oracle.end());
    std::string serial;  // the serial driver of the same probe
    ASSERT_EQ(leafops::SpecFind(s, direct_pos, group[i], hash_of(group[i]),
                                &serial, /*plain=*/false),
              r);
    if (slot < 0) {
      ASSERT_EQ(r, leafops::SpecRead::kAbsent);
      continue;
    }
    ASSERT_EQ(r, leafops::SpecRead::kFound);
    ASSERT_EQ(value, it->second);
    ASSERT_EQ(value, s.Value(static_cast<uint16_t>(slot)));
    ASSERT_EQ(serial, value);
  }
}

// PutProbe driven the way Wormhole::MultiPut's pre-search drives it (a
// round-robin group in speculative mode, on the quiescent store) lands
// where the locked search Locate does: a present key's slot, or an absent
// key's by_key rank — the oracle's count of smaller keys — and by_hash
// position.
void CheckPutProbes(const LeafStore& s, bool direct_pos,
                    const std::map<std::string, std::string>& oracle,
                    const std::vector<std::string>& keys, Rng& rng) {
  const size_t g = 4 + rng.NextBounded(5);
  std::vector<std::string_view> group(g);
  std::vector<leafops::PutProbe> probes(g);
  for (size_t i = 0; i < g; i++) {
    group[i] = keys[rng.NextBounded(keys.size())];
    probes[i].Start(s, direct_pos, FullHash(group[i]), /*plain_mode=*/false);
    probes[i].WarmIndex();
  }
  for (const auto& p : probes) {
    p.Prime();
  }
  for (bool more = true; more;) {
    more = false;
    for (size_t i = 0; i < g; i++) {
      if (!probes[i].done()) {
        probes[i].Step(group[i], FullHash(group[i]));
        probes[i].Prime();
        more = true;
      }
    }
  }
  for (size_t i = 0; i < g; i++) {
    SCOPED_TRACE(std::string(group[i]));
    ASSERT_FALSE(probes[i].bad());
    const leafops::SlotPos got = probes[i].Pos();
    const leafops::SlotPos want =
        leafops::Locate(s, direct_pos, group[i], FullHash(group[i]));
    const auto it = oracle.lower_bound(std::string(group[i]));
    ASSERT_EQ(got.slot, want.slot);
    ASSERT_EQ(got.slot >= 0, it != oracle.end() && it->first == group[i]);
    if (got.slot < 0) {
      ASSERT_EQ(got.key_pos,
                static_cast<size_t>(std::distance(oracle.begin(), it)));
      ASSERT_EQ(got.key_pos, want.key_pos);
      if (direct_pos) {
        ASSERT_EQ(got.hash_pos, want.hash_pos);
      }
    }
  }
}

void RunRandomized(bool direct_pos, uint64_t seed) {
  SCOPED_TRACE(std::string("direct_pos=") + (direct_pos ? "on" : "off"));
  Rng rng(seed);
  LeafStore store;
  std::map<std::string, std::string> oracle;
  // A small closed key universe maximizes update/erase/reinsert collisions.
  std::vector<std::string> pool;
  for (int i = 0; i < 64; i++) {
    pool.push_back("key-" + std::to_string(rng.NextBounded(1000)) + "-" +
                   std::to_string(i));
  }

  // Window bounds: two pool keys (present or not, depending on the step),
  // keys between and beyond every pool key, and the empty key.
  const std::vector<std::string> bounds = {pool[0], pool[17], "key-5",
                                           "key-", "zzz", ""};
  leafops::FlatWindow win;
  // Probe keys: the pool plus keys never inserted (a prefix, an extension,
  // and keys ordering before and after every pool key).
  std::vector<std::string> probe_keys = pool;
  for (const char* k : {"", "key-", "key-5", "zzz"}) {
    probe_keys.push_back(k);
  }
  probe_keys.push_back(pool[3] + "~");
  probe_keys.push_back(pool[9].substr(0, pool[9].size() - 1));
  Rng probe_rng(seed ^ 0x9e3779b9u);  // keeps the op stream unchanged

  for (int op = 0; op < 4000; op++) {
    const std::string& key = pool[rng.NextBounded(pool.size())];
    const uint64_t roll = rng.NextBounded(100);
    const leafops::SlotPos at =
        leafops::Locate(store, direct_pos, key, FullHash(key));
    const int slot = at.slot;
    ASSERT_EQ(slot >= 0, oracle.count(key) == 1) << "op " << op;
    if (roll < 45) {  // upsert
      const std::string value = RandomValue(rng);
      if (slot >= 0) {
        leafops::UpdateValue(&store, static_cast<uint16_t>(slot), value);
      } else {
        leafops::Insert(&store, direct_pos, key, value, FullHash(key), at);
      }
      oracle[key] = value;
    } else if (roll < 75) {  // erase
      if (slot >= 0) {
        leafops::Erase(&store, direct_pos, static_cast<uint16_t>(slot));
        oracle.erase(key);
      }
    } else if (roll < 85) {  // bulk-rebuild (the split path's index refresh)
      leafops::RebuildIndexes(&store, direct_pos);
    } else if (roll < 90) {  // forced compaction
      leafops::Compact(&store);
      ASSERT_EQ(store.dead, 0u);
    }
    if (op % 97 == 0 || op == 3999) {
      CheckStore(store, direct_pos, oracle);
      CheckSpecFillWindow(store, oracle, bounds, &win);
      for (int round = 0; round < 4; round++) {
        CheckSpecProbes(store, direct_pos, oracle, probe_keys, probe_rng);
        CheckPutProbes(store, direct_pos, oracle, probe_keys, probe_rng);
      }
    }
  }
  CheckStore(store, direct_pos, oracle);
  CheckSpecFillWindow(store, oracle, bounds, &win);
  CheckSpecProbes(store, direct_pos, oracle, probe_keys, probe_rng);
  CheckPutProbes(store, direct_pos, oracle, probe_keys, probe_rng);
}

TEST(LeafOps, RandomizedAgainstOracleDirectPos) { RunRandomized(true, 0xfeedu); }

TEST(LeafOps, RandomizedAgainstOracleNoDirectPos) {
  RunRandomized(false, 0xbeefu);
}

// Degenerate hashes for the DirectPos tag-run search, each a fixed function
// of the key, so absent keys probe the same runs as present ones.
uint32_t SameTag(std::string_view key) {  // one tag run of length n
  return 0x5a5a0000u | (FullHash(key) & 0xffffu);
}
uint32_t SameHash(std::string_view) {  // one equal-hash run, in key order
  return 0x5a5a5a5au;
}
uint32_t EdgeTags(std::string_view key) {  // tags 0x0000 and 0xffff only
  const uint32_t h = FullHash(key);
  return ((h & 0x10000u) != 0 ? 0xffff0000u : 0u) | (h & 0xffffu);
}

// Grows a DirectPos store one key at a time to n_max keys, rebuilds its
// indexes, then erases it back to empty in random order. After every step
// the store invariants hold, and FindSlot, serial SpecFind and the
// round-robin SpecProbe agree with the oracle on present and absent keys —
// so leaves of n = 0 and n = 1 are covered on the way up and down.
void RunTagRuns(HashFn hash_of, size_t n_max, uint64_t seed) {
  Rng rng(seed);
  LeafStore s;
  std::map<std::string, std::string> oracle;
  std::vector<std::string> keys;
  for (size_t i = 0; i < n_max; i++) {
    keys.push_back("tag-" + std::to_string(rng.NextBounded(1000000)) + "-" +
                   std::to_string(i));
  }
  std::vector<std::string> probe_keys = keys;
  for (const char* k : {"", "tag-", "tag-5", "zzz"}) {
    probe_keys.push_back(k);
  }
  Rng probe_rng(seed + 1);
  const auto check = [&] {
    ASSERT_NO_FATAL_FAILURE(CheckStore(s, true, oracle, hash_of));
    for (const std::string& k : probe_keys) {
      const auto it = oracle.find(k);
      std::string value;
      const leafops::SpecRead r =
          leafops::SpecFind(s, true, k, hash_of(k), &value, /*plain=*/false);
      ASSERT_EQ(r, it == oracle.end() ? leafops::SpecRead::kAbsent
                                      : leafops::SpecRead::kFound)
          << k;
      ASSERT_EQ(leafops::FindSlot(s, true, k, hash_of(k)) >= 0,
                it != oracle.end())
          << k;
      if (it != oracle.end()) {
        ASSERT_EQ(value, it->second) << k;
      }
    }
    for (int round = 0; round < 2; round++) {
      ASSERT_NO_FATAL_FAILURE(
          CheckSpecProbes(s, true, oracle, probe_keys, probe_rng, hash_of));
    }
  };
  ASSERT_NO_FATAL_FAILURE(check());
  for (const std::string& k : keys) {
    // The rebuild check below proves every handed-over splice position.
    const std::string v = RandomValue(rng);
    ASSERT_NO_FATAL_FAILURE(InsertAbsent(&s, true, k, v, hash_of(k)));
    oracle[k] = v;
    ASSERT_NO_FATAL_FAILURE(check()) << "after inserting " << k;
  }
  // Insert's splices and a full rebuild agree entry for entry.
  const std::vector<uint32_t> spliced(s.by_hash.begin(), s.by_hash.end());
  leafops::RebuildIndexes(&s, true);
  ASSERT_EQ(std::vector<uint32_t>(s.by_hash.begin(), s.by_hash.end()),
            spliced);
  for (size_t i = keys.size(); i > 1; i--) {
    std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
  }
  for (const std::string& k : keys) {
    const int slot = leafops::FindSlot(s, true, k, hash_of(k));
    ASSERT_GE(slot, 0) << k;
    leafops::Erase(&s, true, static_cast<uint16_t>(slot));
    oracle.erase(k);
    ASSERT_NO_FATAL_FAILURE(check()) << "after erasing " << k;
  }
}

TEST(LeafOps, TagRunAllKeysOneTag) { RunTagRuns(SameTag, 130, 1); }

TEST(LeafOps, TagRunAllKeysOneHash) { RunTagRuns(SameHash, 130, 2); }

TEST(LeafOps, TagRunEdgeTagsOnly) { RunTagRuns(EdgeTags, 130, 3); }

TEST(LeafOps, TagRunTinyLeaves) {
  for (const size_t n : {size_t{1}, size_t{2}}) {
    RunTagRuns(FullHash, n, 4 + n);
    RunTagRuns(EdgeTags, n, 6 + n);
  }
}

// Erase moves the last slot into the erased id; the moved slot's by_hash
// entry must keep its own tag, not take the erased slot's or lose it.
uint32_t PinnedHash(std::string_view key) {
  return key == "a" ? 0x00000001u : key == "b" ? 0x7fff0002u : 0xffff0003u;
}

TEST(LeafOps, EraseKeepsMovedEntryTag) {
  LeafStore s;
  std::map<std::string, std::string> oracle;
  for (const char* k : {"a", "b", "c"}) {
    InsertAbsent(&s, true, k, k, PinnedHash(k));
    oracle[k] = k;
  }
  ASSERT_EQ(leafops::FindSlot(s, true, "a", PinnedHash("a")), 0);
  leafops::Erase(&s, true, 0);  // slot 2 ("c", tag 0xffff) moves to id 0
  oracle.erase("a");
  ASSERT_EQ(s.by_hash[1], 0xffff0000u);
  CheckStore(s, true, oracle, PinnedHash);
  std::string value;
  ASSERT_EQ(leafops::SpecFind(s, true, "c", PinnedHash("c"), &value,
                              /*plain=*/false),
            leafops::SpecRead::kFound);
  ASSERT_EQ(value, "c");
}

TEST(LeafOps, SplitTailPartitionsAndCompacts) {
  for (const bool direct_pos : {true, false}) {
    SCOPED_TRACE(direct_pos);
    Rng rng(11);
    LeafStore left;
    std::map<std::string, std::string> oracle;
    for (int i = 0; i < 101; i++) {
      const std::string key = "split-" + std::to_string(rng.NextBounded(100000));
      const std::string value = RandomValue(rng);
      if (leafops::FindSlot(left, direct_pos, key, FullHash(key)) < 0) {
        InsertAbsent(&left, direct_pos, key, value, FullHash(key));
        oracle[key] = value;
      }
    }
    // A few erases so the pre-split store carries dead bytes SplitTail must
    // not copy.
    for (int i = 0; i < 10; i++) {
      const uint16_t id = left.by_key[rng.NextBounded(left.size())];
      oracle.erase(std::string(left.Key(id)));
      leafops::Erase(&left, direct_pos, id);
    }
    const size_t si = leafops::ChooseSplitIndex(left, false);
    const std::string pivot(left.KeyAt(si));

    LeafStore right;
    leafops::SplitTail(&left, &right, si, direct_pos);
    ASSERT_EQ(left.dead, 0u);
    ASSERT_EQ(right.dead, 0u);
    std::map<std::string, std::string> lo(oracle.begin(), oracle.find(pivot));
    std::map<std::string, std::string> hi(oracle.find(pivot), oracle.end());
    CheckStore(left, direct_pos, lo);
    CheckStore(right, direct_pos, hi);
    ASSERT_LT(left.KeyAt(left.size() - 1), std::string_view(pivot));
    ASSERT_EQ(right.KeyAt(0), std::string_view(pivot));
  }
}

TEST(LeafOps, UpdateValueTransitionsAndDeadAccounting) {
  LeafStore s;
  const std::string key = "the-key";
  const std::string small(kInlineValue, 's');
  const std::string big(4 * kInlineValue, 'b');
  const std::string bigger(8 * kInlineValue, 'B');
  InsertAbsent(&s, true, key, small, FullHash(key));
  const size_t key_bytes = s.slab.size();
  ASSERT_EQ(key_bytes, key.size());  // inline value wrote nothing to the slab

  const auto slot0 = static_cast<uint16_t>(leafops::FindSlot(s, true, key, FullHash(key)));
  leafops::UpdateValue(&s, slot0, big);  // inline -> out-of-line
  ASSERT_EQ(s.Value(slot0), std::string_view(big));
  ASSERT_EQ(s.slab.size(), key_bytes + big.size());
  ASSERT_EQ(s.dead, 0u);

  leafops::UpdateValue(&s, slot0, bigger);  // relocate: old span goes dead
  ASSERT_EQ(s.Value(slot0), std::string_view(bigger));
  ASSERT_EQ(s.dead, big.size());

  // A shrink relocates too (the view invariant): the whole old span goes
  // dead, and the new bytes land past the live end.
  const std::string shrunk(2 * kInlineValue, 'c');
  const size_t live_end = s.slab.size();
  leafops::UpdateValue(&s, slot0, shrunk);
  ASSERT_EQ(s.Value(slot0), std::string_view(shrunk));
  ASSERT_EQ(s.dead, big.size() + bigger.size());
  ASSERT_EQ(s.slab.size(), live_end + shrunk.size());

  leafops::UpdateValue(&s, slot0, small);  // out-of-line -> inline
  ASSERT_EQ(s.Value(slot0), std::string_view(small));

  leafops::Compact(&s);
  ASSERT_EQ(s.dead, 0u);
  ASSERT_EQ(s.slab.size(), key.size());
  ASSERT_EQ(s.Key(slot0), std::string_view(key));
  ASSERT_EQ(s.Value(slot0), std::string_view(small));
}

// Heavy churn on out-of-line values must trigger compaction via MaybeCompact
// (through UpdateValue/Erase) and keep the slab bounded rather than growing
// with the total bytes ever written.
TEST(LeafOps, ChurnKeepsSlabBounded) {
  LeafStore s;
  Rng rng(99);
  std::vector<std::string> keys;
  for (int i = 0; i < 32; i++) {
    keys.push_back("churn-" + std::to_string(i));
    InsertAbsent(&s, true, keys.back(), std::string(32, 'x'),
                 FullHash(keys.back()));
  }
  uint64_t live = 0;
  for (const uint16_t id : s.by_key) {
    live += s.slots[id].klen + s.slots[id].vlen;
  }
  for (int round = 0; round < 2000; round++) {
    const std::string& key = keys[rng.NextBounded(keys.size())];
    const int slot = leafops::FindSlot(s, true, key, FullHash(key));
    ASSERT_GE(slot, 0);
    leafops::UpdateValue(&s, static_cast<uint16_t>(slot),
                         std::string(32 + rng.NextBounded(32), 'y'));
  }
  // The slab may carry dead bytes up to the compaction threshold plus growth
  // headroom, but never the ~64 KB this churn wrote in total.
  ASSERT_LE(s.slab.size(), 4 * (live + 32 * 64));
  ASSERT_LE(s.dead, s.slab.size());
}

// --- MetaTrieHT bucket chains ------------------------------------------------

struct TestNode {
  int id;
};
using Line = metabucket::BucketLine<TestNode>;
using Entry = std::pair<uint16_t, TestNode*>;
constexpr int kLineEntries = Line::kEntries;

std::vector<Entry> Entries(const Line* head) {
  std::vector<Entry> out;
  metabucket::ForEach(head, [&](uint16_t tag, TestNode* nd) { out.emplace_back(tag, nd); });
  return out;
}

std::vector<int> LineCounts(const Line* head) {
  std::vector<int> out;
  for (; head != nullptr; head = head->next) {
    out.push_back(head->count);
  }
  return out;
}

// The packed shape of n entries: every line full but the last.
std::vector<int> PackedCounts(size_t n) {
  std::vector<int> out(n / kLineEntries, kLineEntries);
  if (n % kLineEntries != 0) {
    out.push_back(static_cast<int>(n % kLineEntries));
  }
  return out;
}

// Replaces *head with its rebuild, freeing the old chain as table growth does.
void Replace(Line** head, const TestNode* drop, uint16_t tag, TestNode* add,
             bool sorted) {
  Line* old = *head;
  *head = metabucket::Rebuild(old, drop, tag, add, sorted);
  metabucket::FreeChain(old);
}

// The model's add: after every entry whose tag is <= tag when sorted, else last.
void ModelAdd(std::vector<Entry>* model, uint16_t tag, TestNode* nd, bool sorted) {
  auto at = model->end();
  if (sorted) {
    at = std::upper_bound(model->begin(), model->end(), tag,
                          [](uint16_t t, const Entry& e) { return t < e.first; });
  }
  model->insert(at, Entry(tag, nd));
}

// Every entry is found with and without tag matching; `absent` is not.
void ExpectFinds(const Line* head, bool sorted, const std::vector<Entry>& model,
                 const TestNode* absent) {
  for (const bool tag_matching : {false, true}) {
    for (const auto& [tag, nd] : model) {
      EXPECT_EQ(metabucket::Find(head, tag, tag_matching, sorted,
                                 [nd = nd](const TestNode* c) { return c == nd; }),
                nd)
          << "node " << nd->id << " tag_matching " << tag_matching;
    }
    for (const uint16_t tag : {uint16_t{0}, uint16_t{150}, uint16_t{0xffff}}) {
      EXPECT_EQ(metabucket::Find(head, tag, tag_matching, sorted,
                                 [absent](const TestNode* c) { return c == absent; }),
                nullptr);
    }
  }
  // With tag matching, a tag no entry carries misses whatever the pred says.
  EXPECT_EQ(metabucket::Find(head, 150, true, sorted, [](const TestNode*) { return true; }),
            nullptr);
}

TEST(MetaBucket, TwentyAddsPackIntoThreeLines) {
  const uint16_t kTags[3] = {300, 100, 200};
  std::vector<TestNode> nodes(20);
  for (const bool sorted : {false, true}) {
    SCOPED_TRACE(sorted ? "sorted" : "add order");
    Line* head = nullptr;
    for (size_t i = 0; i < nodes.size(); i++) {
      nodes[i].id = static_cast<int>(i);
      Replace(&head, nullptr, kTags[i % 3], &nodes[i], sorted);
    }
    EXPECT_EQ(LineCounts(head), (std::vector<int>{8, 8, 4}));
    const std::vector<Entry> got = Entries(head);
    ASSERT_EQ(got.size(), nodes.size());
    if (sorted) {
      for (size_t i = 1; i < got.size(); i++) {
        ASSERT_LE(got[i - 1].first, got[i].first) << i;
        if (got[i - 1].first == got[i].first) {
          EXPECT_LT(got[i - 1].second->id, got[i].second->id) << i;  // add order
        }
      }
    } else {
      for (size_t i = 0; i < got.size(); i++) {
        EXPECT_EQ(got[i], Entry(kTags[i % 3], &nodes[i])) << i;
      }
    }
    metabucket::FreeChain(head);
  }
}

TEST(MetaBucket, FindHitsEveryNodeAndMissesAnAbsentOne) {
  std::vector<TestNode> nodes(20);
  for (const bool sorted : {false, true}) {
    SCOPED_TRACE(sorted ? "sorted" : "add order");
    Line* head = nullptr;
    for (size_t i = 0; i < nodes.size(); i++) {
      nodes[i].id = static_cast<int>(i);
      Replace(&head, nullptr, static_cast<uint16_t>(100 * (i % 3 + 1)), &nodes[i],
              sorted);
    }
    TestNode absent{-1};
    ExpectFinds(head, sorted, Entries(head), &absent);
    metabucket::FreeChain(head);
  }
}

TEST(MetaBucket, DropsRepackDownToNull) {
  std::vector<TestNode> nodes(20);
  for (const bool sorted : {false, true}) {
    SCOPED_TRACE(sorted ? "sorted" : "add order");
    Line* head = nullptr;
    std::vector<Entry> model;
    for (size_t i = 0; i < nodes.size(); i++) {
      nodes[i].id = static_cast<int>(i);
      const uint16_t tag = static_cast<uint16_t>(i % 4);
      Replace(&head, nullptr, tag, &nodes[i], sorted);
      ModelAdd(&model, tag, &nodes[i], sorted);
    }
    ASSERT_EQ(LineCounts(head).size(), 3u);
    // Drop the fourth entry while there is one, so every drop shifts the
    // entries of every later line back across a line boundary.
    Rng rng(7);
    while (!model.empty()) {
      const size_t at = model.size() > 3 ? 3 : rng.NextBounded(model.size());
      Replace(&head, model[at].second, 0, nullptr, sorted);
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(at));
      ASSERT_EQ(LineCounts(head), PackedCounts(model.size()));
      ASSERT_EQ(Entries(head), model);
    }
    EXPECT_EQ(head, nullptr);
  }
}

TEST(MetaBucket, RandomAddsAndDropsMatchAVectorModel) {
  std::vector<TestNode> nodes(48);
  for (size_t i = 0; i < nodes.size(); i++) {
    nodes[i].id = static_cast<int>(i);
  }
  for (const bool sorted : {false, true}) {
    SCOPED_TRACE(sorted ? "sorted" : "add order");
    Rng rng(0xb0c4e7 + sorted);
    Line* head = nullptr;
    std::vector<Entry> model;
    std::vector<bool> present(nodes.size(), false);
    for (int step = 0; step < 3000; step++) {
      TestNode* nd = &nodes[rng.NextBounded(nodes.size())];
      if (present[nd->id]) {
        Replace(&head, nd, 0, nullptr, sorted);
        model.erase(std::find_if(model.begin(), model.end(),
                                 [nd](const Entry& e) { return e.second == nd; }));
      } else {
        // Few distinct tags, so equal-tag runs span lines.
        const uint16_t tag = static_cast<uint16_t>(rng.NextBounded(5) * 1000);
        Replace(&head, nullptr, tag, nd, sorted);
        ModelAdd(&model, tag, nd, sorted);
      }
      present[nd->id] = !present[nd->id];
      ASSERT_EQ(Entries(head), model) << "step " << step;
      ASSERT_EQ(LineCounts(head), PackedCounts(model.size())) << "step " << step;
      if (step % 100 == 0) {
        TestNode absent{-1};
        ExpectFinds(head, sorted, model, &absent);
      }
    }
    metabucket::FreeChain(head);
  }
}

}  // namespace
}  // namespace wh
