// Differential correctness: every index the bench factory can construct is run
// against a std::map oracle over randomized Put/Get/Delete/Scan sequences on
// keys drawn from each keyset family. Ordered indexes must agree with the
// oracle on scan order, inclusive-start boundary semantics, and early-stop
// callback behavior; the unordered cuckoo table is checked on point ops only.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "src/common/rng.h"
#include "src/core/wormhole.h"
#include "src/workload/keysets.h"

namespace wh {
namespace {

// Every name MakeIndex accepts (mirrors bench/common.h).
const char* kAllIndexNames[] = {
    "SkipList",       "B+tree",        "ART",           "Masstree",
    "Wormhole",       "Wormhole-unsafe", "Cuckoo",
    "Wormhole[base]", "Wormhole[+tm]", "Wormhole[+ih]", "Wormhole[+st]",
    "Wormhole[+dp]",  "Wormhole[+split]",
};

bool IsOrdered(const std::string& name) { return name != "Cuckoo"; }

using Oracle = std::map<std::string, std::string>;
using Pairs = std::vector<std::pair<std::string, std::string>>;

Pairs OracleScan(const Oracle& oracle, const std::string& start, size_t count) {
  Pairs out;
  for (auto it = oracle.lower_bound(start); it != oracle.end() && out.size() < count;
       ++it) {
    out.emplace_back(it->first, it->second);
  }
  return out;
}

Pairs IndexScan(IndexIface* index, const std::string& start, size_t count,
                size_t* invocations) {
  Pairs out;
  *invocations = index->Scan(start, count, [&](std::string_view k, std::string_view v) {
    out.emplace_back(std::string(k), std::string(v));
    return true;
  });
  return out;
}

// Mutates a pool key into a likely-absent probe (prefix/extension probes hit
// the interesting anchor-boundary paths in Wormhole and ART).
std::string MutateKey(Rng& rng, const std::string& key) {
  std::string k = key;
  switch (rng.NextBounded(3)) {
    case 0:
      k.resize(k.size() / 2 + 1);  // proper prefix of a real key
      break;
    case 1:
      k.push_back('~');  // extension past a real key
      break;
    default:
      if (!k.empty()) {
        k[k.size() / 2] = '!';  // diverge in the middle
      }
      break;
  }
  return k;
}

void RunDifferential(const std::string& name, const std::vector<std::string>& pool,
                     uint64_t seed) {
  SCOPED_TRACE("index=" + name);
  auto index = MakeIndex(name);
  Oracle oracle;
  Rng rng(seed);
  uint64_t value_counter = 0;

  const auto pick_key = [&]() -> std::string {
    const std::string& base = pool[rng.NextBounded(pool.size())];
    return rng.NextBounded(5) == 0 ? MutateKey(rng, base) : base;
  };

  const size_t kOps = 4000;
  for (size_t op = 0; op < kOps; op++) {
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 40) {  // Put
      const std::string key = pick_key();
      const std::string value = "v" + std::to_string(value_counter++);
      index->Put(key, value);
      oracle[key] = value;
    } else if (roll < 65) {  // Get
      const std::string key = pick_key();
      std::string got;
      const bool found = index->Get(key, &got);
      const auto it = oracle.find(key);
      ASSERT_EQ(found, it != oracle.end())
          << "Get mismatch, op " << op << " key " << key;
      if (found) {
        ASSERT_EQ(got, it->second) << "Get value mismatch, op " << op;
      }
    } else if (roll < 85) {  // Delete
      const std::string key = pick_key();
      const bool deleted = index->Delete(key);
      ASSERT_EQ(deleted, oracle.erase(key) > 0)
          << "Delete mismatch, op " << op << " key " << key;
    } else if (IsOrdered(name)) {  // Scan
      const std::string start = pick_key();
      const size_t count = 1 + rng.NextBounded(50);
      size_t invocations = 0;
      const Pairs got = IndexScan(index.get(), start, count, &invocations);
      const Pairs want = OracleScan(oracle, start, count);
      ASSERT_EQ(got, want) << "Scan mismatch, op " << op << " start " << start
                           << " count " << count;
      ASSERT_EQ(invocations, want.size()) << "Scan return count, op " << op;
    }
  }

  // Final sweep: full agreement on every key still in the oracle.
  std::string got;
  for (const auto& [key, value] : oracle) {
    ASSERT_TRUE(index->Get(key, &got)) << "missing key " << key;
    ASSERT_EQ(got, value);
  }
  if (IsOrdered(name)) {
    const Pairs got_all = [&] {
      size_t inv;
      return IndexScan(index.get(), "", oracle.size() + 10, &inv);
    }();
    const Pairs want_all = OracleScan(oracle, "", oracle.size() + 10);
    ASSERT_EQ(got_all, want_all) << "full-scan mismatch";
  }
}

TEST(IndexCorrectness, DifferentialAgainstOracle) {
  struct Family {
    KeysetId id;
    size_t count;
  };
  const Family families[] = {
      {KeysetId::kAz1, 1200},
      {KeysetId::kUrl, 1200},
      {KeysetId::kK3, 1500},
      {KeysetId::kK6, 800},
  };
  for (const Family& family : families) {
    SCOPED_TRACE(std::string("keyset=") + KeysetName(family.id));
    const auto pool = GenerateKeyset({family.id, family.count, 7});
    for (const char* name : kAllIndexNames) {
      RunDifferential(name, pool, 0x9d2c5680u ^ static_cast<uint64_t>(family.id));
    }
  }
}

TEST(IndexCorrectness, ScanEarlyStopAndInclusiveStart) {
  for (const char* name : kAllIndexNames) {
    if (!IsOrdered(name)) {
      continue;
    }
    SCOPED_TRACE(std::string("index=") + name);
    auto index = MakeIndex(name);
    std::vector<std::string> keys;
    for (int i = 0; i < 500; i++) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "key%04d", i);
      keys.emplace_back(buf);
      index->Put(keys.back(), "val");
    }
    // Inclusive start on an existing key.
    std::vector<std::string> seen;
    size_t n = index->Scan("key0100", 3, [&](std::string_view k, std::string_view) {
      seen.emplace_back(k);
      return true;
    });
    ASSERT_EQ(n, 3u);
    ASSERT_EQ(seen, (std::vector<std::string>{"key0100", "key0101", "key0102"}));
    // Start between keys rounds up to the next one.
    seen.clear();
    n = index->Scan("key0100x", 2, [&](std::string_view k, std::string_view) {
      seen.emplace_back(k);
      return true;
    });
    ASSERT_EQ(n, 2u);
    ASSERT_EQ(seen, (std::vector<std::string>{"key0101", "key0102"}));
    // Early stop: the aborting invocation counts, nothing follows it.
    seen.clear();
    n = index->Scan("key0000", 100, [&](std::string_view k, std::string_view) {
      seen.emplace_back(k);
      return seen.size() < 5;
    });
    ASSERT_EQ(n, 5u);
    ASSERT_EQ(seen.size(), 5u);
    ASSERT_EQ(seen.back(), "key0004");
    // Past-the-end start yields nothing.
    n = index->Scan("zzz", 10, [&](std::string_view, std::string_view) { return true; });
    ASSERT_EQ(n, 0u);
  }
}

// Drain-and-refill exercises leaf removal / node shrink paths that the random
// mix rarely reaches (Wormhole empty-leaf unlink, ART node collapse).
TEST(IndexCorrectness, DrainAndRefill) {
  const auto pool = GenerateKeyset({KeysetId::kAz1, 800, 11});
  for (const char* name : kAllIndexNames) {
    SCOPED_TRACE(std::string("index=") + name);
    auto index = MakeIndex(name);
    for (const auto& k : pool) {
      index->Put(k, "one");
    }
    for (const auto& k : pool) {
      ASSERT_TRUE(index->Delete(k)) << k;
    }
    std::string got;
    for (const auto& k : pool) {
      ASSERT_FALSE(index->Get(k, &got)) << k;
      ASSERT_FALSE(index->Delete(k)) << k;
    }
    if (IsOrdered(name)) {
      ASSERT_EQ(index->Scan("", 10, [](std::string_view, std::string_view) {
        return true;
      }), 0u);
    }
    for (const auto& k : pool) {
      index->Put(k, "two");
    }
    for (const auto& k : pool) {
      ASSERT_TRUE(index->Get(k, &got)) << k;
      ASSERT_EQ(got, "two");
    }
  }
}

// Wormhole handles arbitrary bytes (NUL, 0xFF, empty keys) and the
// split_shortest_anchor heuristic; the printable random mix above never
// reaches either, so exercise them directly against the oracle. (ART is
// excluded by its documented NUL-terminator limitation.)
TEST(IndexCorrectness, WormholeBinaryKeysAndSplitHeuristic) {
  Rng key_rng(77);
  std::vector<std::string> pool;
  for (int i = 0; i < 1200; i++) {
    std::string k;
    const size_t len = key_rng.NextBounded(24);  // includes empty keys
    for (size_t j = 0; j < len; j++) {
      k.push_back(static_cast<char>(key_rng.NextBounded(256)));
    }
    pool.push_back(std::move(k));
  }
  Options split_opt;
  split_opt.split_shortest_anchor = true;
  split_opt.leaf_capacity = 8;  // force deep tries and frequent splits
  Options tiny_opt;
  tiny_opt.leaf_capacity = 8;
  const std::pair<const char*, Options> configs[] = {
      {"default", Options()},
      {"tiny-leaves", tiny_opt},
      {"split-heuristic", split_opt},
  };
  for (const auto& [label, opt] : configs) {
    SCOPED_TRACE(label);
    WormholeUnsafe index(opt);
    Oracle oracle;
    Rng rng(0xb1a2u);
    uint64_t vc = 0;
    for (int op = 0; op < 6000; op++) {
      const std::string& key = pool[rng.NextBounded(pool.size())];
      const uint64_t roll = rng.NextBounded(100);
      if (roll < 45) {
        const std::string value = "v" + std::to_string(vc++);
        index.Put(key, value);
        oracle[key] = value;
      } else if (roll < 70) {
        std::string got;
        const bool found = index.Get(key, &got);
        const auto it = oracle.find(key);
        ASSERT_EQ(found, it != oracle.end()) << "op " << op;
        if (found) {
          ASSERT_EQ(got, it->second);
        }
      } else if (roll < 90) {
        ASSERT_EQ(index.Delete(key), oracle.erase(key) > 0) << "op " << op;
      } else {
        Pairs got;
        index.Scan(key, 30, [&](std::string_view k, std::string_view v) {
          got.emplace_back(std::string(k), std::string(v));
          return true;
        });
        ASSERT_EQ(got, OracleScan(oracle, key, 30)) << "op " << op;
      }
    }
  }
}

// The probe/lookup statistics are a measurement aid; with count_probes off
// (the default) the read path must not touch the shared counters at all —
// cross-core traffic on them would skew exactly the figures (9, 10) that the
// counters exist to validate elsewhere.
TEST(IndexCorrectness, ProbeCountersAreGatedByOption) {
  const auto pool = GenerateKeyset({KeysetId::kK4, 500, 7});
  Options counting;
  counting.count_probes = true;

  WormholeUnsafe unsafe_off;
  WormholeUnsafe unsafe_on(counting);
  Wormhole safe_off;
  Wormhole safe_on(counting);
  std::string value;
  for (const auto& k : pool) {
    unsafe_off.Put(k, "v");
    unsafe_on.Put(k, "v");
    safe_off.Put(k, "v");
    safe_on.Put(k, "v");
  }
  for (const auto& k : pool) {
    unsafe_off.Get(k, &value);
    unsafe_on.Get(k, &value);
    safe_off.Get(k, &value);
    safe_on.Get(k, &value);
  }
  // The batched and the cursor routes are gated the same way.
  const std::vector<std::string_view> batch(pool.begin(), pool.end());
  std::vector<std::string> values;
  std::vector<uint8_t> hits;
  unsafe_off.MultiGet(batch, &values, &hits);
  safe_off.MultiGet(batch, &values, &hits);
  unsafe_off.NewCursor()->Seek(pool[0]);
  safe_off.NewCursor()->Seek(pool[0]);

  EXPECT_EQ(unsafe_off.stats().lookups, 0u);
  EXPECT_EQ(unsafe_off.stats().probes, 0u);
  EXPECT_EQ(safe_off.stats().lookups, 0u);
  EXPECT_EQ(safe_off.stats().probes, 0u);

  EXPECT_GE(unsafe_on.stats().lookups, pool.size());
  EXPECT_GT(unsafe_on.stats().probes, 0u);
  EXPECT_GE(safe_on.stats().lookups, pool.size());
  EXPECT_GT(safe_on.stats().probes, 0u);
}

// One core: Wormhole driven by a single thread and WormholeUnsafe run the
// same code under different sync policies, so they must be
// indistinguishable down to the probe statistics — same split moments, same
// routes, same leaf reads. Two separate implementations drift apart here
// first (different split rules show up as different probe counts). Batched
// reads alternate sides: one index answers with MultiGet, the other with
// serial Gets, so the final stats() equality also proves that MultiGet's
// pipelined routes count exactly what serial routes count.
template <typename Index>
Pairs CollectScan(Index* index, const std::string& start, size_t count) {
  Pairs out;
  index->Scan(start, count, [&](std::string_view k, std::string_view v) {
    out.emplace_back(std::string(k), std::string(v));
    return true;
  });
  return out;
}

TEST(IndexCorrectness, SingleThreadedWormholeMatchesWormholeUnsafe) {
  const auto pool = GenerateKeyset({KeysetId::kUrl, 3000, 11});
  for (const size_t capacity : {4u, 128u}) {
    SCOPED_TRACE("leaf_capacity=" + std::to_string(capacity));
    Options opt;
    opt.count_probes = true;
    opt.leaf_capacity = capacity;
    Wormhole safe(opt);
    WormholeUnsafe unsafe(opt);
    Rng rng(0x0c0e + capacity);
    uint64_t batches = 0;
    for (int op = 0; op < 20000; op++) {
      const std::string& key = pool[rng.NextBounded(pool.size())];
      const uint64_t roll = rng.NextBounded(100);
      if (roll < 45) {
        const std::string value = "value-" + std::to_string(op);
        safe.Put(key, value);
        unsafe.Put(key, value);
      } else if (roll < 65) {
        ASSERT_EQ(safe.Delete(key), unsafe.Delete(key)) << "op " << op;
      } else if (roll < 80) {
        std::string a;
        std::string b;
        const bool found = safe.Get(key, &a);
        ASSERT_EQ(found, unsafe.Get(key, &b)) << "op " << op;
        if (found) {
          ASSERT_EQ(a, b) << "op " << op;
        }
      } else if (roll < 90) {
        std::vector<std::string_view> batch(1, key);
        for (uint64_t i = rng.NextBounded(20); i > 0; i--) {
          batch.push_back(pool[rng.NextBounded(pool.size())]);
        }
        std::vector<std::string> values;
        std::vector<uint8_t> hits;
        const size_t found = ++batches % 2 == 0
                                 ? safe.MultiGet(batch, &values, &hits)
                                 : unsafe.MultiGet(batch, &values, &hits);
        size_t serial_found = 0;
        for (size_t i = 0; i < batch.size(); i++) {
          std::string v;
          const bool hit = batches % 2 == 0 ? unsafe.Get(batch[i], &v)
                                            : safe.Get(batch[i], &v);
          serial_found += hit ? 1 : 0;
          ASSERT_EQ(hits[i] != 0, hit) << "op " << op << " key " << batch[i];
          ASSERT_EQ(values[i], hit ? v : "") << "op " << op;
        }
        ASSERT_EQ(found, serial_found) << "op " << op;
      } else {
        const size_t count = 1 + rng.NextBounded(40);
        ASSERT_EQ(CollectScan(&safe, key, count),
                  CollectScan(&unsafe, key, count))
            << "op " << op;
      }
      ASSERT_EQ(safe.size(), unsafe.size()) << "op " << op;
    }
    EXPECT_EQ(CollectScan(&safe, "", pool.size()),
              CollectScan(&unsafe, "", pool.size()));
    EXPECT_GT(safe.stats().lookups, 0u);
    EXPECT_EQ(safe.stats().lookups, unsafe.stats().lookups);
    EXPECT_EQ(safe.stats().probes, unsafe.stats().probes);
  }
}

// The paper's central claim, exactly: a lookup binary-searches the prefix
// lengths 1..L of an L-byte key, at most ceil(log2(L + 1)) probes, then
// makes at most one child probe — whatever N is and whether anchors are
// long (zero-filled keys share all but their last 4 bytes) or short
// (random keys). Every Get counts one lookup, and a MultiGet batch counts
// one per key and at most its keys' bounds. Present and absent keys alike.
template <typename Index>
void CheckProbeBound(size_t len, bool zero_filled) {
  SCOPED_TRACE(testing::Message() << "L=" << len << " zero_filled=" << zero_filled);
  const auto keys = GenerateFixedLenKeyset(4000, len, zero_filled, 9);
  Options opt;
  opt.count_probes = true;
  Index index(opt);
  for (size_t i = 0; i < keys.size(); i += 2) {  // odd keys stay absent
    index.Put(keys[i], "v");
  }
  uint64_t log2_ceil = 0;
  while ((uint64_t{1} << log2_ceil) < len + 1) {
    log2_ceil++;
  }
  const uint64_t bound = log2_ceil + 1;
  std::string value;
  for (const auto& k : keys) {
    const WormholeStats before = index.stats();
    index.Get(k, &value);
    const WormholeStats after = index.stats();
    ASSERT_EQ(after.lookups - before.lookups, 1u) << "key " << k;
    ASSERT_LE(after.probes - before.probes, bound) << "key " << k;
  }
  std::vector<std::string> values;
  std::vector<uint8_t> hits;
  for (size_t base = 0; base < keys.size(); base += 37) {
    const size_t end = std::min(keys.size(), base + 37);
    const std::vector<std::string_view> batch(keys.begin() + base,
                                              keys.begin() + end);
    const WormholeStats before = index.stats();
    index.MultiGet(batch, &values, &hits);
    const WormholeStats after = index.stats();
    ASSERT_EQ(after.lookups - before.lookups, batch.size()) << "batch " << base;
    ASSERT_LE(after.probes - before.probes, bound * batch.size())
        << "batch " << base;
  }
}

// With optimistic_retries 0 every read starts locked, and the locked read
// routes the key itself: a 64-key MultiGet must count exactly what 64 serial
// Gets count, one route per key.
template <typename Index>
void CheckLockedBatchRoutesOnce() {
  const auto keys = GenerateFixedLenKeyset(4000, 64, false, 5);
  Options opt;
  opt.count_probes = true;
  opt.optimistic_retries = 0;
  Index index(opt);
  for (size_t i = 0; i < keys.size(); i += 2) {  // odd keys stay absent
    index.Put(keys[i], "v");
  }
  const std::vector<std::string_view> batch(keys.begin(), keys.begin() + 64);
  std::vector<std::string> values;
  std::vector<uint8_t> hits;
  const WormholeStats before = index.stats();
  index.MultiGet(batch, &values, &hits);
  const WormholeStats batched = index.stats();
  std::string value;
  for (const std::string_view k : batch) {
    index.Get(k, &value);
  }
  const WormholeStats serial = index.stats();
  ASSERT_EQ(batched.lookups - before.lookups, 64u);
  ASSERT_EQ(serial.lookups - batched.lookups, 64u);
  ASSERT_EQ(batched.probes - before.probes, serial.probes - batched.probes);
}

// PrefetchRoutes takes a key run of any length and routes each key once,
// exactly as a serial Get routes it: 37 keys span several route groups and
// end on a partial one.
template <typename Index>
void CheckPrefetchRoutesRoutesEachKeyOnce() {
  const auto keys = GenerateFixedLenKeyset(4000, 64, false, 7);
  Options opt;
  opt.count_probes = true;
  Index index(opt);
  for (size_t i = 0; i < keys.size(); i += 2) {  // odd keys stay absent
    index.Put(keys[i], "v");
  }
  const std::vector<std::string_view> run(keys.begin(), keys.begin() + 37);
  const WormholeStats before = index.stats();
  index.PrefetchRoutes(run.data(), run.size());
  const WormholeStats prefetched = index.stats();
  std::string value;
  for (const std::string_view k : run) {
    index.Get(k, &value);
  }
  const WormholeStats serial = index.stats();
  ASSERT_EQ(prefetched.lookups - before.lookups, run.size());
  ASSERT_EQ(serial.lookups - prefetched.lookups, run.size());
  ASSERT_EQ(prefetched.probes - before.probes, serial.probes - prefetched.probes);
}

TEST(IndexCorrectness, LookupProbesAreBoundedByLogKeyLength) {
  for (const size_t len : {8u, 64u, 512u}) {
    for (const bool zero_filled : {true, false}) {
      CheckProbeBound<Wormhole>(len, zero_filled);
      CheckProbeBound<WormholeUnsafe>(len, zero_filled);
    }
  }
  CheckLockedBatchRoutesOnce<Wormhole>();
  CheckLockedBatchRoutesOnce<WormholeUnsafe>();
}

TEST(IndexCorrectness, PrefetchRoutesTakesAnyRunLength) {
  CheckPrefetchRoutesRoutesEachKeyOnce<Wormhole>();
  CheckPrefetchRoutesRoutesEachKeyOnce<WormholeUnsafe>();
}

// Input bounds (wormhole.h): Put refuses a key of kMaxKeyBytes + 1 or a
// value of kMaxValueBytes + 1 and changes nothing; MultiPut applies the other
// items and reports the refusal. A key and a value of exactly the bound are
// accepted.
template <typename Index>
void CheckInputBounds() {
  Index index;
  const std::string key_at(kMaxKeyBytes, 'k');
  const std::string key_over(kMaxKeyBytes + 1, 'k');
  const std::string value_at(kMaxValueBytes, 'v');
  const std::string value_over(kMaxValueBytes + 1, 'v');
  std::string v;
  ASSERT_TRUE(index.Put("a", "1"));
  EXPECT_FALSE(index.Put(key_over, "x"));
  EXPECT_FALSE(index.Put("a", value_over));
  EXPECT_FALSE(index.Put("z", value_over));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_FALSE(index.Get(key_over, &v));
  EXPECT_FALSE(index.Get("z", &v));
  ASSERT_TRUE(index.Get("a", &v));
  EXPECT_EQ(v, "1");

  EXPECT_FALSE(index.MultiPut(
      {{"b", "2"}, {key_over, "x"}, {"a", value_over}, {"c", "3"}}));
  EXPECT_EQ(index.size(), 3u);
  EXPECT_FALSE(index.Get(key_over, &v));
  for (const auto& [key, value] : Pairs{{"a", "1"}, {"b", "2"}, {"c", "3"}}) {
    ASSERT_TRUE(index.Get(key, &v)) << key;
    EXPECT_EQ(v, value);
  }

  EXPECT_TRUE(index.Put(key_at, value_at));
  EXPECT_TRUE(index.MultiPut({{"d", value_at}}));
  EXPECT_EQ(index.size(), 5u);
  ASSERT_TRUE(index.Get(key_at, &v));
  EXPECT_EQ(v, value_at);
  ASSERT_TRUE(index.Get("d", &v));
  EXPECT_EQ(v, value_at);
}

TEST(IndexCorrectness, PutRefusesOversizedInput) {
  CheckInputBounds<Wormhole>();
  CheckInputBounds<WormholeUnsafe>();
}

TEST(IndexCorrectness, MemoryBytesIsPlausible) {
  const auto pool = GenerateKeyset({KeysetId::kK4, 2000, 3});
  uint64_t key_bytes = 0;
  for (const auto& k : pool) {
    key_bytes += k.size();
  }
  for (const char* name : kAllIndexNames) {
    SCOPED_TRACE(std::string("index=") + name);
    auto index = MakeIndex(name);
    const uint64_t empty = index->MemoryBytes();
    for (const auto& k : pool) {
      index->Put(k, "valuevalu");
    }
    // Loaded footprint must at least cover the raw key bytes and must have
    // grown from the empty footprint.
    ASSERT_GT(index->MemoryBytes(), empty);
    ASSERT_GE(index->MemoryBytes(), key_bytes);
  }
}

// Delete churn: after a load and the deletion of 90% of the keys, the
// survivors' footprint stays within `bound` times that of a fresh build of
// the survivors alone. Erase compacts a store that falls below a quarter of
// its slot capacity; without that, no leaf's slots or indexes ever shrank,
// and survivors cost 6.2x a fresh build on Az1 (8.9x on K3).
template <typename Index>
void CheckChurnFootprint(KeysetId id, double bound) {
  SCOPED_TRACE(std::string("keyset=") + KeysetName(id));
  const auto keys = GenerateKeyset({id, 50000, 29});
  Index churned;
  for (const auto& k : keys) {
    ASSERT_TRUE(churned.Put(k, "8bytes.."));
  }
  Rng rng(0xc0ffee);
  Index fresh;
  for (const auto& k : keys) {
    if (rng.NextBounded(10) == 0) {
      ASSERT_TRUE(fresh.Put(k, "8bytes.."));
    } else {
      ASSERT_TRUE(churned.Delete(k));
    }
  }
  ASSERT_EQ(churned.size(), fresh.size());
  const double ratio = static_cast<double>(churned.MemoryBytes()) /
                       static_cast<double>(fresh.MemoryBytes());
  EXPECT_LE(ratio, bound) << churned.MemoryBytes() / churned.size()
                          << " B/key against "
                          << fresh.MemoryBytes() / fresh.size() << " fresh";
}

TEST(IndexCorrectness, DeleteChurnShrinksFootprint) {
  CheckChurnFootprint<Wormhole>(KeysetId::kAz1, 3.0);
  CheckChurnFootprint<WormholeUnsafe>(KeysetId::kAz1, 3.0);
  CheckChurnFootprint<Wormhole>(KeysetId::kK3, 4.5);
  CheckChurnFootprint<WormholeUnsafe>(KeysetId::kK3, 4.5);
}

}  // namespace
}  // namespace wh
