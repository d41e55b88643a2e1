// Service-layer correctness: the Service must be observationally equivalent
// to one Wormhole. The differential test drives a Service with a one-range
// and a four-range router (boundaries from randomly sampled keys) against a
// single Wormhole reference with mixed Get/Put/Delete/Scan batches; the
// WAL-off contract tests pin that a whole batch applies in submission order
// whatever the router. Also covered: the core batch entry points
// (MultiGet/MultiPut vs their per-key forms), ShardRouter boundary
// selection, and a concurrent multi-client smoke.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/qsbr.h"
#include "src/common/rng.h"
#include "src/core/wormhole.h"
#include "src/server/service.h"
#include "src/server/shard_router.h"
#include "src/workload/keysets.h"

namespace wh {
namespace {

using Pairs = std::vector<std::pair<std::string, std::string>>;

Pairs WormholeScan(Wormhole* index, std::string_view start, size_t count) {
  Pairs out;
  index->Scan(start, count, [&](std::string_view k, std::string_view v) {
    out.emplace_back(std::string(k), std::string(v));
    return true;
  });
  return out;
}

// Reverse oracle: descending from `start` (inclusive) via a cursor.
Pairs WormholeScanRev(Wormhole* index, std::string_view start, size_t count) {
  Pairs out;
  auto c = index->NewCursor();
  for (c->SeekForPrev(start); c->Valid() && out.size() < count; c->Prev()) {
    out.emplace_back(std::string(c->key()), std::string(c->value()));
  }
  return out;
}

TEST(ShardRouter, ExplicitBoundaries) {
  const ShardRouter router({"g", "p"});
  EXPECT_EQ(router.shard_count(), 3u);
  EXPECT_EQ(router.ShardOf(""), 0u);
  EXPECT_EQ(router.ShardOf("a"), 0u);
  EXPECT_EQ(router.ShardOf("fzzz"), 0u);
  EXPECT_EQ(router.ShardOf("g"), 1u);  // boundary belongs to the upper shard
  EXPECT_EQ(router.ShardOf("gz"), 1u);
  EXPECT_EQ(router.ShardOf("ozzz"), 1u);
  EXPECT_EQ(router.ShardOf("p"), 2u);
  EXPECT_EQ(router.ShardOf("zzzz"), 2u);
}

TEST(ShardRouter, SingleShardRoutesEverythingToZero) {
  const ShardRouter router({});
  EXPECT_EQ(router.shard_count(), 1u);
  EXPECT_EQ(router.ShardOf(""), 0u);
  EXPECT_EQ(router.ShardOf("anything"), 0u);
}

TEST(ShardRouter, FromSamplesChoosesSeparatingPrefixBoundaries) {
  const auto samples = GenerateKeyset({KeysetId::kUrl, 1000, 11});
  for (const size_t shards : {2u, 4u, 8u}) {
    const ShardRouter router = ShardRouter::FromSamples(samples, shards);
    ASSERT_EQ(router.shard_count(), shards);
    const auto& bs = router.boundaries();
    for (size_t i = 0; i < bs.size(); i++) {
      EXPECT_FALSE(bs[i].empty());
      if (i > 0) {
        EXPECT_LT(bs[i - 1], bs[i]);
      }
      // A boundary routes to the shard it opens.
      EXPECT_EQ(router.ShardOf(bs[i]), i + 1);
      // The shortest-separating-prefix trick: some sample key starts with the
      // boundary (it is a prefix of the quantile sample) and some sample
      // sorts strictly below it (its predecessor).
      bool is_prefix_of_sample = false;
      bool has_below = false;
      for (const auto& s : samples) {
        is_prefix_of_sample |= s.compare(0, bs[i].size(), bs[i]) == 0;
        has_below |= s < bs[i];
      }
      EXPECT_TRUE(is_prefix_of_sample) << "boundary " << i;
      EXPECT_TRUE(has_below) << "boundary " << i;
    }
  }
}

TEST(ShardRouter, FewSamplesDegradeGracefully) {
  EXPECT_EQ(ShardRouter::FromSamples({}, 8).shard_count(), 1u);
  EXPECT_EQ(ShardRouter::FromSamples({"only"}, 8).shard_count(), 1u);
  // Duplicate samples collapse before quantile selection.
  const ShardRouter router =
      ShardRouter::FromSamples({"a", "a", "b", "b"}, 8);
  EXPECT_LE(router.shard_count(), 2u);
}

TEST(WormholeBatch, MultiGetMatchesGet) {
  const auto keys = GenerateKeyset({KeysetId::kAz1, 1500, 21});
  Options opt;
  opt.leaf_capacity = 16;  // plenty of leaves, so batches span many of them
  Wormhole index(opt);
  for (size_t i = 0; i < keys.size(); i++) {
    if (i % 3 != 0) {  // leave every third key absent
      index.Put(keys[i], "v" + std::to_string(i));
    }
  }

  std::vector<std::string_view> queries;
  for (const auto& k : keys) {
    queries.push_back(k);
  }
  std::vector<std::string> values;
  std::vector<uint8_t> hits;
  const size_t found = index.MultiGet(queries, &values, &hits);

  ASSERT_EQ(values.size(), keys.size());
  ASSERT_EQ(hits.size(), keys.size());
  size_t expected_found = 0;
  for (size_t i = 0; i < keys.size(); i++) {
    std::string want;
    const bool want_hit = index.Get(keys[i], &want);
    expected_found += want_hit ? 1 : 0;
    ASSERT_EQ(hits[i] != 0, want_hit) << "key " << keys[i];
    if (want_hit) {
      ASSERT_EQ(values[i], want) << "key " << keys[i];
    } else {
      ASSERT_TRUE(values[i].empty());
    }
  }
  EXPECT_EQ(found, expected_found);

  // Empty batch: valid, returns nothing.
  EXPECT_EQ(index.MultiGet({}, &values, &hits), 0u);
  EXPECT_TRUE(values.empty());
  EXPECT_TRUE(hits.empty());
}

// The prefetch-interleaved MultiGet pipeline must be observationally
// identical to the serial per-key path on every keyset family: same hits,
// same values, same miss handling — across batch sizes that land on, under,
// and over the pipeline's group size, in shuffled and sorted key order, with
// present, absent-from-pool, and structurally-adversarial (prefix/extension)
// probe keys mixed in. The index configurations cover both in-leaf search
// orders (direct_pos on and off), small leaves (deep trie, many leaves) and
// one big leaf (a multi-line index, a deep in-leaf binary search), the
// forced locked read (optimistic_retries 0), and the trie route's ablations:
// prefixes hashed from byte 0 (inc_hashing off) and the Fig. 11 base (no
// tag filter, unsorted buckets); every fourth value is longer than the
// inline cutoff, so the slab value copy runs too. Both sync policies run
// the same pipeline.
template <typename Index>
void CheckMultiGetMatchesSerial(const Options& opt, KeysetId id) {
  const auto pool = GenerateKeyset({id, 600, 17});
  Index index(opt);
  std::map<std::string, std::string> oracle;
  for (size_t i = 0; i < pool.size(); i++) {
    if (i % 3 != 0) {  // every third pool key stays absent
      const std::string v = i % 4 == 0
                                ? "long-value-" + std::to_string(i) + "-" +
                                      std::string(i % 40, 'x')
                                : "v" + std::to_string(i % 1000);
      index.Put(pool[i], v);
      oracle[pool[i]] = v;
    }
  }

  // Probe set: the whole pool plus prefix/extension mutants (they exercise
  // the anchor-boundary routing paths the pipeline must get right).
  std::vector<std::string> probes;
  for (const auto& k : pool) {
    probes.push_back(k);
  }
  for (size_t i = 0; i < pool.size(); i += 5) {
    probes.push_back(pool[i].substr(0, pool[i].size() / 2 + 1));
    probes.push_back(pool[i] + "~");
  }
  Rng rng(0x5eed ^ static_cast<uint64_t>(id));
  for (size_t i = probes.size(); i > 1; i--) {  // shuffle
    std::swap(probes[i - 1], probes[rng.NextBounded(i)]);
  }

  std::vector<std::string> values;
  std::vector<uint8_t> hits;
  const auto check_batch = [&](const std::vector<std::string_view>& batch) {
    const size_t found = index.MultiGet(batch, &values, &hits);
    ASSERT_EQ(values.size(), batch.size());
    size_t expect_found = 0;
    for (size_t i = 0; i < batch.size(); i++) {
      std::string want;
      const bool want_hit = index.Get(batch[i], &want);
      const auto it = oracle.find(std::string(batch[i]));
      ASSERT_EQ(want_hit, it != oracle.end()) << "key " << batch[i];
      expect_found += want_hit ? 1 : 0;
      ASSERT_EQ(hits[i] != 0, want_hit) << "key " << batch[i];
      if (want_hit) {
        ASSERT_EQ(want, it->second) << "key " << batch[i];
        ASSERT_EQ(values[i], want) << "key " << batch[i];
      } else {
        ASSERT_TRUE(values[i].empty()) << "key " << batch[i];
      }
    }
    ASSERT_EQ(found, expect_found);
  };

  // Batch sizes one key, just under / at / just over the pipeline group
  // size, and several groups with a partial tail, over shuffled probes.
  const size_t kSizes[] = {1, 7, 8, 9, 33};
  size_t pos = 0;
  for (size_t b = 0; pos < probes.size(); b++) {
    const size_t bsize = kSizes[b % std::size(kSizes)];
    std::vector<std::string_view> batch;
    for (size_t i = 0; i < bsize && pos < probes.size(); i++, pos++) {
      batch.push_back(probes[pos]);
    }
    check_batch(batch);
  }
  // One sorted full-pool batch: neighboring keys share leaves.
  std::vector<std::string_view> sorted_batch(pool.begin(), pool.end());
  std::sort(sorted_batch.begin(), sorted_batch.end());
  check_batch(sorted_batch);
}

TEST(WormholeBatch, MultiGetInterleavedMatchesSerialOnAllKeysets) {
  const auto config = [](bool direct_pos, size_t leaf_capacity,
                         uint32_t optimistic_retries) {
    Options opt;
    opt.direct_pos = direct_pos;
    opt.leaf_capacity = leaf_capacity;
    opt.optimistic_retries = optimistic_retries;
    return opt;
  };
  Options no_inc_hashing = config(true, 16, 3);
  no_inc_hashing.inc_hashing = false;
  Options fig11_base = config(false, 16, 3);
  fig11_base.tag_matching = false;
  fig11_base.inc_hashing = false;
  fig11_base.sort_by_tag = false;
  const Options kConfigs[] = {
      config(true, 16, 3),   config(false, 16, 3), config(true, 1024, 3),
      config(false, 1024, 3), config(true, 16, 0), no_inc_hashing,
      fig11_base,
  };
  for (const Options& opt : kConfigs) {
    SCOPED_TRACE(testing::Message()
                 << "tag_matching=" << opt.tag_matching
                 << " inc_hashing=" << opt.inc_hashing
                 << " sort_by_tag=" << opt.sort_by_tag
                 << " direct_pos=" << opt.direct_pos
                 << " leaf_capacity=" << opt.leaf_capacity
                 << " optimistic_retries=" << opt.optimistic_retries);
    for (const KeysetId id : kAllKeysets) {
      SCOPED_TRACE(std::string("keyset=") + KeysetName(id));
      {
        SCOPED_TRACE("class=Wormhole");
        CheckMultiGetMatchesSerial<Wormhole>(opt, id);
      }
      {
        SCOPED_TRACE("class=WormholeUnsafe");
        CheckMultiGetMatchesSerial<WormholeUnsafe>(opt, id);
      }
      if (testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

// MultiPut pre-searches each key's leaf before it takes the leaf's lock, so
// an earlier key of the same route group can change the store under a later
// key's pre-search. At leaf capacity 16 splits go through MultiPut's slow
// path; at 4 almost every group splits a leaf that later keys of the group
// routed to and searched. Both must match serial Put, as must a group that
// repeats a key, where the last value wins.
TEST(WormholeBatch, MultiPutMatchesPut) {
  const auto keys = GenerateKeyset({KeysetId::kK3, 2000, 31});
  for (const size_t leaf_capacity : {size_t{16}, size_t{4}}) {
    SCOPED_TRACE("leaf_capacity=" + std::to_string(leaf_capacity));
    Options opt;
    opt.leaf_capacity = leaf_capacity;
    Wormhole batched(opt);
    Wormhole reference(opt);

    Rng rng(0xbeef);
    std::vector<std::pair<std::string_view, std::string_view>> batch;
    std::vector<std::string> batch_values;
    size_t pos = 0;
    while (pos < keys.size()) {
      const size_t n = 1 + rng.NextBounded(64);
      batch.clear();
      batch_values.clear();
      batch_values.reserve(n);  // stable storage for the views
      for (size_t i = 0; i < n && pos < keys.size(); i++, pos++) {
        batch_values.push_back("v" + std::to_string(pos));
        batch.emplace_back(keys[pos], batch_values.back());
        reference.Put(keys[pos], batch_values.back());
      }
      batched.MultiPut(batch);
    }
    // Re-put a slice with new values: the update path.
    batch.clear();
    batch_values.clear();
    batch_values.reserve(200);
    for (size_t i = 0; i < 200; i++) {
      batch_values.push_back("u" + std::to_string(i));
      batch.emplace_back(keys[i * 7 % keys.size()], batch_values.back());
      reference.Put(keys[i * 7 % keys.size()], batch_values.back());
    }
    batched.MultiPut(batch);

    // One route group (kRouteGroup items) that updates a present key three
    // times and inserts a new key, then updates it: each repeat's
    // pre-search saw the store before the group's earlier Puts of its key.
    static_assert(Wormhole::kRouteGroup >= 7, "the batch is one route group");
    const std::string fresh = keys[5] + "~new";
    batch = {{keys[3], "r0"}, {keys[9], "r1"}, {keys[3], "r2"},
             {fresh, "r3"},   {fresh, "r4"},   {keys[3], "a-longer-value-r5"},
             {keys[9], "r6"}};
    for (const auto& [k, v] : batch) {
      reference.Put(k, v);
    }
    batched.MultiPut(batch);
    std::string got;
    ASSERT_TRUE(batched.Get(keys[3], &got));
    EXPECT_EQ(got, "a-longer-value-r5");
    ASSERT_TRUE(batched.Get(fresh, &got));
    EXPECT_EQ(got, "r4");
    ASSERT_TRUE(batched.Get(keys[9], &got));
    EXPECT_EQ(got, "r6");

    // Groups of one key skip the pre-search and search under the lock:
    // batches of one (updates and inserts), and batches of kRouteGroup + 1
    // whose last group is one key. In those, the first key is refused (past
    // kMaxKeyBytes) after its pre-search, so its leaf's version holds still,
    // and the one-key group Puts a key of that same leaf: positions searched
    // for the refused key must not be used for it.
    std::vector<std::string> extra_keys;
    for (size_t i = 0; i < 60; i++) {
      extra_keys.push_back(keys[i * 11 % keys.size()] + (i % 2 ? "~one" : ""));
    }
    for (size_t i = 0; i < extra_keys.size(); i++) {
      const std::string value = "s" + std::to_string(i);
      batch = {{extra_keys[i], value}};
      reference.Put(extra_keys[i], value);
      batched.MultiPut(batch);
    }
    for (size_t round = 0; round < 4; round++) {
      const std::string& last = extra_keys[40 + round];
      const std::string refused = last + std::string(kMaxKeyBytes, 'z');
      batch.clear();
      batch_values.clear();
      batch_values.reserve(Wormhole::kRouteGroup + 1);
      for (size_t i = 0; i <= Wormhole::kRouteGroup; i++) {
        const std::string& key = i == 0                       ? refused
                                 : i == Wormhole::kRouteGroup ? last
                                                              : extra_keys[round * 9 + i];
        batch_values.push_back("t" + std::to_string(round) + "." +
                               std::to_string(i));
        batch.emplace_back(key, batch_values.back());
        if (i > 0) {
          reference.Put(key, batch_values.back());
        }
      }
      EXPECT_FALSE(batched.MultiPut(batch));
    }

    // Batches of kRouteGroup + 1 whose one-key last group lands in the leaf
    // the routed group left held: its key repeats the group's last key (an
    // update) or extends it (an insert next to it). A held leaf is reused
    // with the key's routed hash, and an unrouted key has none: it must
    // route afresh, or DirectPos searches and inserts under a wrong hash.
    std::vector<std::string> held_keys;
    held_keys.reserve(4);
    for (size_t round = 0; round < 4; round++) {
      batch.clear();
      batch_values.clear();
      batch_values.reserve(Wormhole::kRouteGroup + 1);
      for (size_t i = 0; i < Wormhole::kRouteGroup; i++) {
        batch_values.push_back("h" + std::to_string(round) + "." +
                               std::to_string(i));
        batch.emplace_back(keys[(round * 97 + i * 13) % keys.size()],
                           batch_values.back());
      }
      held_keys.push_back(std::string(batch.back().first) +
                          (round % 2 == 0 ? "" : "~held"));
      batch_values.push_back("h" + std::to_string(round) + ".last");
      batch.emplace_back(held_keys.back(), batch_values.back());
      for (const auto& [k, v] : batch) {
        reference.Put(k, v);
      }
      EXPECT_TRUE(batched.MultiPut(batch));
      std::string got;
      ASSERT_TRUE(batched.Get(held_keys.back(), &got)) << held_keys.back();
      EXPECT_EQ(got, batch_values.back());
    }

    ASSERT_EQ(batched.size(), reference.size());
    EXPECT_EQ(batched.size(), keys.size() + 1 + extra_keys.size() / 2 + 2);
    EXPECT_EQ(WormholeScan(&batched, "", keys.size() + 10),
              WormholeScan(&reference, "", keys.size() + 10));
  }
}

// --- Service vs single Wormhole differential -------------------------------

std::string DumpValue(const Response& r) {
  return r.found ? r.value : std::string("<miss>");
}

void RunServiceDifferential(size_t shards, uint64_t seed) {
  SCOPED_TRACE("shards=" + std::to_string(shards));
  const auto pool = GenerateKeyset({KeysetId::kAz1, 1200, 5});
  Rng rng(seed);

  // Random boundaries: sample a random subset of the pool, not quantiles of
  // the whole, so boundary placement varies with the seed.
  std::vector<std::string> samples;
  for (size_t i = 0; i < 64; i++) {
    samples.push_back(pool[rng.NextBounded(pool.size())]);
  }
  const ShardRouter router = ShardRouter::FromSamples(std::move(samples), shards);

  Options opt;
  opt.leaf_capacity = 16;
  ServiceOptions service_opt;
  service_opt.index = opt;
  Service service(service_opt, router);
  Wormhole reference(opt);

  const auto pick_key = [&]() -> const std::string& {
    return pool[rng.NextBounded(pool.size())];
  };

  uint64_t value_counter = 0;
  std::vector<Request> batch;
  std::vector<Response> responses;
  for (int round = 0; round < 60; round++) {
    batch.clear();
    const bool read_only = round % 4 == 3;  // every 4th batch may scan
    const size_t n = 1 + rng.NextBounded(64);
    for (size_t i = 0; i < n; i++) {
      Request req;
      const uint64_t roll = rng.NextBounded(100);
      if (read_only) {
        if (roll < 60) {
          req.op = Op::kGet;
          req.key = pick_key();
        } else {
          // Forward and reverse scans, with YCSB-E-style short limits (16 /
          // 128) mixed into the random ones so both merge shapes are hit.
          req.op = roll < 80 ? Op::kScan : Op::kScanRev;
          req.key = pick_key();
          const uint64_t shape = rng.NextBounded(4);
          req.scan_limit =
              shape == 0 ? 16
                         : (shape == 1
                                ? 128
                                : 1 + static_cast<uint32_t>(rng.NextBounded(200)));
          if (roll >= 95 && !router.boundaries().empty()) {
            // Start just below a router boundary so the scan provably crosses
            // it (the boundary itself sorts above its truncated prefix) —
            // forward upward, reverse downward across the same boundary.
            const auto& b =
                router.boundaries()[rng.NextBounded(router.boundaries().size())];
            req.key = b.substr(0, b.size() - 1);
            req.scan_limit = 100;
          }
        }
      } else if (roll < 45) {
        req.op = Op::kPut;
        req.key = pick_key();
        req.value = "v" + std::to_string(value_counter++);
      } else if (roll < 75) {
        req.op = Op::kGet;
        req.key = pick_key();
      } else {
        req.op = Op::kDelete;
        req.key = pick_key();
      }
      batch.push_back(std::move(req));
    }

    service.Execute(batch, &responses);
    ASSERT_EQ(responses.size(), batch.size());

    // The reference applies the same batch sequentially, as the WAL-off
    // Service does. Scans sit in read-only batches, so they read the same
    // state in either.
    for (size_t i = 0; i < batch.size(); i++) {
      const Request& req = batch[i];
      const Response& got = responses[i];
      // responses is reused across rounds: whatever a slot held for an
      // earlier op must be gone.
      ASSERT_TRUE(got.ok);
      const bool scan = req.op == Op::kScan || req.op == Op::kScanRev;
      if (!scan) {
        ASSERT_TRUE(got.items.empty()) << "round " << round << " slot " << i;
      } else {
        ASSERT_FALSE(got.found) << "round " << round << " slot " << i;
      }
      if (req.op != Op::kGet || !got.found) {
        ASSERT_TRUE(got.value.empty()) << "round " << round << " slot " << i;
      }
      switch (req.op) {
        case Op::kPut:
          reference.Put(req.key, req.value);
          ASSERT_TRUE(got.found);
          break;
        case Op::kGet: {
          std::string want;
          const bool want_found = reference.Get(req.key, &want);
          ASSERT_EQ(got.found, want_found)
              << "round " << round << " Get " << req.key;
          if (want_found) {
            ASSERT_EQ(got.value, want) << "round " << round << " Get "
                                       << req.key << " -> " << DumpValue(got);
          }
          break;
        }
        case Op::kDelete:
          ASSERT_EQ(got.found, reference.Delete(req.key))
              << "round " << round << " Delete " << req.key;
          break;
        case Op::kScan: {
          const Pairs want = WormholeScan(&reference, req.key, req.scan_limit);
          ASSERT_EQ(got.items, want)
              << "round " << round << " Scan from " << req.key << " limit "
              << req.scan_limit;
          break;
        }
        case Op::kScanRev: {
          const Pairs want = WormholeScanRev(&reference, req.key, req.scan_limit);
          ASSERT_EQ(got.items, want)
              << "round " << round << " ScanRev from " << req.key << " limit "
              << req.scan_limit;
          break;
        }
      }
    }
  }

  // End state: the merged full scans equal the reference in both directions,
  // across every router boundary, byte for byte.
  ASSERT_EQ(service.size(), reference.size());
  batch.assign(1, Request{Op::kScan, "", "", 1u << 30});
  service.Execute(batch, &responses);
  EXPECT_EQ(responses[0].items, WormholeScan(&reference, "", 1u << 30));
  const std::string top(64, '\x7e');
  batch.assign(1, Request{Op::kScanRev, top, "", 1u << 30});
  service.Execute(batch, &responses);
  EXPECT_EQ(responses[0].items, WormholeScanRev(&reference, top, 1u << 30));
}

TEST(ServiceDifferential, SingleShardMatchesWormhole) {
  RunServiceDifferential(1, 0x51ed);
}

TEST(ServiceDifferential, FourShardsRandomBoundariesMatchWormhole) {
  RunServiceDifferential(4, 0x4a11);
  RunServiceDifferential(4, 0x7777);  // second boundary placement
}

TEST(Service, CrossShardScanStitchesInOrder) {
  // Hand-built boundaries so the crossing is explicit.
  Service service(ServiceOptions{}, ShardRouter({"k200", "k400"}));
  std::vector<Request> batch;
  std::vector<Response> responses;
  for (int i = 0; i < 600; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%03d", i);
    batch.push_back(Request{Op::kPut, buf, "v" + std::to_string(i), 0});
  }
  service.Execute(batch, &responses);
  ASSERT_EQ(service.size(), 600u);

  // Spans all three ranges, inclusive start, exact limit semantics.
  batch.assign(1, Request{Op::kScan, "k150", "", 300});
  service.Execute(batch, &responses);
  ASSERT_EQ(responses[0].items.size(), 300u);
  for (int i = 0; i < 300; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%03d", 150 + i);
    ASSERT_EQ(responses[0].items[static_cast<size_t>(i)].first, buf);
  }

  // A scan that exhausts the keyspace stops cleanly past the last key.
  batch.assign(1, Request{Op::kScan, "k590", "", 100});
  service.Execute(batch, &responses);
  EXPECT_EQ(responses[0].items.size(), 10u);

  // Reverse across both boundaries: descending from k450 across k400 and
  // k200, down into the lowest range.
  batch.assign(1, Request{Op::kScanRev, "k450", "", 300});
  service.Execute(batch, &responses);
  ASSERT_EQ(responses[0].items.size(), 300u);
  for (int i = 0; i < 300; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%03d", 450 - i);
    ASSERT_EQ(responses[0].items[static_cast<size_t>(i)].first, buf);
  }

  // A reverse scan that exhausts the keyspace stops cleanly before the first
  // key.
  batch.assign(1, Request{Op::kScanRev, "k009", "", 100});
  service.Execute(batch, &responses);
  EXPECT_EQ(responses[0].items.size(), 10u);
}

// WAL-off contract (service.h): one index and one partition, so a whole
// batch applies in submission order whatever the router's boundaries. The
// keys sit on both sides of every boundary, each step writes them from the
// highest range down, and scans cross every boundary in both directions, so
// any per-range grouping of the batch would reorder some response. Every
// response must equal a std::map replaying the batch in order.
TEST(Service, WalOffBatchAppliesInSubmissionOrder) {
  const ShardRouter router({"k150", "k300", "k450"});
  Service service(ServiceOptions{}, router);
  EXPECT_EQ(service.partition_count(), 1u);
  std::map<std::string, std::string> oracle;
  std::vector<Request> batch;
  std::vector<Response> responses;
  for (int i = 0; i < 600; i += 2) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%03d", i);
    batch.push_back(Request{Op::kPut, buf, "p", 0});
    oracle[buf] = "p";
  }
  service.Execute(batch, &responses);

  const std::vector<std::string> keys = {"k451", "k450", "k449", "k301",
                                         "k300", "k299", "k151", "k150",
                                         "k149", "k000"};
  batch.clear();
  for (int step = 0; step < 4; step++) {
    for (size_t i = 0; i < keys.size(); i++) {
      const std::string value = "s" + std::to_string(step) + "." + std::to_string(i);
      const bool del = (step + i) % 3 == 0;
      batch.push_back(Request{del ? Op::kDelete : Op::kPut, keys[i],
                              del ? "" : value, 0});
      batch.push_back(Request{Op::kGet, keys[(i + 5) % keys.size()], "", 0});
      if (i % 3 == 2) {
        batch.push_back(Request{Op::kScan, "k148", "", 320});
        batch.push_back(Request{Op::kScanRev, "k452", "", 320});
      }
    }
  }
  service.Execute(batch, &responses);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); i++) {
    const Request& req = batch[i];
    const Response& got = responses[i];
    SCOPED_TRACE("request " + std::to_string(i) + " key " + req.key);
    switch (req.op) {
      case Op::kPut:
        oracle[req.key] = req.value;
        EXPECT_TRUE(got.found);
        break;
      case Op::kDelete:
        EXPECT_EQ(got.found, oracle.erase(req.key) == 1);
        break;
      case Op::kGet: {
        const auto it = oracle.find(req.key);
        ASSERT_EQ(got.found, it != oracle.end());
        if (got.found) {
          EXPECT_EQ(got.value, it->second);
        }
        break;
      }
      case Op::kScan: {
        Pairs want;
        for (auto it = oracle.lower_bound(req.key);
             it != oracle.end() && want.size() < req.scan_limit; ++it) {
          want.emplace_back(*it);
        }
        EXPECT_EQ(got.items, want);
        break;
      }
      case Op::kScanRev: {
        Pairs want;
        for (auto it = std::make_reverse_iterator(oracle.upper_bound(req.key));
             it != oracle.rend() && want.size() < req.scan_limit; ++it) {
          want.emplace_back(*it);
        }
        EXPECT_EQ(got.items, want);
        break;
      }
    }
  }
}

// WAL-off mode never consults the router: identical loads through a
// one-range and a four-range router build the same index.
TEST(Service, WalOffIgnoresRouterBoundaries) {
  const auto keys = GenerateKeyset({KeysetId::kK3, 3000, 17});
  Service one(ServiceOptions{}, ShardRouter({}));
  Service four(ServiceOptions{}, ShardRouter::FromSamples(keys, 4));
  ASSERT_EQ(four.router().shard_count(), 4u);
  EXPECT_EQ(four.partition_count(), 1u);
  Rng rng(0x10ad);
  std::vector<Request> batch;
  std::vector<Response> responses;
  for (int round = 0; round < 40; round++) {
    batch.clear();
    for (int i = 0; i < 128; i++) {
      const std::string& key = keys[rng.NextBounded(keys.size())];
      if (rng.NextBounded(4) == 0) {
        batch.push_back(Request{Op::kDelete, key, "", 0});
      } else {
        batch.push_back(Request{Op::kPut, key, "v" + std::to_string(round), 0});
      }
    }
    one.Execute(batch, &responses);
    four.Execute(batch, &responses);
  }
  EXPECT_EQ(one.size(), four.size());
  EXPECT_EQ(one.MemoryBytes(), four.MemoryBytes());
  std::vector<Response> from_one;
  batch.assign(1, Request{Op::kScan, "", "", 1u << 30});
  one.Execute(batch, &from_one);
  four.Execute(batch, &responses);
  EXPECT_EQ(from_one[0].items, responses[0].items);
}

// Contract regression (service.h): scan_limit == 0 is a valid request that
// yields an empty item list — in both directions, regardless of where the
// start key routes, even mixed into a batch with real work.
TEST(Service, ZeroScanLimitYieldsEmptyResponse) {
  Service service(ServiceOptions{}, ShardRouter({"k200", "k400"}));
  std::vector<Request> batch;
  std::vector<Response> responses;
  for (int i = 0; i < 600; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%03d", i);
    batch.push_back(Request{Op::kPut, buf, "v", 0});
  }
  service.Execute(batch, &responses);

  batch.clear();
  batch.push_back(Request{Op::kScan, "", "", 0});
  batch.push_back(Request{Op::kScan, "k300", "", 0});
  batch.push_back(Request{Op::kScanRev, "k300", "", 0});
  batch.push_back(Request{Op::kGet, "k123", "", 0});
  batch.push_back(Request{Op::kScanRev, "zzz", "", 0});
  service.Execute(batch, &responses);
  EXPECT_TRUE(responses[0].items.empty());
  EXPECT_TRUE(responses[1].items.empty());
  EXPECT_TRUE(responses[2].items.empty());
  EXPECT_TRUE(responses[3].found);  // neighboring requests are unaffected
  EXPECT_EQ(responses[3].value, "v");
  EXPECT_TRUE(responses[4].items.empty());
}

// Execute reuses the caller's Response objects (service.h), so nothing a
// slot held for one op may leak into the next. Each of kSlots slots walks
// the cycle below, starting at its own phase: first one step per batch,
// then two, ..., then six, so every ordered pair of ops (a 50-item scan
// followed by a 3-item one, a refusal after a scan, ...) occurs in some
// slot of some batch. Two services in lockstep run the same batches, one through
// a reused response vector and one through a fresh vector per batch; every
// field must match. In durable mode both fail-stop at the same fsync, so the
// later batches also cover refused mutations next to served reads.
void CheckReusedResponses(const ServiceOptions& reused_opt,
                          const ServiceOptions& fresh_opt,
                          durability::FaultPlan* reused_plan,
                          durability::FaultPlan* fresh_plan) {
  const ShardRouter router({"k200", "k400"});
  Service reused_svc(reused_opt, router);
  Service fresh_svc(fresh_opt, router);
  std::vector<Request> batch;
  std::vector<Response> reused;
  for (int i = 0; i < 600; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%03d", i);
    batch.push_back(Request{Op::kPut, key, std::string(40, 'a' + i % 26), 0});
  }
  reused_svc.Execute(batch, &reused);
  fresh_svc.Execute(batch, &reused);
  if (reused_plan != nullptr) {
    // Two mutating batches commit on every partition they touch, then
    // fsyncs fail and the partitions go fail-stop one by one.
    reused_plan->FailFsyncAfter(5);
    fresh_plan->FailFsyncAfter(5);
  }

  const std::string oversize(kMaxKeyBytes + 1, 'k');
  constexpr int kSteps = 7;
  constexpr int kSlots = 21;
  const auto make = [&](int step, int slot, int round) {
    const std::string base = "k" + std::to_string(100 + 10 * slot + round);
    switch (step) {
      case 0:
        return Request{Op::kScan, base, "", 50};
      case 1:
        return Request{Op::kGet, base + "-missing", "", 0};
      case 2:
        return Request{Op::kScanRev, base, "", 3};
      case 3:
        return Request{Op::kPut, base + "-put",
                       std::string(30, 'p') + std::to_string(round), 0};
      case 4:
        return Request{Op::kScan, oversize, "", 50};  // refused
      case 5:
        return Request{Op::kScan, base, "", 0};
      default:
        return Request{Op::kDelete, base, "", 0};
    }
  };
  int applied = 0;  // mutations acknowledged / refused
  int refused = 0;
  const auto step_of = [&](int slot, int round) {
    const int stride = 1 + round / kSteps;
    return (slot + stride * round) % kSteps;
  };
  for (int round = 0; round < (kSteps - 1) * kSteps; round++) {
    SCOPED_TRACE("round " + std::to_string(round));
    batch.clear();
    for (int slot = 0; slot < kSlots; slot++) {
      batch.push_back(make(step_of(slot, round), slot, round));
    }
    reused_svc.Execute(batch, &reused);
    std::vector<Response> fresh;
    fresh_svc.Execute(batch, &fresh);
    ASSERT_EQ(reused.size(), batch.size());
    ASSERT_EQ(fresh.size(), batch.size());
    for (size_t i = 0; i < batch.size(); i++) {
      SCOPED_TRACE("slot " + std::to_string(i));
      EXPECT_EQ(reused[i].found, fresh[i].found);
      EXPECT_EQ(reused[i].ok, fresh[i].ok);
      EXPECT_EQ(reused[i].value, fresh[i].value);
      EXPECT_EQ(reused[i].items, fresh[i].items);
    }
    // Reads are served in every mode, with the items asked for; only the
    // oversize request and, after fail-stop, the mutations are refused.
    for (int slot = 0; slot < kSlots; slot++) {
      const int step = step_of(slot, round);
      const Response& r = reused[static_cast<size_t>(slot)];
      const bool mutation = step == 3 || step == 6;
      if (mutation) {
        (r.ok ? applied : refused)++;
      } else {
        EXPECT_EQ(r.ok, step != 4);
      }
      EXPECT_EQ(r.items.size(), step == 0 ? 50u : (step == 2 ? 3u : 0u));
    }
  }
  if (reused_plan == nullptr) {
    EXPECT_EQ(refused, 0);
  } else {
    EXPECT_GT(applied, 0);
    EXPECT_GT(refused, 0);
    EXPECT_FALSE(reused_svc.durability_status().ok());
  }
}

TEST(Service, ReusedResponsesMatchFreshWalOff) {
  CheckReusedResponses(ServiceOptions{}, ServiceOptions{}, nullptr, nullptr);
}

TEST(Service, ReusedResponsesMatchFreshDurableFailStop) {
  durability::Fs* fs = durability::Fs::Default();
  const std::string dir = "/tmp/wh_service_reuse." +
                          std::to_string(static_cast<long>(::getpid()));
  ASSERT_TRUE(fs->RemoveAll(dir).ok());
  durability::FaultPlan reused_plan;
  durability::FaultPlan fresh_plan;
  durability::Fs reused_fs(&reused_plan);
  durability::Fs fresh_fs(&fresh_plan);
  ServiceOptions reused_opt;
  reused_opt.durability.enabled = true;
  reused_opt.durability.dir = dir + "/reused";
  reused_opt.durability.fs = &reused_fs;
  ServiceOptions fresh_opt = reused_opt;
  fresh_opt.durability.dir = dir + "/fresh";
  fresh_opt.durability.fs = &fresh_fs;
  CheckReusedResponses(reused_opt, fresh_opt, &reused_plan, &fresh_plan);
  EXPECT_TRUE(fs->RemoveAll(dir).ok());
}

// Input bounds (wormhole.h): a key of kMaxKeyBytes and a value of
// kMaxValueBytes are served; one byte more is refused with ok == false and
// changes nothing — not the index, and in durable mode not the log either,
// so a restart recovers exactly the accepted writes. Neighbors in the same
// batch are unaffected.
void CheckInputBounds(const ServiceOptions& opt) {
  const std::string key_at(kMaxKeyBytes, 'k');
  const std::string key_over(kMaxKeyBytes + 1, 'k');
  const std::string value_at(kMaxValueBytes, 'v');
  const std::string value_over(kMaxValueBytes + 1, 'v');
  std::vector<Response> responses;
  {
    Service service(opt, ShardRouter({"m"}));
    service.Execute({Request{Op::kPut, key_at, "x", 0},
                     Request{Op::kPut, key_over, "x", 0},
                     Request{Op::kPut, "a-value-at", value_at, 0},
                     Request{Op::kPut, "b-value-over", value_over, 0},
                     Request{Op::kPut, "c-neighbor", "y", 0}},
                    &responses);
    EXPECT_TRUE(responses[0].ok);
    EXPECT_FALSE(responses[1].ok);
    EXPECT_TRUE(responses[2].ok);
    EXPECT_FALSE(responses[3].ok);
    EXPECT_TRUE(responses[4].ok);
    EXPECT_EQ(service.size(), 3u);

    service.Execute({Request{Op::kGet, key_at, "", 0},
                     Request{Op::kGet, key_over, "", 0},
                     Request{Op::kDelete, key_over, "", 0},
                     Request{Op::kScan, key_over, "", 10},
                     Request{Op::kGet, "a-value-at", "", 0},
                     Request{Op::kGet, "b-value-over", "", 0}},
                    &responses);
    EXPECT_TRUE(responses[0].ok && responses[0].found);
    EXPECT_EQ(responses[0].value, "x");
    for (int i = 1; i <= 3; i++) {
      EXPECT_FALSE(responses[i].ok) << i;
      EXPECT_FALSE(responses[i].found) << i;
      EXPECT_TRUE(responses[i].items.empty()) << i;
    }
    EXPECT_TRUE(responses[4].ok && responses[4].found);
    EXPECT_EQ(responses[4].value, value_at);
    EXPECT_TRUE(responses[5].ok);
    EXPECT_FALSE(responses[5].found);
    EXPECT_EQ(service.size(), 3u);
  }
  if (opt.durability.enabled) {  // the refused writes were never logged
    Service restarted(opt, ShardRouter({"m"}));
    ASSERT_TRUE(restarted.durability_status().ok());
    EXPECT_EQ(restarted.size(), 3u);
    restarted.Execute({Request{Op::kGet, "a-value-at", "", 0},
                       Request{Op::kGet, "b-value-over", "", 0}},
                      &responses);
    EXPECT_EQ(responses[0].value, value_at);
    EXPECT_FALSE(responses[1].found);
  }
}

TEST(Service, InputBoundsWalOff) { CheckInputBounds(ServiceOptions{}); }

TEST(Service, InputBoundsDurable) {
  durability::Fs* fs = durability::Fs::Default();
  const std::string dir = "/tmp/wh_service_test." +
                          std::to_string(static_cast<long>(::getpid()));
  ASSERT_TRUE(fs->RemoveAll(dir).ok());
  ServiceOptions opt;
  opt.durability.enabled = true;
  opt.durability.dir = dir;
  CheckInputBounds(opt);
  EXPECT_TRUE(fs->RemoveAll(dir).ok());
}

TEST(Service, ConcurrentClientsKeepPerKeySemantics) {
  // 4 client threads with disjoint keys interleaved across the router's
  // ranges: each thread can assert its own keys' final state exactly, while
  // all threads hammer the whole index (keys stripe modulo thread count).
  const size_t kThreads = 4;
  const size_t kKeysPerThread = 300;
  const auto samples = GenerateKeyset({KeysetId::kK3, 400, 9});
  ServiceOptions opt;
  opt.index.leaf_capacity = 16;
  Service service(opt, ShardRouter::FromSamples(samples, 4));

  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; t++) {
    pool.emplace_back([&, t] {
      QsbrThreadScope qsbr_scope;
      Rng rng(1000 + t);
      std::map<std::string, std::string> mine;  // this thread's expected state
      std::vector<std::string> keys;
      for (size_t i = 0; i < kKeysPerThread; i++) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "c%04zu-t%zu", i, t);
        keys.emplace_back(buf);
      }
      std::vector<Request> batch;
      std::vector<Response> responses;
      for (int round = 0; round < 40 && !failed.load(); round++) {
        batch.clear();
        for (int i = 0; i < 32; i++) {
          Request req;
          const std::string& key = keys[rng.NextBounded(keys.size())];
          const uint64_t roll = rng.NextBounded(100);
          if (roll < 50) {
            req.op = Op::kPut;
            req.key = key;
            req.value = "t" + std::to_string(t) + "r" + std::to_string(round);
          } else if (roll < 80) {
            req.op = Op::kGet;
            req.key = key;
          } else {
            req.op = Op::kDelete;
            req.key = key;
          }
          batch.push_back(std::move(req));
        }
        service.Execute(batch, &responses);
        for (size_t i = 0; i < batch.size(); i++) {
          const Request& req = batch[i];
          switch (req.op) {
            case Op::kPut:
              mine[req.key] = req.value;
              break;
            case Op::kDelete:
              if (responses[i].found != (mine.erase(req.key) > 0)) {
                failed.store(true);
              }
              break;
            case Op::kGet: {
              const auto it = mine.find(req.key);
              if (responses[i].found != (it != mine.end()) ||
                  (it != mine.end() && responses[i].value != it->second)) {
                failed.store(true);
              }
              break;
            }
            case Op::kScan:
            case Op::kScanRev:
              break;
          }
        }
      }
      // Final sweep over this thread's keys.
      batch.clear();
      for (const auto& k : keys) {
        batch.push_back(Request{Op::kGet, k, "", 0});
      }
      service.Execute(batch, &responses);
      for (size_t i = 0; i < keys.size(); i++) {
        const auto it = mine.find(keys[i]);
        if (responses[i].found != (it != mine.end()) ||
            (it != mine.end() && responses[i].value != it->second)) {
          failed.store(true);
        }
      }
    });
  }
  for (auto& th : pool) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace wh
