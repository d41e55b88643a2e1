// Allocation regression for the steady-state scan path of Service::Execute.
//
// This binary replaces the global operator new with one that counts the
// calling thread's allocations. A client that reuses one response vector
// runs a batch of scans until every string, item vector and cursor window
// has reached its high-water size; repeating the batch must then allocate a
// small constant number of times, independent of how many items it returns:
// per shard one cursor object and one copy of its seek key. The grouping
// arrays, run-dispatch buffers and cursor cache live in Execute's per-thread
// scratch and allocate nothing once grown. A per-item copy-out (one heap
// string per key or value) or a cursor that allocates its window buffers
// afresh shows up as a count that grows with the items or the shards.
//
// Batches of Gets allocate nothing at all: Execute lends each response's
// value buffer to MultiGet, so repeating a batch copies the values into
// buffers already grown to them instead of allocating one per value.
//
// A response position need not serve the same op in every batch: the item
// strings a position gives up when it serves a Get or Delete go to the
// thread's item free list, and the next scan to outgrow its response takes
// them back, so alternating op mixes are held to a constant too.
//
// Also here: a cursor destroyed during thread exit, after the thread's
// window free list is gone, frees its window without touching the list.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/common/qsbr.h"
#include "src/common/rng.h"
#include "src/core/wormhole.h"
#include "src/server/service.h"
#include "src/server/shard_router.h"
#include "src/workload/keysets.h"

namespace {

// Trivially constructible and destructible, so it is safe to touch from any
// allocation, including those made during thread start-up and exit.
thread_local uint64_t tl_allocs = 0;

void* CountedAlloc(std::size_t n) {
  tl_allocs++;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAllocNothrow(std::size_t n, std::align_val_t al) {
  tl_allocs++;
  const std::size_t a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  if (void* p = CountedAlignedAllocNothrow(n, al)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable allocation function is replaced, the nothrow forms too:
// library code that allocates with nothrow new (libstdc++'s temporary
// buffers) must not reach the default one and be freed here with free().
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  tl_allocs++;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAllocNothrow(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAllocNothrow(n, al);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace wh {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kScansPerBatch = 32;
// Repeats before counting. Execute's cursors take windows from the thread's
// free list in LIFO order and return them in shard order, so which window
// serves which shard cycles with a period of at most kShards batches; after
// that every window has grown to the leaves it will be handed again.
constexpr int kWarmups = 3 * static_cast<int>(kShards);

// Az1 keys are 33 bytes and the values 24, both past the small-string
// buffer, so a copy-out into fresh strings allocates twice per item.
std::string ValueOf(size_t i) {
  std::string v = "value-" + std::to_string(i);
  v.resize(24, '.');
  return v;
}

struct Fixture {
  std::vector<std::string> keys = GenerateKeyset({KeysetId::kAz1, 20000, 3});
  std::unique_ptr<Service> service;

  Fixture() {
    ServiceOptions opt;
    opt.index.leaf_capacity = 64;
    service = std::make_unique<Service>(
        opt, ShardRouter::FromSamples(keys, kShards));
    std::vector<Request> load;
    for (size_t i = 0; i < keys.size(); i++) {
      load.push_back(Request{Op::kPut, keys[i], ValueOf(i), 0});
    }
    std::vector<Response> responses;
    service->Execute(load, &responses);
  }

  // kScansPerBatch scans of `limit` items from seeded start keys, alternating
  // ascending and descending.
  std::vector<Request> ScanBatch(uint32_t limit) const {
    Rng rng(0x5ca1);
    std::vector<Request> batch;
    for (size_t i = 0; i < kScansPerBatch; i++) {
      batch.push_back(Request{i % 2 == 0 ? Op::kScan : Op::kScanRev,
                              keys[rng.NextBounded(keys.size())], "", limit});
    }
    return batch;
  }

  // `n` Gets of loaded keys from seeded picks.
  std::vector<Request> GetBatch(size_t n) const {
    Rng rng(0x6e7);
    std::vector<Request> batch;
    for (size_t i = 0; i < n; i++) {
      batch.push_back(
          Request{Op::kGet, keys[rng.NextBounded(keys.size())], "", 0});
    }
    return batch;
  }

  // Allocations made by one Execute of `batch`, after kWarmups repeats of it
  // through the same response vector.
  uint64_t SteadyAllocs(const std::vector<Request>& batch,
                        std::vector<Response>* responses) {
    for (int i = 0; i < kWarmups; i++) {
      service->Execute(batch, responses);
    }
    const uint64_t before = tl_allocs;
    service->Execute(batch, responses);
    return tl_allocs - before;
  }
};

size_t ItemCount(const std::vector<Response>& responses) {
  size_t n = 0;
  for (const Response& r : responses) {
    n += r.items.size();
  }
  return n;
}

TEST(ScanAlloc, RepeatedScanBatchAllocatesAConstant) {
  Fixture f;
  std::vector<Response> long_resp;
  std::vector<Response> short_resp;
  const uint64_t long_allocs = f.SteadyAllocs(f.ScanBatch(50), &long_resp);
  const uint64_t short_allocs = f.SteadyAllocs(f.ScanBatch(5), &short_resp);
  ASSERT_EQ(ItemCount(long_resp), kScansPerBatch * 50);
  ASSERT_EQ(ItemCount(short_resp), kScansPerBatch * 5);
  // Per shard: the cursor object and its seek-key copy.
  EXPECT_LE(long_allocs, 2 * kShards) << "1600-item batch";
  // Ten times the items, the same allocations.
  EXPECT_EQ(long_allocs, short_allocs);
}

// Two batches that swap scans and non-scans at every position, executed in
// turn through one response vector: each scan lands on a response whose
// items the previous batch gave up to a Get or a Delete. Their strings wait
// on the thread's item free list, so once warm an Execute allocates as often
// at 100 items per scan as at 10.
TEST(ScanAlloc, OpMixChurnIsAllocationStable) {
  Fixture f;
  const auto mixed = [&](uint32_t limit, size_t parity) {
    std::vector<Request> batch = f.ScanBatch(limit);
    for (size_t i = parity; i < batch.size(); i += 2) {
      // Gets of loaded keys and Deletes of absent ones: neither mutates the
      // index, whose own allocations would muddy the count.
      batch[i] = i % 4 < 2 ? Request{Op::kGet, batch[i].key, "", 0}
                           : Request{Op::kDelete, "absent-key", "", 0};
    }
    return batch;
  };
  uint64_t allocs[2] = {0, 0};
  for (const uint32_t limit : {10u, 100u}) {
    const std::vector<Request> even = mixed(limit, 0);
    const std::vector<Request> odd = mixed(limit, 1);
    std::vector<Response> responses;
    for (int i = 0; i < kWarmups; i++) {
      f.service->Execute(even, &responses);
      f.service->Execute(odd, &responses);
    }
    const uint64_t before = tl_allocs;
    f.service->Execute(even, &responses);
    const uint64_t mid = tl_allocs;
    f.service->Execute(odd, &responses);
    ASSERT_EQ(ItemCount(responses), kScansPerBatch / 2 * limit);
    EXPECT_EQ(mid - before, tl_allocs - mid) << limit << " items per scan";
    allocs[limit == 10u ? 0 : 1] = tl_allocs - mid;
  }
  EXPECT_EQ(allocs[0], allocs[1]);
  // The scan-batch bound: the Get runs' buffers are per-thread scratch too.
  EXPECT_LE(allocs[1], 2 * kShards);
}

// Values are 24 bytes, past the small-string buffer: a Get that hands back
// a freshly allocated value string costs one allocation per hit.
TEST(ScanAlloc, RepeatedGetBatchAllocatesAConstant) {
  Fixture f;
  for (const size_t n : {32, 128}) {
    std::vector<Response> responses;
    const uint64_t allocs = f.SteadyAllocs(f.GetBatch(n), &responses);
    ASSERT_EQ(responses.size(), n);
    for (const Response& r : responses) {
      ASSERT_TRUE(r.found);
      ASSERT_EQ(r.value.size(), 24u);
    }
    EXPECT_EQ(allocs, 0u) << n << " Gets";
  }
}

// Holds a cursor in a thread_local that is constructed before the thread's
// window free list, so thread exit destroys the list first and the cursor
// after it — while the thread's QSBR slot is still registered, because the
// thread joined the index's domain before constructing the holder.
struct CursorHolder {
  std::unique_ptr<Cursor> cursor;
};
thread_local CursorHolder tl_holder;

TEST(ScanAlloc, CursorDestroyedAfterWindowPoolAtThreadExit) {
  Wormhole index;
  for (int i = 0; i < 1000; i++) {
    index.Put("k" + std::to_string(i), "v");
  }
  std::thread t([&] {
    std::string v;
    EXPECT_TRUE(index.Get("k1", &v));  // joins the QSBR domain first
    CursorHolder& holder = tl_holder;  // then constructs the holder
    holder.cursor = index.NewCursor();  // and only then the window list
    holder.cursor->Seek("k5");
    EXPECT_TRUE(holder.cursor->Valid());
  });
  t.join();
  // The window list was built by the thread's first cursor; a second cursor
  // from a fresh thread still works after that thread has exited.
  std::thread([&] {
    auto c = index.NewCursor();
    c->Seek("k");
    EXPECT_TRUE(c->Valid());
  }).join();
}

}  // namespace
}  // namespace wh
