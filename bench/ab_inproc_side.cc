// One side of the in-process A/B (scripts/ab_inproc.py): a Service of one
// source tree driven by that tree's svcbench workload generator and
// verifier. The script compiles this file, with the store's sources, once
// per tree under -Dwh=wh_<side> -Dsvcbench=svcbench_<side>
// -DAB_SIDE_ENTRY=ab_side_<side>, so both trees link into one binary; the
// svcbench headers are read as they are.
//
// The clients are persistent threads, so their thread-local state (QSBR
// registration, the cursors' window free list, the scan item free list)
// survives from one slice to the next, as it does for a long-running
// client. Between slices they sleep on the slice counter.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ab_inproc.h"
#include "src/common/qsbr.h"
#include "src/server/service.h"
#include "src/server/shard_router.h"
#include "src/workload/keysets.h"
#include "svcbench/helpers.h"
#include "svcbench/workload.h"

namespace {

constexpr size_t kShards = 4;  // as svcbench
constexpr size_t kLoadBatch = 1024;

struct Client {
  std::vector<svcbench::Batch> pool;
  size_t next = 0;
  // Written by the client during a slice, read by Run() after it.
  uint64_t requests = 0;
  uint64_t failed = 0;
  std::vector<double> batch_us;
  int64_t end_ns = 0;
};

struct Side {
  const svcbench::Workload* w = nullptr;
  std::vector<std::string> keys;
  std::unique_ptr<svcbench::Verifier> verifier;
  std::unique_ptr<wh::Service> svc;
  std::vector<Client> clients;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> slice{0};  // bumped to start one
  std::atomic<int64_t> deadline_ns{0};
  std::atomic<int> finished{0};
  std::atomic<bool> quit{false};
};

void ClientLoop(Side* side, Client* c) {
  wh::QsbrThreadScope scope;
  std::vector<wh::Response> resp;
  uint64_t seen = 0;
  for (;;) {
    uint64_t s;
    while ((s = side->slice.load(std::memory_order_acquire)) == seen) {
      if (side->quit.load(std::memory_order_acquire)) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    seen = s;
    const int64_t deadline = side->deadline_ns.load(std::memory_order_relaxed);
    c->requests = 0;
    c->failed = 0;
    c->batch_us.clear();
    int64_t now = svcbench::NowNs();
    while (now < deadline) {
      const svcbench::Batch& batch = c->pool[c->next];
      c->next = (c->next + 1) % c->pool.size();
      const int64_t t0 = now;
      side->svc->Execute(batch.requests, &resp);
      now = svcbench::NowNs();
      c->batch_us.push_back(static_cast<double>(now - t0) / 1e3);
      c->requests += batch.requests.size();
      c->failed += side->verifier->CountFailures(batch, resp);
    }
    c->end_ns = now;
    side->finished.fetch_add(1, std::memory_order_acq_rel);
  }
}

// svcbench's Load: keys[0, n) through Execute in kLoadBatch-Put batches
// from `clients` threads, batch i from thread i % clients.
void Load(wh::Service* svc, const std::vector<std::string>& keys, size_t n,
          int clients) {
  std::vector<std::thread> loaders;
  for (int t = 0; t < clients; t++) {
    loaders.emplace_back([&, t] {
      wh::QsbrThreadScope scope;
      std::vector<wh::Request> batch;
      std::vector<wh::Response> resp;
      for (size_t lo = t * kLoadBatch; lo < n; lo += clients * kLoadBatch) {
        const size_t hi = std::min(n, lo + kLoadBatch);
        batch.resize(hi - lo);
        for (size_t i = lo; i < hi; i++) {
          batch[i - lo].op = wh::Op::kPut;
          batch[i - lo].key = keys[i];
          batch[i - lo].value = svcbench::ValueOf(keys[i]);
        }
        svc->Execute(batch, &resp);
      }
    });
  }
  for (std::thread& t : loaders) {
    t.join();
  }
}

void* Open(const AbConfig* cfg, double* setup_s) {
  const svcbench::Workload* w = svcbench::FindWorkload(cfg->workload);
  if (w == nullptr || w->durable) {
    return nullptr;
  }
  auto side = std::make_unique<Side>();
  side->w = w;
  const svcbench::KeyChooser chooser(*w, cfg->keys);
  side->keys = wh::GenerateKeyset(
      {wh::KeysetId::kAz1, chooser.space(), cfg->seed});
  std::vector<std::string> samples;
  for (size_t i = 0; i < cfg->keys; i += std::max<size_t>(1, cfg->keys / 4096)) {
    samples.push_back(side->keys[i]);
  }
  const wh::ShardRouter router = wh::ShardRouter::FromSamples(samples, kShards);
  const int64_t t0 = svcbench::NowNs();
  side->svc = std::make_unique<wh::Service>(wh::ServiceOptions(), router);
  Load(side->svc.get(), side->keys, cfg->keys, cfg->clients);
  *setup_s = static_cast<double>(svcbench::NowNs() - t0) / 1e9;
  side->verifier = std::make_unique<svcbench::Verifier>(
      w->gets_must_hit, side->keys, cfg->keys);
  side->clients.resize(static_cast<size_t>(cfg->clients));
  for (size_t t = 0; t < side->clients.size(); t++) {
    side->clients[t].pool =
        svcbench::BuildBatches(*w, side->keys, chooser, *side->verifier,
                               cfg->seed, t, cfg->pool_requests / w->batch);
  }
  for (Client& c : side->clients) {
    side->threads.emplace_back(ClientLoop, side.get(), &c);
  }
  return side.release();
}

AbSlice Run(void* p, double seconds) {
  Side* side = static_cast<Side*>(p);
  const int64_t start = svcbench::NowNs();
  side->finished.store(0, std::memory_order_relaxed);
  side->deadline_ns.store(start + static_cast<int64_t>(seconds * 1e9),
                          std::memory_order_relaxed);
  side->slice.fetch_add(1, std::memory_order_acq_rel);
  while (side->finished.load(std::memory_order_acquire) !=
         static_cast<int>(side->clients.size())) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  AbSlice out;
  std::vector<double> lat;
  int64_t end = start;
  for (const Client& c : side->clients) {
    out.requests += c.requests;
    out.failed += c.failed;
    lat.insert(lat.end(), c.batch_us.begin(), c.batch_us.end());
    end = std::max(end, c.end_ns);
  }
  out.seconds = static_cast<double>(end - start) / 1e9;
  out.batch_p50_us = svcbench::Summarize(std::move(lat)).p50;
  return out;
}

void Close(void* p) {
  Side* side = static_cast<Side*>(p);
  side->quit.store(true, std::memory_order_release);
  for (std::thread& t : side->threads) {
    t.join();
  }
  delete side;
}

}  // namespace

extern "C" const AbSide* AB_SIDE_ENTRY() {
  static const AbSide ops{&Open, &Run, &Close};
  return &ops;
}
