// Mixed-workload throughput of the full production stack: client threads
// submit YCSB-style request batches through the simulated HERD link
// (src/net) into the Service (src/server), whose one concurrent Wormhole
// holds every key. Columns vary the workload mix:
//
//   YCSB-A  50% Get / 50% Put          YCSB-C  100% Get
//   YCSB-B  95% Get /  5% Put          YCSB-E  95% Scan(50) / 5% Put
//   churn   50% Get / 25% Put / 25% Delete
//
// Keys are drawn uniformly from the preloaded Az1 keyset, so Deletes hit and
// re-Puts restore; scans start at a random key. The WAL-off section is one
// row: without a log the Service never consults its router, so every
// partition count would measure the same configuration. A second section
// repeats the mixes in durable mode with 1/2/4/8 log partitions (one WAL
// each, group commit riding each partition's sub-batch, fsync=always) — the
// measured cost of crash durability over the identical workload. It prints
// AFTER the WAL-off section so the regression gate's YCSB-E reference
// column is unchanged.
#include <unistd.h>

#include <atomic>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/common/rng.h"
#include "src/durability/fault_file.h"
#include "src/net/herd_sim.h"
#include "src/server/service.h"

namespace {

struct Mix {
  const char* name;
  int get_pct;
  int put_pct;
  int delete_pct;  // remainder up to 100 is Scan
};

constexpr Mix kMixes[] = {
    {"YCSB-A", 50, 50, 0},
    {"YCSB-B", 95, 5, 0},
    {"YCSB-C", 100, 0, 0},
    {"YCSB-E", 0, 5, 0},  // 95% scans / 5% inserts, the canonical E
    {"churn", 50, 25, 25},
};
constexpr size_t kScanLimit = 50;
constexpr size_t kBatchSize = 128;

// Untimed batches through the same link before the clock starts. At smoke
// scale (fractions of a second per cell) the first few batches carry
// one-time costs — cursor/buffer allocation, and in durable mode the WAL's
// first segment creation + first fsyncs on a cold directory — big enough to
// swing a cell 5-10x run-to-run. Paying them off-clock makes smoke rows
// comparable.
constexpr int kWarmupBatches = 8;

void WarmupService(wh::HerdServiceLink<wh::Service>* link,
                   const std::vector<std::string>& keys, const Mix& mix) {
  wh::Rng rng(0x3a93);
  std::vector<wh::Request> batch(kBatchSize);
  std::vector<wh::Response> responses;
  const size_t n = keys.size();
  for (int b = 0; b < kWarmupBatches; b++) {
    for (auto& req : batch) {
      const int roll = static_cast<int>(rng.NextBounded(100));
      req.key = keys[rng.NextBounded(n)];
      req.value.clear();
      req.scan_limit = 0;
      if (roll < mix.get_pct) {
        req.op = wh::Op::kGet;
      } else if (roll < mix.get_pct + mix.put_pct) {
        req.op = wh::Op::kPut;
        req.value.assign("valueval", 8);
      } else if (roll < mix.get_pct + mix.put_pct + mix.delete_pct) {
        req.op = wh::Op::kDelete;
      } else {
        req.op = wh::Op::kScan;
        req.scan_limit = kScanLimit;
      }
    }
    link->ExecuteBatch(batch, &responses);
  }
}

double ServiceThroughput(wh::Service* service,
                         const std::vector<std::string>& keys, const Mix& mix,
                         int threads, double seconds) {
  wh::HerdConfig config;
  config.batch_size = kBatchSize;
  wh::HerdServiceLink<wh::Service> link(service, config);
  WarmupService(&link, keys, mix);
  return wh::RunThroughput(threads, seconds, [&](int tid,
                                                 const std::atomic<bool>& stop) {
    wh::Rng rng(0x5e41ce + static_cast<uint64_t>(tid));
    std::vector<wh::Request> batch(kBatchSize);
    std::vector<wh::Response> responses;
    uint64_t ops = 0;
    const size_t n = keys.size();
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& req : batch) {
        const int roll = static_cast<int>(rng.NextBounded(100));
        req.key = keys[rng.NextBounded(n)];
        req.value.clear();
        req.scan_limit = 0;
        if (roll < mix.get_pct) {
          req.op = wh::Op::kGet;
        } else if (roll < mix.get_pct + mix.put_pct) {
          req.op = wh::Op::kPut;
          req.value.assign("valueval", 8);
        } else if (roll < mix.get_pct + mix.put_pct + mix.delete_pct) {
          req.op = wh::Op::kDelete;
        } else {
          req.op = wh::Op::kScan;
          req.scan_limit = kScanLimit;
        }
      }
      link.ExecuteBatch(batch, &responses);
      ops += batch.size();
    }
    return ops;
  });
}

}  // namespace

int main(int argc, char** argv) {
  wh::BenchInit("service_mixed", argc, argv);
  const wh::BenchEnv env = wh::GetBenchEnv();
  const auto& keys = wh::GetKeyset(wh::KeysetId::kAz1, env.scale);

  std::vector<std::string> cols;
  for (const Mix& mix : kMixes) {
    cols.push_back(mix.name);
  }
  wh::PrintHeader("Service: mixed-workload throughput (MOPS), batch=" +
                      std::to_string(kBatchSize) + ", keyset Az1, " +
                      std::to_string(env.threads) + " threads",
                  cols);

  {
    std::vector<double> row;
    for (const Mix& mix : kMixes) {
      // A fresh service per cell: churn workloads mutate the dataset, and
      // each cell should start from the same loaded state.
      wh::Service service(wh::ServiceOptions{}, wh::ShardRouter({}));
      wh::LoadService(&service, keys);
      row.push_back(
          ServiceThroughput(&service, keys, mix, env.threads, env.seconds));
    }
    wh::PrintRow("WAL off", row);
  }

  wh::PrintHeader(
      "Service, durable mode (one WAL per log partition, group commit per "
      "partition sub-batch, fsync=always): mixed-workload throughput (MOPS), "
      "batch=" +
          std::to_string(kBatchSize) + ", keyset Az1, " +
          std::to_string(env.threads) + " threads",
      cols);
  // One tmpdir REUSED for every durable cell (wiped between cells so no
  // recovery replay leaks across): per-cell fresh directories made each
  // cell's first fsyncs pay cold dir-creation metadata costs, which at smoke
  // scale showed up as 5-10x row noise. Combined with the untimed warmup in
  // ServiceThroughput (which creates the segment files and absorbs the first
  // fsyncs), durable rows become comparable run-to-run.
  const std::string wal_root = "/tmp/wh_service_mixed_wal." +
                               std::to_string(static_cast<long>(::getpid()));
  const std::string wal_dir = wal_root + "/active";
  const std::vector<std::string> samples = wh::SampleKeys(keys, 256);
  for (const size_t partitions : {1, 2, 4, 8}) {
    const wh::ShardRouter router =
        wh::ShardRouter::FromSamples(samples, partitions);
    std::vector<double> row;
    for (const Mix& mix : kMixes) {
      static_cast<void>(wh::durability::Fs::Default()->RemoveAll(wal_dir));
      wh::ServiceOptions opt;
      opt.durability.enabled = true;
      opt.durability.dir = wal_dir;
      {
        wh::Service service(opt, router);
        wh::LoadService(&service, keys);
        row.push_back(
            ServiceThroughput(&service, keys, mix, env.threads, env.seconds));
      }
    }
    wh::PrintRow("P=" + std::to_string(router.shard_count()) + "+wal", row);
  }
  static_cast<void>(wh::durability::Fs::Default()->RemoveAll(wal_root));
  return 0;
}
