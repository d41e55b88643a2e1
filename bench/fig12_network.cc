// Fig. 12: lookup throughput on a networked key-value store. HERD + 100 Gb/s
// InfiniBand is simulated by the token-bucket wire model (src/net): client
// threads issue batches of 800 requests; request/response bytes are charged
// against the link, which becomes the bottleneck for large keys (K10).
//
// The final row drives the full production stack instead of a bare index:
// client batches of Get requests through HerdServiceLink into the Service
// (one concurrent Wormhole, WAL off).
#include <vector>

#include "bench/common.h"
#include "src/common/rng.h"
#include "src/net/herd_sim.h"
#include "src/server/service.h"

int main(int argc, char** argv) {
  wh::BenchInit("fig12_network", argc, argv);
  const wh::BenchEnv env = wh::GetBenchEnv();
  std::vector<std::string> cols;
  for (const wh::KeysetId id : wh::kAllKeysets) {
    cols.push_back(wh::KeysetName(id));
  }
  wh::PrintHeader("Fig. 12: networked lookup throughput (MOPS), batch=800, 100Gb/s link",
                  cols);
  for (const char* name : {"SkipList", "B+tree", "ART", "Masstree", "Wormhole"}) {
    std::vector<double> row;
    for (const wh::KeysetId id : wh::kAllKeysets) {
      const auto& keys = wh::GetKeyset(id, env.scale);
      auto index = wh::MakeIndex(name);
      wh::LoadIndex(index.get(), keys);
      wh::HerdConfig config;
      wh::HerdStore<wh::IndexIface> store(index.get(), config);
      const double mops = wh::RunThroughput(
          env.threads, env.seconds, [&](int tid, const std::atomic<bool>& stop) {
            wh::Rng rng(777 + static_cast<uint64_t>(tid));
            std::vector<const std::string*> batch(store.config().batch_size);
            uint64_t ops = 0;
            while (!stop.load(std::memory_order_relaxed)) {
              for (auto& slot : batch) {
                slot = &keys[rng.NextBounded(keys.size())];
              }
              store.LookupBatch(batch);
              ops += batch.size();
            }
            return ops;
          });
      row.push_back(mops);
    }
    wh::PrintRow(name, row);
  }

  std::vector<double> service_row;
  for (const wh::KeysetId id : wh::kAllKeysets) {
    const auto& keys = wh::GetKeyset(id, env.scale);
    wh::Service service(wh::ServiceOptions{}, wh::ShardRouter({}));
    wh::LoadService(&service, keys);
    wh::HerdConfig config;
    wh::HerdServiceLink<wh::Service> link(&service, config);
    const double mops = wh::RunThroughput(
        env.threads, env.seconds, [&](int tid, const std::atomic<bool>& stop) {
          wh::Rng rng(777 + static_cast<uint64_t>(tid));
          std::vector<wh::Request> batch(link.config().batch_size);
          std::vector<wh::Response> responses;
          uint64_t ops = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            for (auto& req : batch) {
              req.op = wh::Op::kGet;
              req.key = keys[rng.NextBounded(keys.size())];
            }
            link.ExecuteBatch(batch, &responses);
            ops += batch.size();
          }
          return ops;
        });
    service_row.push_back(mops);
  }
  wh::PrintRow("Service", service_row);
  return 0;
}
