// Fig. 15: single-thread continuous-insertion throughput into an initially empty
// index, for all five ordered indexes and all keysets. The extra
// "Wormhole (MultiPut)" row loads the same keys through Wormhole::MultiPut in
// 1024-key batches, the batched write path the Service's Put runs take.
#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "src/common/timing.h"
#include "src/core/wormhole.h"

namespace {

constexpr size_t kBatch = 1024;

// LoadIndex's load of `keys`, through MultiPut; returns MOPS.
double MultiPutLoad(const std::vector<std::string>& keys) {
  wh::Wormhole index;
  std::vector<std::pair<std::string_view, std::string_view>> batch;
  batch.reserve(kBatch);
  wh::Timer timer;
  for (size_t lo = 0; lo < keys.size(); lo += kBatch) {
    batch.clear();
    for (size_t i = lo; i < std::min(keys.size(), lo + kBatch); i++) {
      batch.emplace_back(keys[i], std::string_view("valuevalu", 8));
    }
    index.MultiPut(batch);
  }
  return static_cast<double>(keys.size()) / timer.ElapsedSeconds() / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  wh::BenchInit("fig15_insert", argc, argv);
  const wh::BenchEnv env = wh::GetBenchEnv();
  std::vector<std::string> cols;
  for (const wh::KeysetId id : wh::kAllKeysets) {
    cols.push_back(wh::KeysetName(id));
  }
  wh::PrintHeader("Fig. 15: insertion throughput (MOPS), single thread", cols);
  for (const char* name : {"SkipList", "B+tree", "ART", "Masstree", "Wormhole"}) {
    std::vector<double> row;
    for (const wh::KeysetId id : wh::kAllKeysets) {
      const auto& keys = wh::GetKeyset(id, env.scale);
      auto index = wh::MakeIndex(name);
      wh::Timer timer;
      wh::LoadIndex(index.get(), keys);
      row.push_back(static_cast<double>(keys.size()) / timer.ElapsedSeconds() / 1e6);
    }
    wh::PrintRow(name, row);
  }
  std::vector<double> row;
  for (const wh::KeysetId id : wh::kAllKeysets) {
    row.push_back(MultiPutLoad(wh::GetKeyset(id, env.scale)));
  }
  wh::PrintRow("Wormhole (MultiPut)", row);
  return 0;
}
