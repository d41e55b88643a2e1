// The benchmark's workloads and its seeded request generator. Every request
// a run sends is built here, before any clock starts; the store only ever
// sees these pregenerated batches.
#ifndef SVCBENCH_WORKLOAD_H_
#define SVCBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/server/service.h"
#include "svcbench/helpers.h"

namespace svcbench {

constexpr uint32_t kScanLimit = 50;
constexpr double kZipfTheta = 0.99;

struct Workload {
  const char* name;
  // Percentages; they sum to 100.
  int get_pct;
  int put_pct;
  int delete_pct;
  int scan_pct;
  int scanrev_pct;
  size_t batch;  // requests per Execute call
  bool zipf;     // scrambled Zipfian keys; uniform otherwise
  bool durable;  // per-shard WAL with fsync=always
  // The keyset is extended by 10% unloaded keys, and Puts and Deletes draw
  // only from those, so they insert and remove (hot leaves split) while
  // every loaded key stays present.
  bool extended_keys;
  // Every Get must hit: the workload never deletes a loaded key.
  bool gets_must_hit;
};

// Why each workload exists is in svcbench/README.md.
inline constexpr Workload kWorkloads[] = {
    {"get-uniform", 100, 0, 0, 0, 0, 128, false, false, false, true},
    {"scan-churn", 0, 10, 10, 60, 20, 32, true, false, true, false},
    {"durable-ycsba", 50, 50, 0, 0, 0, 128, true, true, false, true},
};

inline const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// Draws request keys for one workload from keys[0, loaded) — from
// keys[0, loaded + loaded / 10) with extended keys. Reads and scans draw from
// the whole range. Writes on a workload with extended keys draw only from the
// unloaded tenth, so every loaded key stays present and can be pinned by the
// Verifier; elsewhere writes are updates of loaded keys.
class KeyChooser {
 public:
  KeyChooser(const Workload& w, size_t loaded)
      : write_base_(w.extended_keys ? loaded : 0),
        read_(w, w.extended_keys ? loaded + loaded / 10 : loaded),
        write_(w, w.extended_keys ? loaded / 10 : loaded) {}

  size_t NextRead(wh::Rng& rng) const { return read_.Next(rng); }
  size_t NextWrite(wh::Rng& rng) const {
    return write_base_ + write_.Next(rng);
  }
  // Keys a run draws from: keys[0, space()).
  size_t space() const { return read_.n; }

 private:
  struct Range {
    Range(const Workload& w, size_t count)
        : n(count),
          zipf(w.zipf ? std::make_unique<ScrambledZipfian>(count, kZipfTheta)
                      : nullptr) {}
    size_t Next(wh::Rng& rng) const {
      return zipf ? zipf->Next(rng) : rng.NextBounded(n);
    }
    size_t n;
    std::unique_ptr<ScrambledZipfian> zipf;
  };

  size_t write_base_;
  Range read_;
  Range write_;
};

// `count` batches of stream `stream` (one stream per client thread) of
// workload w with seed `seed`, each scan with its position for `verifier`.
// Same arguments, same batches.
inline std::vector<Batch> BuildBatches(const Workload& w,
                                       const std::vector<std::string>& keys,
                                       const KeyChooser& chooser,
                                       const Verifier& verifier, uint64_t seed,
                                       uint64_t stream, size_t count) {
  wh::Rng rng(seed * 0x9e3779b97f4a7c15ull + stream + 1);
  std::vector<Batch> batches(count);
  for (Batch& batch : batches) {
    batch.requests.resize(w.batch);
    batch.scan_pos.assign(w.batch, 0);
    for (size_t i = 0; i < w.batch; i++) {
      wh::Request& req = batch.requests[i];
      const int roll = static_cast<int>(rng.NextBounded(100));
      if (roll < w.get_pct) {
        req.op = wh::Op::kGet;
        req.key = keys[chooser.NextRead(rng)];
      } else if (roll < w.get_pct + w.put_pct) {
        req.op = wh::Op::kPut;
        req.key = keys[chooser.NextWrite(rng)];
        req.value = ValueOf(req.key);
      } else if (roll < w.get_pct + w.put_pct + w.delete_pct) {
        req.op = wh::Op::kDelete;
        req.key = keys[chooser.NextWrite(rng)];
      } else {
        req.op = roll < w.get_pct + w.put_pct + w.delete_pct + w.scan_pct
                     ? wh::Op::kScan
                     : wh::Op::kScanRev;
        req.key = keys[chooser.NextRead(rng)];
        req.scan_limit = kScanLimit;
        batch.scan_pos[i] = verifier.ScanPosition(req);
      }
    }
  }
  return batches;
}

}  // namespace svcbench

#endif  // SVCBENCH_WORKLOAD_H_
