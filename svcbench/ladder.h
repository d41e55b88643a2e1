// The layer ladder of the traced run: a single-threaded replay of a fixed
// seeded slice of the workload's request stream that times the public entry
// point of each module (server, core, common, durability) from the
// benchmark's own code.
//
// It runs on its own stack, loaded from the same keys in the same order:
//   - a Service configured like the workload's (the root span of a batch is
//     its Execute);
//   - one Wormhole per shard, each in its own QSBR domain and configured
//     like the Service's shards, plus one Wal per shard with fsync policy
//     none. The ladder
//     replays each batch against them the way Execute does (group by shard,
//     log the shard's mutations, runs of MultiGet / MultiPut, Delete, cursor
//     scans merged across shards). Those calls are the batch's child spans,
//     and Execute minus their sum is the server's self time;
//   - a WormholeUnsafe over the same items, for FindLeaf (the LPM route).
// No timed structure counts trie probes: counting adds shared counter
// updates to every lookup that the Service does not pay. core.trie_probes
// comes from an untimed pass over a separate counting WormholeUnsafe, built
// after the timed passes.
// Per-key stages are also timed in isolation over every batch's keys
// (ShardOf, Crc32c, FindLeaf, Get). An entry point the workload's mix never
// calls is timed on a stand-in over the batch's keys instead, so every layer
// has a figure on every workload; stand-ins leave the items unchanged.
#ifndef SVCBENCH_LADDER_H_
#define SVCBENCH_LADDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/qsbr.h"
#include "src/core/wormhole.h"
#include "src/durability/wal.h"
#include "src/server/service.h"
#include "svcbench/helpers.h"
#include "svcbench/workload.h"

namespace svcbench {

// Span names, in the order of kSpanInfo in ladder.cc.
enum SpanName : uint16_t {
  kExecute,
  kRoute,
  kCrc32c,
  kLpm,
  kGet,
  kMultiGet,
  kPut,
  kDelete,
  kSeek,
  kNext,
  kAppend,
  kFsync,
  kSpanNames,
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Ladder {
 public:
  // Loads every structure of the stack with keys[0, n) (single-threaded, in
  // order) under dir, which must exist and be empty. keys and verifier must
  // outlive the ladder.
  Ladder(const Workload& w, const wh::ShardRouter& router,
         const std::vector<std::string>& keys, size_t n,
         const Verifier& verifier, const std::string& dir);
  ~Ladder();
  Ladder(const Ladder&) = delete;
  Ladder& operator=(const Ladder&) = delete;

  // Replays the slice. Call from one thread, the one that built the ladder.
  void Run(const std::vector<Batch>& slice);

  // Per-layer metrics of the replay, named as in svcbench/README.md.
  std::vector<Metric> Metrics() const;

  const std::vector<Span>& spans() const { return spans_; }
  static const char* SpanLabel(uint16_t name);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  struct MirrorShard {
    std::unique_ptr<wh::Qsbr> qsbr;  // outlives index (declared first)
    std::unique_ptr<wh::Wormhole> index;
    std::unique_ptr<wh::durability::Wal> wal;
  };

  void Record(uint32_t batch, SpanName name, SpanKind kind, int64_t t0,
              uint32_t items);
  // Serves batch on the mirror shards the way Service::Execute does; with
  // log set, each shard's mutations are appended and synced first.
  void Replay(const std::vector<wh::Request>& batch, uint32_t id,
              SpanKind kind, bool log, std::vector<wh::Response>* out);
  void ReplayScan(size_t first_shard, const wh::Request& req, uint32_t id,
                  SpanKind kind, wh::Response* resp,
                  std::vector<std::unique_ptr<wh::Cursor>>* cursors);
  void Log(size_t shard, const std::vector<wh::durability::WalEntry>& entries,
           uint32_t id, SpanKind kind);
  void TimeKeyStages(const std::vector<wh::Request>& batch, uint32_t id,
                     std::vector<uint8_t>* hits);
  void TimeStandIns(const std::vector<wh::Request>& batch, uint32_t id,
                    const std::vector<uint8_t>& hits);
  // Average trie probes of FindLeaf over the slice's keys, on a counting
  // WormholeUnsafe loaded like unsafe_ (which it replaces).
  double CountTrieProbes(const std::vector<Batch>& slice);

  const Workload& w_;
  const std::vector<std::string>& keys_;
  const size_t n_;
  const Verifier& verifier_;
  wh::ShardRouter router_;
  std::string dir_;
  std::unique_ptr<wh::Service> svc_;
  std::vector<MirrorShard> shards_;
  std::unique_ptr<wh::WormholeUnsafe> unsafe_;

  std::vector<Span> spans_;
  std::vector<double> shards_per_batch_;
  std::vector<double> qsbr_pending_;
  uint32_t batches_ = 0;
  uint64_t fsyncs_in_execute_ = 0;  // Sync calls among child spans
  uint64_t wal_records_ = 0;
  uint64_t wal_bytes_ = 0;
  double trie_probes_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace svcbench

#endif  // SVCBENCH_LADDER_H_
