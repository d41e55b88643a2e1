// Sharded KV service: the store built *around* the Wormhole index. The paper
// positions Wormhole as the ordered index inside an in-memory key-value
// store; this layer is that store's request plane.
//
// Request/batch model: clients submit batches of independent Get / Put /
// Delete / Scan requests. Execute() groups a batch by shard (ShardRouter
// range-partitions the keyspace by boundary anchors), executes each shard's
// sub-batch in submission order, and scatters results back into a response
// array parallel to the batch. Within a shard, maximal runs of consecutive
// Gets and Puts are executed through the core's batch entry points
// (Wormhole::MultiGet / MultiPut), which serve a whole run under one
// quiescent-state report. MultiGet takes no leaf lock on its fast path: it
// runs groups of ~8 keys through the core's prefetch-interleaved pipeline,
// which overlaps their trie walks and then their seqlock-validated in-leaf
// searches. MultiPut runs the same pipeline: it walks a group's routes
// together and searches each key's leaf lock-free under a version snapshot,
// then applies the Puts in order under their leaves' exclusive locks,
// keeping a key's pre-searched positions when the leaf's version has not
// moved since the search (else it searches again under the lock), and
// reusing a held lock across consecutive keys in the same leaf. A run of
// scans first walks its routes together (Wormhole::PrefetchRoutes). That
// QSBR-, lock- and memory-latency amortization is what makes batching
// pay.
//
// Ordering contract: requests to the same shard (hence: all requests touching
// any single key) are applied in batch order. Requests to different shards
// may interleave arbitrarily. Scans (kScan ascending from the start key,
// kScanRev descending from it) merge per-shard epoch-pinned cursor streams
// — the k-way merge specialized to this router's disjoint, ordered shard
// ranges, where picking the extreme key at each step collapses to draining
// one shard's cursor at a time, opened lazily as the scan reaches it. A
// shard's cursor is opened at most ONCE per Execute() batch and reused by
// every scan in the batch (repositioning re-routes freshly, so reuse never
// changes what a scan observes); it is destroyed when the batch returns, so
// its epoch pin never outlives the batch, while its window buffer goes back
// to the calling thread's free list for the next batch's cursors
// (Wormhole::NewCursor). Each scan's remaining item budget is passed down
// as the cursor's scan-limit hint so short scans use the core's bounded fill
// (see wormhole.h) and copy only the items they return.
// Because shards partition the keyspace in order, the merged stream is
// globally ordered, and under quiescence it is exactly the ordered whole;
// under concurrent writers each shard contributes per-leaf-snapshot results
// (see wormhole.h), observed from the moment the scan reaches it.
// A scan_limit of 0 is valid and returns an empty item list (no shard is
// visited, no cursor opened).
//
// Durable mode (ServiceOptions::durability): each shard owns a per-shard WAL
// (src/durability/wal.h) and a snapshot directory under durability.dir/
// shard-<i>. Execute() group-commits a shard sub-batch's mutations as ONE
// WAL append (+ fsync per policy) BEFORE applying them to the index, under
// that shard's wal_mu — so the WAL's record order is exactly the apply
// order, which is what makes replay reproduce the shard byte-for-byte. A
// batch whose WAL append or fsync fails is NOT applied: its mutating
// requests come back with Response::ok == false and the shard goes
// FAIL-STOP (later mutations are refused with the first error; reads still
// serve — memory is a superset of the durable state). The constructor
// recovers every shard (snapshot + WAL tail; see snapshot.h) before serving,
// and Checkpoint() publishes fresh snapshots through epoch-pinned cursor
// sweeps while writers stay live, then truncates each WAL at its floor.
// Read-only sub-batches never touch wal_mu, so the WAL-off read path is
// unchanged.
//
// Threading contract: Execute() may be called concurrently from any number of
// client threads — the router is immutable and each shard is a concurrent
// Wormhole. Every shard owns a private QSBR domain, so a slow batch in one
// shard never stalls memory reclamation in another. Client threads join a
// shard's domain lazily on first touch and leave it at thread exit
// (wh::QsbrThreadScope scopes this to a worker's lifetime); destroy the
// Service only after all client threads have quiesced or exited.
#ifndef WH_SRC_SERVER_SERVICE_H_
#define WH_SRC_SERVER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/qsbr.h"
#include "src/common/sync.h"
#include "src/core/wormhole.h"
#include "src/durability/fault_file.h"
#include "src/durability/snapshot.h"
#include "src/durability/wal.h"
#include "src/server/shard_router.h"

namespace wh {

enum class Op : uint8_t { kGet, kPut, kDelete, kScan, kScanRev };

// Input bounds (kMaxKeyBytes / kMaxValueBytes, wormhole.h): Execute refuses
// a longer key or value (Response::ok == false) before routing it, so it is
// neither logged nor applied.

struct Request {
  Op op = Op::kGet;
  std::string key;          // Get/Put/Delete key; Scan/ScanRev start (inclusive)
  std::string value;        // Put payload
  // Scan/ScanRev: max items returned. 0 is valid and yields an empty item
  // list (documented in the ordering contract above).
  uint32_t scan_limit = 0;
};

// Fields an op does not set read false / empty (Execute resets them).
struct Response {
  // Get: hit; Delete: key existed; Put: always true; Scan/ScanRev and
  // refused requests: false.
  bool found = false;
  // False means the request was refused and changed nothing: its key or
  // value exceeds the input bounds above (any op, any mode), or, in durable
  // mode, it is a mutation whose WAL append/fsync failed (see the
  // durable-mode contract above).
  bool ok = true;
  std::string value;   // Get hit payload
  // Scan results merged across shards into one globally ordered stream:
  // ascending from the start key for kScan, descending for kScanRev.
  std::vector<std::pair<std::string, std::string>> items;
};

struct DurabilityOptions {
  bool enabled = false;
  // Root directory; shard i persists under <dir>/shard-<i>. Created on
  // demand (recovery starts from whatever is there).
  std::string dir;
  durability::WalOptions wal;
  // Injection point for tests (fault_file.h). Null = shared passthrough Fs.
  // Must outlive the Service.
  durability::Fs* fs = nullptr;
};

struct ServiceOptions {
  Options index;  // per-shard Wormhole options
  DurabilityOptions durability;
};

class Service {
 public:
  // Aliases for link adapters templated over the service (src/net).
  using RequestType = Request;
  using ResponseType = Response;

  Service(const ServiceOptions& opt, ShardRouter router);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Executes one batch; *responses is resized to batch.size() and
  // responses[i] answers batch[i]. Every field of every responses[i] is
  // overwritten, so a vector from an earlier batch carries nothing stale.
  // Its Response objects are kept, though: a scan writes its items over the
  // strings already in `items`, keeping their capacity, and the item
  // strings a response gives up (it serves a non-scan op, or a shorter
  // scan) go to a bounded per-thread free list that later scans on this
  // thread draw from. So a client that reuses one vector across batches
  // stops allocating for scan results once they reach their high-water
  // sizes, whatever op each position serves. A caller that wants the memory
  // back passes a fresh vector. Any number of client threads may call
  // concurrently.
  void Execute(const std::vector<Request>& batch,
               std::vector<Response>* responses);

  // Equal to shards_.size() by construction.
  size_t shard_count() const { return router_.shard_count(); }
  const ShardRouter& router() const { return router_; }

  // Total item count / footprint across shards (not atomic across them).
  size_t size() const;
  uint64_t MemoryBytes() const;

  // Durable mode: snapshots every shard (epoch-pinned cursor sweep; writers
  // stay live) and truncates each WAL at its snapshot floor. Returns the
  // first error; an error from shard i leaves shards 0..i-1 checkpointed.
  durability::Status Checkpoint();

  // First durability error across shards (recovery failure or a failed
  // append/fsync that tripped fail-stop); ok when everything is healthy.
  durability::Status durability_status() const;

  bool durable() const { return dur_.enabled; }

 private:
  // qsbr must outlive index: the Wormhole destructor drains into its domain.
  // Declared first for exactly that reason (members destruct in reverse).
  struct Shard {
    std::unique_ptr<Qsbr> qsbr;
    std::unique_ptr<Wormhole> index;
    // --- durable mode only (wal == nullptr otherwise) ---
    // wal_mu serializes WAL append + index apply for mutating sub-batches,
    // making WAL record order identical to apply order (the property replay
    // correctness rests on). Reads never take it.
    Mutex wal_mu;
    std::unique_ptr<durability::Wal> wal;
    std::string dir;
    // Seq of the last mutation applied to the index; released after apply so
    // Checkpoint's acquire-load sees a floor whose every record is visible
    // to its cursor sweep.
    std::atomic<uint64_t> applied_seq{0};
    // Fail-stop flag; the first error is kept under wal_mu.
    std::atomic<bool> failed{false};
    durability::Status first_error GUARDED_BY(wal_mu);
  };

  // Execute's per-thread scratch: each call clears what it uses and keeps
  // the capacity, so steady batches allocate nothing for it.
  struct ExecScratch {
    // Grouping: each request's shard, the per-shard offsets into `order`,
    // and the counting sort's fill positions.
    std::vector<uint32_t> shard_of;
    std::vector<size_t> offsets;
    std::vector<uint32_t> order;
    std::vector<size_t> fill;
    // Run dispatch (RunShardOps).
    std::vector<std::string_view> keys;
    std::vector<std::string> values;
    std::vector<uint8_t> hits;
    std::vector<std::pair<std::string_view, std::string_view>> puts;
    std::vector<durability::WalEntry> wal_entries;
    // One cursor per shard, opened on the first scan of the batch that
    // touches the shard and reused (epoch pin, QSBR slot and window buffer)
    // by every later scan in it — repositioning re-routes freshly, so reuse
    // never changes what a scan observes. Per thread, so concurrent Execute
    // callers never share a cursor. Cleared when the batch returns, which
    // releases the epoch pins (a cursor kept across batches would stall
    // reclamation) and hands the window buffers to this thread's free list
    // for the next batch's cursors (see Wormhole::NewCursor); the vector
    // keeps its capacity.
    std::vector<std::unique_ptr<Cursor>> cursors;
  };

  // Executes shard s's grouped sub-batch (run detection + MultiGet/MultiPut
  // dispatch). With apply_mutations == false (durable fail-stop), Get/Scan
  // are still served but Put/Delete are refused with ok = false.
  void RunShardOps(size_t s, const std::vector<Request>& batch,
                   const uint32_t* idx, size_t idx_n,
                   std::vector<Response>* responses, ExecScratch* scratch,
                   bool apply_mutations);

  // *cursors is Execute()'s per-batch shard-cursor cache
  // (ExecScratch::cursors): slot s holds the cursor for shard s once any
  // scan in the batch has touched it (empty until the batch's first scan
  // resizes it).
  void ExecuteScan(size_t first_shard, const Request& req, Response* resp,
                   std::vector<std::unique_ptr<Cursor>>* cursors);

  // Constructor-time recovery of one shard: snapshot + WAL tail into the
  // empty index, then Wal::Open on the same dir. Errors mark the shard
  // failed (the service still constructs; see durability_status()).
  void RecoverShardFromDisk(Shard* shard, size_t shard_index);

  ShardRouter router_;  // immutable after construction (see shard_router.h)
  DurabilityOptions dur_;
  // Written only by the constructor, so client threads read the vector with
  // no lock (a shared topology lock would put one reader-count RMW per
  // Execute on a line every client thread shares; each shard index has its
  // own internal synchronization). unique_ptr elements: Shard carries a
  // Mutex (immovable), and stable Shard addresses are what lets Execute
  // hold a shard's wal_mu while other threads touch the other elements.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace wh

#endif  // WH_SRC_SERVER_SERVICE_H_
