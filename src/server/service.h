// KV service: the store built *around* the Wormhole index. The paper
// positions Wormhole as the ordered index inside an in-memory key-value
// store; this layer is that store's request plane. One concurrent Wormhole
// holds every key, with one QSBR domain; the ShardRouter only partitions the
// write-ahead log (durable mode below).
//
// Request/batch model: clients submit batches of independent Get / Put /
// Delete / Scan requests, and Execute() answers each in a response array
// parallel to the batch. Maximal runs of consecutive Gets and Puts are
// executed through the core's batch entry points (Wormhole::MultiGet /
// MultiPut), which serve a whole run under one quiescent-state report.
// MultiGet takes no leaf lock on its fast path: it runs groups of 16 keys
// through the core's prefetch-interleaved pipeline, which overlaps their
// trie walks and then their seqlock-validated in-leaf searches. MultiPut
// runs the same pipeline: it walks a group's routes together and searches
// each key's leaf lock-free under a version snapshot, then applies the Puts
// in order under their leaves' exclusive locks, keeping a key's pre-searched
// positions when the leaf's version has not moved since the search (else it
// searches again under the lock), and reusing a held lock across
// consecutive keys in the same leaf. A run of scans first walks its routes
// together (Wormhole::PrefetchRoutes). That QSBR-, lock- and memory-latency
// amortization is what makes batching pay.
//
// Ordering contract. WAL-off: the whole batch applies in submission order,
// so a batch's Get run is one MultiGet over all its keys. Durable mode: a
// batch is grouped by log partition (ShardRouter range partitions; every
// request on one key lands in one partition) and each partition's
// sub-batch applies in submission order; requests of different partitions
// may interleave arbitrarily. Scans (kScan ascending from the start key,
// kScanRev descending from it) run on one epoch-pinned cursor over the
// whole index, so they cross partition boundaries like any other key. The
// cursor is opened at most ONCE per Execute() batch, on its first scan, and
// reused by every later scan in the batch (repositioning re-routes freshly,
// so reuse never changes what a scan observes); it is destroyed when the
// batch returns, so its epoch pin never outlives the batch, while its window
// buffer goes back to the calling thread's free list for the next batch's
// cursor (Wormhole::NewCursor). Each scan's item budget is passed down as
// the cursor's scan-limit hint so short scans use the core's bounded fill
// (see wormhole.h) and copy only the items they return. Under quiescence a
// scan returns exactly the ordered whole; under concurrent writers it
// returns per-leaf-snapshot results (see wormhole.h). A scan_limit of 0 is
// valid and returns an empty item list (no cursor is opened).
//
// Durable mode (ServiceOptions::durability): each log partition owns a WAL
// (src/durability/wal.h) and a snapshot directory under durability.dir/
// shard-<i>. Execute() group-commits a partition sub-batch's mutations as
// ONE WAL append (+ fsync per policy) BEFORE applying them to the index,
// under that partition's wal_mu — so the WAL's record order is exactly the
// apply order of the partition's keys, which is what makes replay reproduce
// them. A batch whose WAL append or fsync fails is NOT applied: its
// mutating requests come back with Response::ok == false and the partition
// goes FAIL-STOP (later mutations are refused with the first error; reads
// still serve — memory is a superset of the durable state). The constructor
// replays every partition (snapshot + WAL tail; see snapshot.h) into the
// index before serving, and Checkpoint() publishes each partition's
// snapshot through an epoch-pinned cursor sweep of its key range while
// writers stay live, then truncates its WAL at its floor. Read-only
// sub-batches never touch wal_mu.
//
// Threading contract: Execute() may be called concurrently from any number of
// client threads — the router is immutable and the index is a concurrent
// Wormhole. Client threads join the Service's QSBR domain lazily on first
// touch and leave it at thread exit (wh::QsbrThreadScope scopes this to a
// worker's lifetime); destroy the Service only after all client threads
// have quiesced or exited.
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
  // Scan results in key order: ascending from the start key for kScan,
  // descending for kScanRev.
  std::vector<std::pair<std::string, std::string>> items;
};

struct DurabilityOptions {
  bool enabled = false;
  // Root directory; log partition i persists under <dir>/shard-<i>. Created
  // on demand (recovery starts from whatever is there).
  std::string dir;
  durability::WalOptions wal;
  // Injection point for tests (fault_file.h). Null = shared passthrough Fs.
  // Must outlive the Service.
  durability::Fs* fs = nullptr;
};

struct ServiceOptions {
  Options index;  // the Wormhole's options
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

  // Log partitions: router().shard_count() in durable mode, 1 in WAL-off
  // mode (which never consults the router).
  size_t partition_count() const { return partitions_.size(); }
  const ShardRouter& router() const { return router_; }

  // The index's item count / footprint.
  size_t size() const;
  uint64_t MemoryBytes() const;

  // Durable mode: snapshots every partition (epoch-pinned cursor sweep of
  // its key range; writers stay live) and truncates its WAL at the snapshot
  // floor. Returns the first error; an error from partition i leaves
  // partitions 0..i-1 checkpointed.
  durability::Status Checkpoint();

  // First durability error across partitions (recovery failure or a failed
  // append/fsync that tripped fail-stop); ok when everything is healthy.
  durability::Status durability_status() const;

  bool durable() const { return dur_.enabled; }

 private:
  // One log partition's durable state (wal == nullptr in WAL-off mode).
  struct Partition {
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
    // Grouping: each request's partition, the per-partition offsets into
    // `order`, and the counting sort's fill positions.
    std::vector<uint32_t> part_of;
    std::vector<size_t> offsets;
    std::vector<uint32_t> order;
    std::vector<size_t> fill;
    // Run dispatch (RunOps).
    std::vector<std::string_view> keys;
    std::vector<std::string> values;
    std::vector<uint8_t> hits;
    std::vector<std::pair<std::string_view, std::string_view>> puts;
    std::vector<durability::WalEntry> wal_entries;
    // The batch's cursor, opened by its first scan and reused (epoch pin,
    // QSBR slot and window buffer) by every later one — repositioning
    // re-routes freshly, so reuse never changes what a scan observes. Per
    // thread, so concurrent Execute callers never share a cursor. Reset when
    // the batch returns, which releases the epoch pin (a cursor kept across
    // batches would stall reclamation) and hands the window buffer to this
    // thread's free list for the next batch's cursor (see
    // Wormhole::NewCursor).
    std::unique_ptr<Cursor> cursor;
  };

  // Executes the requests batch[idx[0..idx_n)) in that order (run detection
  // + MultiGet/MultiPut dispatch). With apply_mutations == false (durable
  // fail-stop), Get/Scan are still served but Put/Delete are refused with
  // ok = false.
  void RunOps(const std::vector<Request>& batch, const uint32_t* idx,
              size_t idx_n, std::vector<Response>* responses,
              ExecScratch* scratch, bool apply_mutations);

  // *cursor is the batch's cursor (ExecScratch::cursor), opened here on the
  // batch's first scan.
  void ExecuteScan(const Request& req, Response* resp,
                   std::unique_ptr<Cursor>* cursor);

  // Constructor-time recovery of partition i: snapshot + WAL tail into the
  // index, then Wal::Open on the same dir. Errors mark the partition failed
  // (the service still constructs; see durability_status()).
  void RecoverPartition(Partition* part, size_t i);

  ShardRouter router_;  // immutable after construction (see shard_router.h)
  DurabilityOptions dur_;
  // qsbr_ must outlive index_: the Wormhole destructor drains into its
  // domain. Declared first for exactly that reason (members destruct in
  // reverse).
  Qsbr qsbr_;
  Wormhole index_;
  // Written only by the constructor, so client threads read the vector with
  // no lock. unique_ptr elements: Partition carries a Mutex (immovable), and
  // stable addresses are what lets Execute hold one partition's wal_mu while
  // other threads touch the others.
  std::vector<std::unique_ptr<Partition>> partitions_;
};

}  // namespace wh

#endif  // WH_SRC_SERVER_SERVICE_H_
