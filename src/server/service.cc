#include "src/server/service.h"

#include <algorithm>
#include <limits>

#include "src/common/free_list.h"

namespace wh {

namespace {

using Item = std::pair<std::string, std::string>;

// Per-thread free list of scan items. Execute parks the items a response
// gives up — a non-scan op's, an empty scan's, a scan's surplus tail — and
// a scan that outgrows its response takes them back, so a client that
// reuses its response vector stops allocating item strings whatever op each
// position serves. At most 4096 items of at most kPooledItemBytes string
// capacity each: ~2.3 MiB per thread.
using ItemFreeList = ThreadFreeList<Item, 4096>;
constexpr size_t kPooledItemBytes = 512;

// Drops items[keep, end), parking what the free list takes.
void GiveBackItems(std::vector<Item>* items, size_t keep) {
  for (size_t i = keep; i < items->size(); i++) {
    Item& item = (*items)[i];
    if (item.first.capacity() + item.second.capacity() <= kPooledItemBytes) {
      ItemFreeList::Give(std::move(item));
    }
  }
  items->resize(keep);
}

// Appends (key, value), in parked strings when the free list has any.
void AppendItem(std::vector<Item>* items, std::string_view key,
                std::string_view value) {
  items->emplace_back();
  ItemFreeList::Take(&items->back());
  items->back().first.assign(key);
  items->back().second.assign(value);
}

}  // namespace

Service::Service(const ServiceOptions& opt, ShardRouter router)
    : router_(std::move(router)), dur_(opt.durability), index_(opt.index, &qsbr_) {
  if (dur_.enabled && dur_.fs == nullptr) {
    dur_.fs = durability::Fs::Default();
  }
  const size_t n = dur_.enabled ? router_.shard_count() : 1;
  partitions_.reserve(n);
  for (size_t i = 0; i < n; i++) {
    partitions_.push_back(std::make_unique<Partition>());
    if (dur_.enabled) {
      RecoverPartition(partitions_.back().get(), i);
    }
  }
}

// Members destruct partitions-before-index-before-qsbr (reverse declaration
// order): each WAL's destructor issues its best-effort shutdown sync while
// the index is still alive, and the index drains into its qsbr domain last.
Service::~Service() = default;

// Runs on the constructor thread, before any Execute() can exist, so the
// direct index_.Put/Delete calls need no wal_mu and the final applied_seq
// store needs no ordering partner. Partitions cover disjoint key ranges, so
// replaying them one after another into the one index gives each key its
// own partition's history. A record whose key routes to another partition
// (the directory was written under different boundaries) would break that,
// and is refused. A failure leaves the partition constructed but failed
// (fail-stop from the first request on).
void Service::RecoverPartition(Partition* part, size_t i) {
  part->dir = dur_.dir + "/shard-" + std::to_string(i);
  durability::Status st = dur_.fs->MkDirs(part->dir);
  durability::RecoverStats stats;
  std::string misrouted;  // the first foreign key, if any
  if (st.ok()) {
    st = durability::RecoverShard(
        dur_.fs, part->dir,
        [&](durability::WalOp op, std::string_view key,
            std::string_view value) {
          if (router_.ShardOf(key) != i) {
            misrouted = misrouted.empty() ? std::string(key) : misrouted;
          } else if (op == durability::WalOp::kPut) {
            index_.Put(key, value);
          } else {
            index_.Delete(key);
          }
        },
        &stats);
  }
  if (st.ok() && !misrouted.empty()) {
    st = durability::Status::Error(
        "key '" + misrouted + "' in " + part->dir + " routes to partition " +
        std::to_string(router_.ShardOf(misrouted)) +
        ": the directory was written under other partition boundaries");
  }
  if (st.ok()) {
    durability::Status open_st;
    part->wal = durability::Wal::Open(dur_.fs, part->dir, dur_.wal, &open_st);
    if (part->wal == nullptr) {
      st = open_st;
    } else {
      // The log continues exactly where the recovered history ends; any
      // other next_seq means segments were lost out from under the snapshot.
      const uint64_t recovered = std::max(stats.snapshot_seq, stats.last_seq);
      if (part->wal->next_seq() != recovered + 1) {
        st = durability::Status::Error(
            "WAL/snapshot sequence mismatch in " + part->dir +
            ": recovered history ends at seq " + std::to_string(recovered) +
            " but the log would continue at seq " +
            std::to_string(part->wal->next_seq()));
      } else {
        part->applied_seq.store(recovered, std::memory_order_release);
      }
    }
  }
  if (!st.ok()) {
    ScopedLock g(part->wal_mu);
    part->first_error = st;
    part->failed.store(true, std::memory_order_release);
  }
}

void Service::Execute(const std::vector<Request>& batch,
                      std::vector<Response>* responses) {
  // The caller's Response objects are kept (contract in service.h): every
  // field is reset below, and a scan refills its items in place.
  responses->resize(batch.size());

  // One scratch per thread, cleared by each call with its capacity kept, so
  // a client that keeps sending batches stops allocating for their grouping
  // and run dispatch. Execute never re-enters itself, so no other call on
  // this thread touches it while this one runs.
  thread_local ExecScratch scratch;
  // Runs on every exit, an exception's too: the batch's cursor and its
  // epoch pin must not outlive it (see ExecScratch::cursor).
  struct CursorRelease {
    std::unique_ptr<Cursor>& cursor;
    ~CursorRelease() { cursor.reset(); }
  } cursor_release{scratch.cursor};

  // Stable grouping by log partition: each partition's sub-batch keeps
  // submission order, which is what makes per-key semantics exactly
  // sequential (all ops on one key land in one partition). A two-pass
  // counting sort into one flat index buffer — no per-partition vectors, no
  // push_back growth. With one partition (WAL-off mode) the router is never
  // consulted and the sort keeps the whole batch in submission order.
  // Oversized requests join no sub-batch (see kMaxKeyBytes).
  constexpr uint32_t kRefused = std::numeric_limits<uint32_t>::max();
  const bool partitioned = partitions_.size() > 1;
  std::vector<uint32_t>& part_of = scratch.part_of;
  std::vector<size_t>& offsets = scratch.offsets;
  part_of.resize(batch.size());
  offsets.assign(partitions_.size() + 1, 0);
  for (size_t i = 0; i < batch.size(); i++) {
    Response& r = (*responses)[i];
    r.found = false;
    r.ok = true;
    r.value.clear();
    const bool refused = batch[i].key.size() > kMaxKeyBytes ||
                         batch[i].value.size() > kMaxValueBytes;
    if (refused ||
        (batch[i].op != Op::kScan && batch[i].op != Op::kScanRev)) {
      GiveBackItems(&r.items, 0);
    }
    if (refused) {
      r.ok = false;
      part_of[i] = kRefused;
      continue;
    }
    part_of[i] = partitioned
                     ? static_cast<uint32_t>(router_.ShardOf(batch[i].key))
                     : 0;
    offsets[part_of[i] + 1]++;
  }
  for (size_t p = 1; p < offsets.size(); p++) {
    offsets[p] += offsets[p - 1];
  }
  std::vector<uint32_t>& order = scratch.order;
  order.resize(batch.size());
  scratch.fill.assign(offsets.begin(), offsets.end() - 1);
  for (uint32_t i = 0; i < batch.size(); i++) {
    if (part_of[i] != kRefused) {
      order[scratch.fill[part_of[i]]++] = i;  // ascending i keeps it stable
    }
  }

  for (size_t p = 0; p < partitions_.size(); p++) {
    const uint32_t* idx = order.data() + offsets[p];
    const size_t idx_n = offsets[p + 1] - offsets[p];
    if (idx_n == 0) {
      continue;
    }
    if (!dur_.enabled) {
      RunOps(batch, idx, idx_n, responses, &scratch, /*apply_mutations=*/true);
      continue;
    }
    // Durable mode: collect the sub-batch's mutations in submission order
    // and group-commit them as one WAL append before applying any of them.
    Partition& part = *partitions_[p];
    scratch.wal_entries.clear();
    for (size_t k = 0; k < idx_n; k++) {
      const Request& req = batch[idx[k]];
      if (req.op == Op::kPut) {
        scratch.wal_entries.push_back(
            {durability::WalOp::kPut, req.key, req.value});
      } else if (req.op == Op::kDelete) {
        scratch.wal_entries.push_back(
            {durability::WalOp::kDelete, req.key, std::string_view()});
      }
    }
    if (scratch.wal_entries.empty()) {
      // Read-only sub-batch: no ordering point needed, wal_mu untouched.
      RunOps(batch, idx, idx_n, responses, &scratch, /*apply_mutations=*/true);
      continue;
    }
    // wal_mu spans append AND apply: two batches may not interleave between
    // the two, or the log's order would diverge from the index's.
    ScopedLock wal_guard(part.wal_mu);
    durability::Status st;
    uint64_t last_seq = 0;
    if (part.failed.load(std::memory_order_acquire)) {
      st = part.first_error;
    } else {
      st = part.wal->AppendBatch(scratch.wal_entries.data(),
                                 scratch.wal_entries.size(), &last_seq);
    }
    if (st.ok()) {
      RunOps(batch, idx, idx_n, responses, &scratch, /*apply_mutations=*/true);
      part.applied_seq.store(last_seq, std::memory_order_release);
    } else {
      // Fail-stop: the batch's mutations were not made durable, so they are
      // not applied either — acknowledging them would be silent data loss
      // (the fsyncgate rule). Reads still serve.
      if (!part.failed.load(std::memory_order_acquire)) {
        part.first_error = st;
        part.failed.store(true, std::memory_order_release);
      }
      RunOps(batch, idx, idx_n, responses, &scratch, /*apply_mutations=*/false);
    }
  }
}

void Service::RunOps(const std::vector<Request>& batch, const uint32_t* idx,
                     size_t idx_n, std::vector<Response>* responses,
                     ExecScratch* scratch, bool apply_mutations) {
  size_t i = 0;
  while (i < idx_n) {
    const Op op = batch[idx[i]].op;
    // Maximal same-op run: one MultiGet/MultiPut per run amortizes the
    // quiescent-state report (and, for MultiPut, leaf-lock traffic) across
    // it, and lets both overlap the memory latency of their keys. A run of
    // scans (either direction) walks its routes together first.
    const auto kind = [](Op o) { return o == Op::kScanRev ? Op::kScan : o; };
    size_t j = i + 1;
    while (op != Op::kDelete && j < idx_n && kind(batch[idx[j]].op) == kind(op)) {
      j++;
    }
    switch (op) {
      case Op::kGet: {
        // Lend each response's value buffer to MultiGet, which assigns into
        // the strings it is given, and take it back filled: a caller that
        // reuses its responses gets Get values copied with no allocation.
        // The scratch is sized for the whole batch at its first Get run, so
        // no later run regrows it.
        scratch->keys.reserve(batch.size());
        scratch->values.reserve(batch.size());
        scratch->hits.reserve(batch.size());
        scratch->keys.clear();
        scratch->values.resize(j - i);
        for (size_t k = i; k < j; k++) {
          scratch->keys.push_back(batch[idx[k]].key);
          scratch->values[k - i].swap((*responses)[idx[k]].value);
        }
        index_.MultiGet(scratch->keys, &scratch->values, &scratch->hits);
        for (size_t k = i; k < j; k++) {
          Response& r = (*responses)[idx[k]];
          r.found = scratch->hits[k - i] != 0;
          r.value.swap(scratch->values[k - i]);
        }
        break;
      }
      case Op::kPut: {
        if (!apply_mutations) {
          for (size_t k = i; k < j; k++) {
            (*responses)[idx[k]].ok = false;
          }
          break;
        }
        scratch->puts.clear();
        for (size_t k = i; k < j; k++) {
          scratch->puts.emplace_back(batch[idx[k]].key, batch[idx[k]].value);
          (*responses)[idx[k]].found = true;
        }
        index_.MultiPut(scratch->puts);
        break;
      }
      case Op::kDelete:
        if (!apply_mutations) {
          (*responses)[idx[i]].ok = false;
          break;
        }
        (*responses)[idx[i]].found = index_.Delete(batch[idx[i]].key);
        break;
      case Op::kScan:
      case Op::kScanRev:
        // A route group at a time, two or more scans first warm their
        // routes through the core's interleaved route stage (a hint), so
        // their Seeks find the trie lines and leaf headers still in cache.
        for (size_t k = i; k < j;) {
          const size_t end = std::min(j, k + Wormhole::kRouteGroup);
          std::string_view keys[Wormhole::kRouteGroup];
          for (size_t q = k; q < end; q++) {
            keys[q - k] = batch[idx[q]].key;
          }
          if (end - k > 1) {
            index_.PrefetchRoutes(keys, end - k);
          }
          for (; k < end; k++) {
            ExecuteScan(batch[idx[k]], &(*responses)[idx[k]], &scratch->cursor);
          }
        }
        break;
    }
    i = j;
  }
}

// One cursor serves the batch's scans: the first opens it (one epoch pin,
// QSBR slot and window buffer), and every later one repositions it. The item
// budget is passed down as the scan-limit hint, so a short scan engages the
// core's bounded fill and copies only the items it returns; the loop emits
// the limit-th item without stepping past it, so the cursor never pays a
// repositioning nobody consumes.
//
// Items are written over resp->items in place: item n reuses the strings
// already at position n (assign keeps their capacity), items past the old
// length take strings from the thread's item free list, and the surplus
// tail goes back to that list at the end. The cursor's key()/value() are
// views into the leaf's slab, so each item's bytes are copied once, here.
void Service::ExecuteScan(const Request& req, Response* resp,
                          std::unique_ptr<Cursor>* cursor) {
  auto& items = resp->items;
  const size_t limit = req.scan_limit;
  if (limit == 0) {
    GiveBackItems(&items, 0);
    return;  // contract (service.h): scan_limit 0 -> empty response
  }
  items.reserve(std::min<size_t>(limit, 1024));
  if (*cursor == nullptr) {
    *cursor = index_.NewCursor();  // first scan of the batch
  }
  Cursor* c = cursor->get();
  c->SetScanLimitHint(limit);
  const bool reverse = req.op == Op::kScanRev;
  if (reverse) {
    c->SeekForPrev(req.key);
  } else {
    c->Seek(req.key);
  }
  size_t n = 0;  // items written so far
  while (c->Valid()) {
    if (n < items.size()) {
      items[n].first.assign(c->key());
      items[n].second.assign(c->value());
    } else {
      AppendItem(&items, c->key(), c->value());
    }
    if (++n == limit) {
      break;
    }
    if (reverse) {
      c->Prev();
    } else {
      c->Next();
    }
  }
  GiveBackItems(&items, n);
}

durability::Status Service::Checkpoint() {
  if (!dur_.enabled) {
    return durability::Status::Error("Checkpoint: durability not enabled");
  }
  const std::vector<std::string>& bounds = router_.boundaries();
  for (size_t i = 0; i < partitions_.size(); i++) {
    Partition& part = *partitions_[i];
    if (part.failed.load(std::memory_order_acquire)) {
      ScopedLock g(part.wal_mu);
      return part.first_error;
    }
    // Floor, then sweep: applied_seq is release-stored AFTER a batch's
    // mutations are applied, so every record <= floor is visible to a
    // cursor opened now. Concurrent writes with seq > floor may leak into
    // the sweep — harmless, the snapshot is fuzzy by contract (snapshot.h)
    // and replay from floor+1 converges it. The sweep covers only the
    // partition's own range, so a snapshot holds no key another
    // partition's log governs.
    const uint64_t floor = part.applied_seq.load(std::memory_order_acquire);
    const std::string_view lo = i == 0 ? std::string_view() : bounds[i - 1];
    const std::string_view hi =
        i < bounds.size() ? std::string_view(bounds[i]) : std::string_view();
    durability::SnapshotStats stats;
    durability::Status st;
    {
      // The sweep runs WITHOUT wal_mu: writers keep committing while the
      // snapshot is written. Only the log truncation below serializes.
      std::unique_ptr<Cursor> cursor = index_.NewCursor();
      st = durability::WriteSnapshot(dur_.fs, part.dir, floor, cursor.get(),
                                     lo, hi, &stats);
    }
    if (!st.ok()) {
      return st;  // WAL is untouched; the partition stays healthy
    }
    ScopedLock g(part.wal_mu);
    st = part.wal->TruncateBefore(floor + 1);
    if (!st.ok()) {
      return st;
    }
  }
  return durability::Status();
}

durability::Status Service::durability_status() const {
  for (const auto& part : partitions_) {
    if (part->failed.load(std::memory_order_acquire)) {
      ScopedLock g(part->wal_mu);
      return part->first_error;
    }
  }
  return durability::Status();
}

size_t Service::size() const { return index_.size(); }

// index_.MemoryBytes() counts the Wormhole object itself, which
// sizeof(*this) holds too.
uint64_t Service::MemoryBytes() const {
  return sizeof(*this) - sizeof(index_) + index_.MemoryBytes() +
         partitions_.size() * sizeof(Partition);
}

}  // namespace wh
