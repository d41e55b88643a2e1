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
    : router_(std::move(router)), dur_(opt.durability) {
  if (dur_.enabled && dur_.fs == nullptr) {
    dur_.fs = durability::Fs::Default();
  }
  shards_.reserve(router_.shard_count());
  for (size_t i = 0; i < router_.shard_count(); i++) {
    auto shard = std::make_unique<Shard>();
    shard->qsbr = std::make_unique<Qsbr>();
    shard->index = std::make_unique<Wormhole>(opt.index, shard->qsbr.get());
    if (dur_.enabled) {
      RecoverShardFromDisk(shard.get(), i);
    }
    shards_.push_back(std::move(shard));
  }
}

// Shard members destruct wal-before-index-before-qsbr (reverse declaration
// order): the WAL's destructor issues its best-effort shutdown sync while
// the index is still alive, and the index drains into its qsbr domain last.
Service::~Service() = default;

// Runs on the constructor thread, before any Execute() can exist, so the
// direct index->Put/Delete calls need no wal_mu and the final applied_seq
// store needs no ordering partner. A failure leaves the shard constructed
// but failed (fail-stop from the first request on).
void Service::RecoverShardFromDisk(Shard* shard, size_t shard_index) {
  shard->dir = dur_.dir + "/shard-" + std::to_string(shard_index);
  durability::Status st = dur_.fs->MkDirs(shard->dir);
  durability::RecoverStats stats;
  if (st.ok()) {
    st = durability::RecoverShard(
        dur_.fs, shard->dir,
        [&](durability::WalOp op, std::string_view key,
            std::string_view value) {
          if (op == durability::WalOp::kPut) {
            shard->index->Put(key, value);
          } else {
            shard->index->Delete(key);
          }
        },
        &stats);
  }
  if (st.ok()) {
    durability::Status open_st;
    shard->wal =
        durability::Wal::Open(dur_.fs, shard->dir, dur_.wal, &open_st);
    if (shard->wal == nullptr) {
      st = open_st;
    } else {
      // The log continues exactly where the recovered history ends; any
      // other next_seq means segments were lost out from under the snapshot.
      const uint64_t recovered = std::max(stats.snapshot_seq, stats.last_seq);
      if (shard->wal->next_seq() != recovered + 1) {
        st = durability::Status::Error(
            "WAL/snapshot sequence mismatch in " + shard->dir +
            ": recovered history ends at seq " + std::to_string(recovered) +
            " but the log would continue at seq " +
            std::to_string(shard->wal->next_seq()));
      } else {
        shard->applied_seq.store(recovered, std::memory_order_release);
      }
    }
  }
  if (!st.ok()) {
    ScopedLock g(shard->wal_mu);
    shard->first_error = st;
    shard->failed.store(true, std::memory_order_release);
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
  // Runs on every exit, an exception's too: the batch's cursors and their
  // epoch pins must not outlive it (see ExecScratch::cursors).
  struct CursorRelease {
    std::vector<std::unique_ptr<Cursor>>& cursors;
    ~CursorRelease() { cursors.clear(); }
  } cursor_release{scratch.cursors};

  // Stable grouping: per-shard sub-batches preserve submission order, which
  // is what makes per-key semantics exactly sequential (all ops on one key
  // land in one shard). A two-pass counting sort into one flat index buffer
  // — no per-shard vectors, no push_back growth.
  // Oversized requests join no sub-batch (see kMaxKeyBytes).
  constexpr uint32_t kRefused = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t>& shard_of = scratch.shard_of;
  std::vector<size_t>& offsets = scratch.offsets;
  shard_of.resize(batch.size());
  offsets.assign(shards_.size() + 1, 0);
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
      shard_of[i] = kRefused;
      continue;
    }
    shard_of[i] = static_cast<uint32_t>(router_.ShardOf(batch[i].key));
    offsets[shard_of[i] + 1]++;
  }
  for (size_t s = 1; s < offsets.size(); s++) {
    offsets[s] += offsets[s - 1];
  }
  std::vector<uint32_t>& order = scratch.order;
  order.resize(batch.size());
  scratch.fill.assign(offsets.begin(), offsets.end() - 1);
  for (uint32_t i = 0; i < batch.size(); i++) {
    if (shard_of[i] != kRefused) {
      order[scratch.fill[shard_of[i]]++] = i;  // ascending i keeps it stable
    }
  }

  for (size_t s = 0; s < shards_.size(); s++) {
    const uint32_t* idx = order.data() + offsets[s];
    const size_t idx_n = offsets[s + 1] - offsets[s];
    if (idx_n == 0) {
      continue;
    }
    if (!dur_.enabled) {
      RunShardOps(s, batch, idx, idx_n, responses, &scratch,
                  /*apply_mutations=*/true);
      continue;
    }
    // Durable mode: collect the sub-batch's mutations in submission order
    // and group-commit them as one WAL append before applying any of them.
    Shard& shard = *shards_[s];
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
      // Read-only sub-batch: no ordering point needed, wal_mu untouched —
      // the read path costs the same as WAL-off.
      RunShardOps(s, batch, idx, idx_n, responses, &scratch,
                  /*apply_mutations=*/true);
      continue;
    }
    // wal_mu spans append AND apply: two batches may not interleave between
    // the two, or the log's order would diverge from the index's.
    ScopedLock wal_guard(shard.wal_mu);
    durability::Status st;
    uint64_t last_seq = 0;
    if (shard.failed.load(std::memory_order_acquire)) {
      st = shard.first_error;
    } else {
      st = shard.wal->AppendBatch(scratch.wal_entries.data(),
                                  scratch.wal_entries.size(), &last_seq);
    }
    if (st.ok()) {
      RunShardOps(s, batch, idx, idx_n, responses, &scratch,
                  /*apply_mutations=*/true);
      shard.applied_seq.store(last_seq, std::memory_order_release);
    } else {
      // Fail-stop: the batch's mutations were not made durable, so they are
      // not applied either — acknowledging them would be silent data loss
      // (the fsyncgate rule). Reads still serve.
      if (!shard.failed.load(std::memory_order_acquire)) {
        shard.first_error = st;
        shard.failed.store(true, std::memory_order_release);
      }
      RunShardOps(s, batch, idx, idx_n, responses, &scratch,
                  /*apply_mutations=*/false);
    }
  }
}

void Service::RunShardOps(size_t s, const std::vector<Request>& batch,
                          const uint32_t* idx, size_t idx_n,
                          std::vector<Response>* responses,
                          ExecScratch* scratch, bool apply_mutations) {
  Wormhole* index = shards_[s]->index.get();
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
        index->MultiGet(scratch->keys, &scratch->values, &scratch->hits);
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
        index->MultiPut(scratch->puts);
        break;
      }
      case Op::kDelete:
        if (!apply_mutations) {
          (*responses)[idx[i]].ok = false;
          break;
        }
        (*responses)[idx[i]].found = index->Delete(batch[idx[i]].key);
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
            index->PrefetchRoutes(keys, end - k);
          }
          for (; k < end; k++) {
            ExecuteScan(s, batch[idx[k]], &(*responses)[idx[k]], &scratch->cursors);
          }
        }
        break;
    }
    i = j;
  }
}

// Merges per-shard cursor streams into one globally ordered result. An
// ascending scan can only find keys in shards first_shard.. (everything
// below holds keys < the start key's shard range); a descending one only in
// ..first_shard. This is the k-way merge over per-shard cursors specialized
// to this router's shard ranges, which are DISJOINT and in scan order: at
// any instant exactly one open cursor could hold the extreme key, so the
// general repeatedly-pick-the-minimum loop collapses to draining one
// shard's cursor at a time, each opened (one epoch pin + route + leaf-window
// copy) only when the scan reaches it. Written as the explicit drain, not
// the general merge, so the code says what actually executes; a router with
// overlapping ranges would need the real k-cursor selection loop back.
// Unlike the old anchor-restart stitching there are no boundary re-seeks,
// and reverse iteration falls out of the same structure.
//
// Each shard's cursor comes from *cursors — the per-batch cache Execute()
// passes in — so a scan-heavy batch opens one cursor per shard for the WHOLE
// batch (one epoch pin, one window buffer) instead of one per request. The
// remaining item budget is threaded down as the scan-limit hint, so a short
// scan engages the core's bounded fill and copies only the items it returns;
// the drain emits the limit-th item without stepping past it, so the cursor
// never pays a repositioning nobody consumes.
//
// Items are written over resp->items in place: item n reuses the strings
// already at position n (assign keeps their capacity), items past the old
// length take strings from the thread's item free list, and the surplus
// tail goes back to that list at the end. The cursor's key()/value() are
// views into the leaf's slab, so each item's bytes are copied once, here.
void Service::ExecuteScan(size_t first_shard, const Request& req,
                          Response* resp,
                          std::vector<std::unique_ptr<Cursor>>* cursors) {
  auto& items = resp->items;
  const size_t limit = req.scan_limit;
  if (limit == 0) {
    GiveBackItems(&items, 0);
    return;  // contract (service.h): scan_limit 0 -> empty response
  }
  items.reserve(std::min<size_t>(limit, 1024));
  if (cursors->size() != shards_.size()) {
    cursors->resize(shards_.size());  // first scan of the batch
  }
  const bool reverse = req.op == Op::kScanRev;
  const size_t candidates =
      reverse ? first_shard + 1 : shards_.size() - first_shard;
  size_t n = 0;  // items written so far
  for (size_t i = 0; i < candidates && n < limit; i++) {
    const size_t s = reverse ? first_shard - i : first_shard + i;
    if ((*cursors)[s] == nullptr) {
      (*cursors)[s] = shards_[s]->index->NewCursor();
    }
    Cursor* c = (*cursors)[s].get();
    c->SetScanLimitHint(limit - n);
    if (reverse) {
      c->SeekForPrev(req.key);
    } else {
      c->Seek(req.key);
    }
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
  }
  GiveBackItems(&items, n);
}

durability::Status Service::Checkpoint() {
  if (!dur_.enabled) {
    return durability::Status::Error("Checkpoint: durability not enabled");
  }
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    if (shard.failed.load(std::memory_order_acquire)) {
      ScopedLock g(shard.wal_mu);
      return shard.first_error;
    }
    // Floor, then sweep: applied_seq is release-stored AFTER a batch's
    // mutations are applied, so every record <= floor is visible to a
    // cursor opened now. Concurrent writes with seq > floor may leak into
    // the sweep — harmless, the snapshot is fuzzy by contract (snapshot.h)
    // and replay from floor+1 converges it.
    const uint64_t floor = shard.applied_seq.load(std::memory_order_acquire);
    durability::SnapshotStats stats;
    durability::Status st;
    {
      // The sweep runs WITHOUT wal_mu: writers keep committing while the
      // snapshot is written. Only the log truncation below serializes.
      std::unique_ptr<Cursor> cursor = shard.index->NewCursor();
      st = durability::WriteSnapshot(dur_.fs, shard.dir, floor, cursor.get(),
                                     &stats);
    }
    if (!st.ok()) {
      return st;  // WAL is untouched; the shard stays healthy
    }
    ScopedLock g(shard.wal_mu);
    st = shard.wal->TruncateBefore(floor + 1);
    if (!st.ok()) {
      return st;
    }
  }
  return durability::Status();
}

durability::Status Service::durability_status() const {
  for (const auto& shard : shards_) {
    if (shard->failed.load(std::memory_order_acquire)) {
      ScopedLock g(shard->wal_mu);
      return shard->first_error;
    }
  }
  return durability::Status();
}

size_t Service::size() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    total += s->index->size();
  }
  return total;
}

uint64_t Service::MemoryBytes() const {
  uint64_t total = sizeof(*this);
  for (const auto& s : shards_) {
    total += sizeof(Shard) + sizeof(Qsbr) + s->index->MemoryBytes();
  }
  return total;
}

}  // namespace wh
