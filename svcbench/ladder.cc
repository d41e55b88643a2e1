#include "svcbench/ladder.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "src/common/crc32c.h"

namespace svcbench {

namespace {

// Per-span metric: name, unit, and whether the value is per item (time over
// the items the call handled) or per call.
struct SpanInfo {
  const char* metric;
  const char* unit;
  bool per_item;
};

constexpr SpanInfo kSpanInfo[kSpanNames] = {
    {"server.execute_us", "us", false},   {"server.route_ns", "ns", true},
    {"common.crc32c_ns", "ns", true},     {"core.lpm_ns", "ns", true},
    {"core.get_ns", "ns", true},          {"core.multiget_ns", "ns", true},
    {"core.put_ns", "ns", true},          {"core.delete_ns", "ns", false},
    {"core.seek_ns", "ns", false},        {"core.next_ns", "ns", true},
    {"durability.append_us", "us", false}, {"durability.fsync_us", "us", false},
};

constexpr size_t kLoadBatch = 1024;

void Die(const std::string& what) {
  std::fprintf(stderr, "svcbench: ladder: %s\n", what.c_str());
  std::exit(2);
}

// Stable grouping of batch positions by shard, as Service::Execute groups.
std::vector<std::vector<uint32_t>> GroupByShard(
    const wh::ShardRouter& router, const std::vector<wh::Request>& batch) {
  std::vector<std::vector<uint32_t>> groups(router.shard_count());
  for (uint32_t i = 0; i < batch.size(); i++) {
    groups[router.ShardOf(batch[i].key)].push_back(i);
  }
  return groups;
}

bool SameResponse(const wh::Response& a, const wh::Response& b) {
  return a.ok == b.ok && a.found == b.found &&
         (!a.found || a.value == b.value) && a.items == b.items;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) {
      total += e.file_size();
    }
  }
  return total;
}

}  // namespace

const char* Ladder::SpanLabel(uint16_t name) { return kSpanInfo[name].metric; }

Ladder::Ladder(const Workload& w, const wh::ShardRouter& router,
               const std::vector<std::string>& keys, size_t n,
               const Verifier& verifier, const std::string& dir)
    : w_(w), keys_(keys), n_(n), verifier_(verifier), router_(router),
      dir_(dir) {
  wh::ServiceOptions so;
  if (w.durable) {
    so.durability.enabled = true;
    so.durability.dir = dir + "/service";
    so.durability.wal.fsync = wh::durability::WalOptions::Fsync::kAlways;
  }
  svc_ = std::make_unique<wh::Service>(so, router_);

  const wh::Options mirror_opt = so.index;  // as the Service's shards
  wh::durability::WalOptions wal_opt;
  wal_opt.fsync = wh::durability::WalOptions::Fsync::kNone;
  shards_.resize(router_.shard_count());
  for (size_t s = 0; s < shards_.size(); s++) {
    MirrorShard& m = shards_[s];
    m.qsbr = std::make_unique<wh::Qsbr>();
    m.index = std::make_unique<wh::Wormhole>(mirror_opt, m.qsbr.get());
    wh::durability::Status st;
    m.wal = wh::durability::Wal::Open(
        wh::durability::Fs::Default(),
        dir + "/mirror-wal/shard-" + std::to_string(s), wal_opt, &st);
    if (m.wal == nullptr) {
      Die("cannot open mirror WAL: " + st.message());
    }
  }
  unsafe_ = std::make_unique<wh::WormholeUnsafe>(mirror_opt);

  // The same keys in the same batches for every structure, so the mirror
  // shards split their leaves where the Service's shards do.
  std::vector<wh::Request> batch;
  std::vector<wh::Response> resp;
  std::vector<std::pair<std::string_view, std::string_view>> puts;
  for (size_t lo = 0; lo < n; lo += kLoadBatch) {
    const size_t hi = std::min(n, lo + kLoadBatch);
    batch.resize(hi - lo);
    for (size_t i = lo; i < hi; i++) {
      batch[i - lo].op = wh::Op::kPut;
      batch[i - lo].key = keys[i];
      batch[i - lo].value = ValueOf(keys[i]);
      unsafe_->Put(batch[i - lo].key, batch[i - lo].value);
    }
    svc_->Execute(batch, &resp);
    const auto groups = GroupByShard(router_, batch);
    for (size_t s = 0; s < groups.size(); s++) {
      puts.clear();
      for (uint32_t i : groups[s]) {
        puts.emplace_back(batch[i].key, batch[i].value);
      }
      if (!puts.empty()) {
        shards_[s].index->MultiPut(puts);
      }
    }
  }
  wal_bytes_ = DirBytes(dir + "/mirror-wal");
}

Ladder::~Ladder() = default;

void Ladder::Record(uint32_t batch, SpanName name, SpanKind kind, int64_t t0,
                    uint32_t items) {
  const int64_t t1 = NowNs();
  spans_.push_back(Span{batch, name, kind, t1 - t0, items});
}

void Ladder::Log(size_t s, const std::vector<wh::durability::WalEntry>& entries,
                 uint32_t id, SpanKind kind) {
  uint64_t last_seq = 0;
  int64_t t0 = NowNs();
  wh::durability::Status st =
      shards_[s].wal->AppendBatch(entries.data(), entries.size(), &last_seq);
  Record(id, kAppend, kind, t0, static_cast<uint32_t>(entries.size()));
  t0 = NowNs();
  if (st.ok()) {
    st = shards_[s].wal->Sync();
  }
  Record(id, kFsync, kind, t0, 1);
  if (!st.ok()) {
    Die("mirror WAL: " + st.message());
  }
  wal_records_ += entries.size();
  if (kind == SpanKind::kChild) {
    fsyncs_in_execute_++;
  }
}

void Ladder::Replay(const std::vector<wh::Request>& batch, uint32_t id,
                    SpanKind kind, bool log, std::vector<wh::Response>* out) {
  out->clear();
  out->resize(batch.size());
  const auto groups = GroupByShard(router_, batch);
  std::vector<std::unique_ptr<wh::Cursor>> cursors(shards_.size());
  std::vector<std::string_view> keys;
  std::vector<std::string> values;
  std::vector<uint8_t> hits;
  std::vector<std::pair<std::string_view, std::string_view>> puts;
  std::vector<wh::durability::WalEntry> entries;
  for (size_t s = 0; s < groups.size(); s++) {
    const std::vector<uint32_t>& idx = groups[s];
    wh::Wormhole* index = shards_[s].index.get();
    if (log) {
      entries.clear();
      for (uint32_t i : idx) {
        if (batch[i].op == wh::Op::kPut) {
          entries.push_back(
              {wh::durability::WalOp::kPut, batch[i].key, batch[i].value});
        } else if (batch[i].op == wh::Op::kDelete) {
          entries.push_back({wh::durability::WalOp::kDelete, batch[i].key, {}});
        }
      }
      if (!entries.empty()) {
        Log(s, entries, id, kind);
      }
    }
    size_t i = 0;
    while (i < idx.size()) {
      const wh::Op op = batch[idx[i]].op;
      size_t j = i + 1;
      if (op == wh::Op::kGet || op == wh::Op::kPut) {
        while (j < idx.size() && batch[idx[j]].op == op) {
          j++;
        }
      }
      const uint32_t run = static_cast<uint32_t>(j - i);
      switch (op) {
        case wh::Op::kGet: {
          keys.clear();
          for (size_t k = i; k < j; k++) {
            keys.push_back(batch[idx[k]].key);
          }
          const int64_t t0 = NowNs();
          index->MultiGet(keys, &values, &hits);
          Record(id, kMultiGet, kind, t0, run);
          for (size_t k = i; k < j; k++) {
            wh::Response& r = (*out)[idx[k]];
            r.found = hits[k - i] != 0;
            r.value = std::move(values[k - i]);
          }
          break;
        }
        case wh::Op::kPut: {
          puts.clear();
          for (size_t k = i; k < j; k++) {
            puts.emplace_back(batch[idx[k]].key, batch[idx[k]].value);
            (*out)[idx[k]].found = true;
          }
          const int64_t t0 = NowNs();
          index->MultiPut(puts);
          Record(id, kPut, kind, t0, run);
          break;
        }
        case wh::Op::kDelete: {
          const int64_t t0 = NowNs();
          (*out)[idx[i]].found = index->Delete(batch[idx[i]].key);
          Record(id, kDelete, kind, t0, 1);
          break;
        }
        case wh::Op::kScan:
        case wh::Op::kScanRev:
          ReplayScan(s, batch[idx[i]], id, kind, &(*out)[idx[i]], &cursors);
          break;
      }
      i = j;
    }
  }
}

// The cross-shard drain of Service::ExecuteScan: shards in scan order, one
// cursor per shard per batch, the remaining budget as the scan-limit hint.
// The drain span covers Next/Prev and copying each item out.
void Ladder::ReplayScan(size_t first_shard, const wh::Request& req,
                        uint32_t id, SpanKind kind, wh::Response* resp,
                        std::vector<std::unique_ptr<wh::Cursor>>* cursors) {
  const size_t limit = req.scan_limit;
  if (limit == 0) {
    return;
  }
  const bool reverse = req.op == wh::Op::kScanRev;
  const size_t candidates =
      reverse ? first_shard + 1 : shards_.size() - first_shard;
  for (size_t i = 0; i < candidates && resp->items.size() < limit; i++) {
    const size_t s = reverse ? first_shard - i : first_shard + i;
    if ((*cursors)[s] == nullptr) {
      (*cursors)[s] = shards_[s].index->NewCursor();
    }
    wh::Cursor* c = (*cursors)[s].get();
    c->SetScanLimitHint(limit - resp->items.size());
    int64_t t0 = NowNs();
    if (reverse) {
      c->SeekForPrev(req.key);
    } else {
      c->Seek(req.key);
    }
    Record(id, kSeek, kind, t0, 1);
    const size_t before = resp->items.size();
    t0 = NowNs();
    while (c->Valid()) {
      resp->items.emplace_back(std::string(c->key()), std::string(c->value()));
      if (resp->items.size() == limit) {
        break;
      }
      if (reverse) {
        c->Prev();
      } else {
        c->Next();
      }
    }
    if (resp->items.size() > before) {
      Record(id, kNext, kind, t0,
             static_cast<uint32_t>(resp->items.size() - before));
    }
  }
}

void Ladder::TimeKeyStages(const std::vector<wh::Request>& batch, uint32_t id,
                           std::vector<uint8_t>* hits) {
  const uint32_t n = static_cast<uint32_t>(batch.size());
  uint64_t sink = 0;
  std::vector<uint8_t> seen(shards_.size(), 0);
  int64_t t0 = NowNs();
  for (const wh::Request& r : batch) {
    const size_t s = router_.ShardOf(r.key);
    seen[s] = 1;
  }
  Record(id, kRoute, SpanKind::kProbe, t0, n);
  size_t distinct = 0;
  for (uint8_t x : seen) {
    distinct += x;
  }
  shards_per_batch_.push_back(static_cast<double>(distinct));

  t0 = NowNs();
  for (const wh::Request& r : batch) {
    sink += wh::Crc32c(r.key.data(), r.key.size());
  }
  Record(id, kCrc32c, SpanKind::kProbe, t0, n);

  t0 = NowNs();
  for (const wh::Request& r : batch) {
    sink += reinterpret_cast<uintptr_t>(unsafe_->FindLeaf(r.key));
  }
  Record(id, kLpm, SpanKind::kProbe, t0, n);

  std::vector<size_t> shard_of(n);
  for (uint32_t i = 0; i < n; i++) {
    shard_of[i] = router_.ShardOf(batch[i].key);
  }
  hits->assign(n, 0);
  std::string value;
  t0 = NowNs();
  for (uint32_t i = 0; i < n; i++) {
    (*hits)[i] = shards_[shard_of[i]].index->Get(batch[i].key, &value);
  }
  Record(id, kGet, SpanKind::kProbe, t0, n);
  volatile uint64_t keep = sink;  // the timed loops must not be elided
  (void)keep;
}

void Ladder::TimeStandIns(const std::vector<wh::Request>& batch, uint32_t id,
                          const std::vector<uint8_t>& hits) {
  std::vector<wh::Response> out;
  if (w_.get_pct == 0) {
    std::vector<wh::Request> gets(batch.size());
    for (size_t i = 0; i < batch.size(); i++) {
      gets[i].key = batch[i].key;
    }
    Replay(gets, id, SpanKind::kProbe, false, &out);
  }
  // Put and Delete stand-ins touch only present keys and leave each one
  // holding its own value, so the mirror keeps the Service's items.
  std::vector<wh::Request> present;
  for (size_t i = 0; i < batch.size(); i++) {
    if (hits[i]) {
      wh::Request r;
      r.op = wh::Op::kPut;
      r.key = batch[i].key;
      r.value = ValueOf(r.key);
      present.push_back(std::move(r));
    }
  }
  if (w_.put_pct == 0) {
    Replay(present, id, SpanKind::kProbe, false, &out);
  }
  if (w_.delete_pct == 0) {
    std::vector<wh::Request> one(1);
    for (const wh::Request& p : present) {
      one[0] = p;
      one[0].op = wh::Op::kDelete;
      Replay(one, id, SpanKind::kProbe, false, &out);
      one[0].op = wh::Op::kPut;
      const size_t mark = spans_.size();
      Replay(one, id, SpanKind::kProbe, false, &out);
      spans_.resize(mark);  // the restore is not a timed Put
    }
  }
  if (w_.scan_pct == 0 && w_.scanrev_pct == 0) {
    std::vector<wh::Request> scans(batch.size());
    for (size_t i = 0; i < batch.size(); i++) {
      scans[i].op = wh::Op::kScan;
      scans[i].key = batch[i].key;
      scans[i].scan_limit = kScanLimit;
    }
    Replay(scans, id, SpanKind::kProbe, false, &out);
    failed_ += verifier_.CountFailures(scans, out);
  }
  if (!w_.durable) {
    const auto groups = GroupByShard(router_, batch);
    std::vector<std::string> values(batch.size());
    std::vector<wh::durability::WalEntry> entries;
    for (size_t s = 0; s < groups.size(); s++) {
      entries.clear();
      for (uint32_t i : groups[s]) {
        values[i] = ValueOf(batch[i].key);
        entries.push_back(
            {wh::durability::WalOp::kPut, batch[i].key, values[i]});
      }
      if (!entries.empty()) {
        Log(s, entries, id, SpanKind::kProbe);
      }
    }
  }
}

// Two passes over the slice. The first serves each batch through Execute
// and then replays it on the mirror, back to back, so the root span and its
// children run under the same cache conditions. The second times the
// isolated key stages and the stand-ins, which would otherwise evict the
// next Execute's working set.
void Ladder::Run(const std::vector<Batch>& slice) {
  std::vector<wh::Response> svc_out;
  std::vector<wh::Response> mirror_out;
  const uint32_t first = batches_;
  for (const Batch& b : slice) {
    const std::vector<wh::Request>& batch = b.requests;
    const uint32_t id = batches_++;
    const int64_t t0 = NowNs();
    svc_->Execute(batch, &svc_out);
    Record(id, kExecute, SpanKind::kRoot, t0, 1);
    Replay(batch, id, SpanKind::kChild, w_.durable, &mirror_out);

    attempted_ += batch.size();
    failed_ += verifier_.CountFailures(b, svc_out);
    for (size_t i = 0; i < batch.size(); i++) {
      failed_ += SameResponse(svc_out[i], mirror_out[i]) ? 0 : 1;
    }
    for (const wh::Request& r : batch) {
      if (r.op == wh::Op::kPut) {
        unsafe_->Put(r.key, r.value);
      } else if (r.op == wh::Op::kDelete) {
        unsafe_->Delete(r.key);
      }
    }
    size_t pending = 0;
    for (const MirrorShard& m : shards_) {
      pending += m.qsbr->pending();
    }
    qsbr_pending_.push_back(static_cast<double>(pending));
  }
  std::vector<uint8_t> hits;
  for (uint32_t i = 0; i < slice.size(); i++) {
    TimeKeyStages(slice[i].requests, first + i, &hits);
    TimeStandIns(slice[i].requests, first + i, hits);
  }
  trie_probes_ = CountTrieProbes(slice);
}

double Ladder::CountTrieProbes(const std::vector<Batch>& slice) {
  unsafe_.reset();  // at most one copy of the items at a time
  wh::Options opt;
  opt.count_probes = true;
  unsafe_ = std::make_unique<wh::WormholeUnsafe>(opt);
  for (size_t i = 0; i < n_; i++) {
    unsafe_->Put(keys_[i], ValueOf(keys_[i]));
  }
  for (const Batch& b : slice) {
    for (const wh::Request& r : b.requests) {
      if (r.op == wh::Op::kPut) {
        unsafe_->Put(r.key, r.value);
      } else if (r.op == wh::Op::kDelete) {
        unsafe_->Delete(r.key);
      }
    }
  }
  const wh::WormholeStats base = unsafe_->stats();
  uint64_t sink = 0;
  for (const Batch& b : slice) {
    for (const wh::Request& r : b.requests) {
      sink += reinterpret_cast<uintptr_t>(unsafe_->FindLeaf(r.key));
    }
  }
  volatile uint64_t keep = sink;
  (void)keep;
  const wh::WormholeStats end = unsafe_->stats();
  const uint64_t lookups = end.lookups - base.lookups;
  return lookups == 0 ? 0.0
                      : static_cast<double>(end.probes - base.probes) /
                            static_cast<double>(lookups);
}

std::vector<Metric> Ladder::Metrics() const {
  std::vector<std::vector<double>> samples(kSpanNames);
  for (const Span& s : spans_) {
    const SpanInfo& info = kSpanInfo[s.name];
    double v = static_cast<double>(s.dur_ns);
    if (info.per_item) {
      v /= std::max<uint32_t>(s.items, 1);
    }
    if (std::string(info.unit) == "us") {
      v /= 1000.0;
    }
    samples[s.name].push_back(v);
  }
  std::vector<Metric> out;
  auto add_summary = [&](const std::string& name, const std::string& unit,
                         std::vector<double> v) {
    const Summary sum = Summarize(std::move(v));
    out.push_back({name + ".p50", sum.p50, unit});
    out.push_back({name + ".p99", sum.p99, unit});
    out.push_back({name + ".n", static_cast<double>(sum.n), "count"});
  };
  std::vector<double> self_us;
  for (int64_t ns : SelfTimes(spans_, batches_)) {
    self_us.push_back(static_cast<double>(ns) / 1000.0);
  }
  add_summary("server.self_us", "us", std::move(self_us));
  for (uint16_t n = kRoute; n < kSpanNames; n++) {
    add_summary(kSpanInfo[n].metric, kSpanInfo[n].unit, samples[n]);
  }
  out.push_back({"server.shards_per_batch", Summarize(shards_per_batch_).mean,
                 "count"});
  const Summary pending = Summarize(qsbr_pending_);
  out.push_back({"common.qsbr_pending.p50", pending.p50, "count"});
  out.push_back({"common.qsbr_pending.p99", pending.p99, "count"});
  out.push_back({"core.trie_probes", trie_probes_, "count"});
  out.push_back({"durability.fsyncs_per_batch",
                 batches_ == 0 ? 0.0
                               : static_cast<double>(fsyncs_in_execute_) /
                                     static_cast<double>(batches_),
                 "count"});
  const uint64_t bytes = DirBytes(dir_ + "/mirror-wal") - wal_bytes_;
  out.push_back({"durability.wal_bytes_per_put",
                 wal_records_ == 0 ? 0.0
                                   : static_cast<double>(bytes) /
                                         static_cast<double>(wal_records_),
                 "B"});
  return out;
}

}  // namespace svcbench
