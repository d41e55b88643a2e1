#include "src/durability/wal.h"

#include <algorithm>
#include <cstdio>

#include "src/common/crc32c.h"
#include "src/durability/byte_order.h"

namespace wh::durability {

namespace {

constexpr uint64_t kHeaderBytes = 8;    // len u32 + crc u32
constexpr uint64_t kMinPayload = 13;    // seq u64 + op u8 + klen u32
constexpr uint64_t kMaxRecordLen = 1ull << 28;

std::string SegmentName(uint64_t first_seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%016llx.log",
                static_cast<unsigned long long>(first_seq));
  return buf;
}

bool ParseSegmentName(const std::string& name, uint64_t* first_seq) {
  // wal-<16 lower-case hex digits>.log, nothing else.
  if (name.size() != 24 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(20, 4, ".log") != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < 20; i++) {
    const char c = name[i];
    uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    v = (v << 4) | digit;
  }
  *first_seq = v;
  return true;
}

struct Segment {
  uint64_t first_seq = 0;
  std::string name;
};

Status ListSegments(Fs* fs, const std::string& dir,
                    std::vector<Segment>* out) {
  out->clear();
  std::vector<std::string> names;
  const Status st = fs->ListDir(dir, &names);
  if (!st.ok()) {
    return st;
  }
  for (const std::string& name : names) {
    uint64_t first_seq = 0;
    if (ParseSegmentName(name, &first_seq)) {
      out->push_back({first_seq, name});
    }
  }
  // ListDir sorts lexicographically and the fixed-width hex name makes that
  // the seq order too; sort anyway so the invariant never rests on a name
  // formatting detail.
  std::sort(out->begin(), out->end(),
            [](const Segment& a, const Segment& b) {
              return a.first_seq < b.first_seq;
            });
  return Status();
}

Status Corrupt(const std::string& segment, uint64_t offset, uint64_t seq,
               const std::string& why) {
  return Status::Error("WAL corruption in " + segment + " at offset " +
                       std::to_string(offset) + " (expected seq " +
                       std::to_string(seq) + "): " + why);
}

}  // namespace

Status Wal::Replay(Fs* fs, const std::string& dir, uint64_t min_seq,
                   const WalApplyFn& fn, ReplayStats* stats) {
  *stats = ReplayStats();
  std::vector<Segment> segments;
  Status st = ListSegments(fs, dir, &segments);
  if (!st.ok()) {
    return st;
  }
  uint64_t expected = 0;  // 0 until the first segment pins the numbering
  std::string data;
  for (size_t si = 0; si < segments.size(); si++) {
    const Segment& seg = segments[si];
    const bool last_segment = si + 1 == segments.size();
    if (expected != 0 && seg.first_seq != expected) {
      return Status::Error(
          "WAL corruption: segment " + seg.name + " starts at seq " +
          std::to_string(seg.first_seq) + " but the log continues at seq " +
          std::to_string(expected) + " (missing or stray segment)");
    }
    if (expected == 0) {
      expected = seg.first_seq;
    }
    st = fs->ReadFile(dir + "/" + seg.name, &data);
    if (!st.ok()) {
      return st;
    }
    const uint64_t size = data.size();
    uint64_t off = 0;
    while (off < size) {
      const char* base = data.data() + off;
      const uint64_t remaining = size - off;
      uint64_t len = 0;
      bool beyond_eof = false;
      std::string bad;
      if (remaining < kHeaderBytes) {
        beyond_eof = true;
        bad = "truncated record header";
      } else {
        len = GetU32(base);
        const uint32_t crc = GetU32(base + 4);
        if (kHeaderBytes + len > remaining) {
          beyond_eof = true;
          bad = "record extends past end of segment";
        } else if (len < kMinPayload || len > kMaxRecordLen) {
          bad = "implausible record length " + std::to_string(len);
        } else if (Crc32c(base + kHeaderBytes, len) != crc) {
          bad = "CRC mismatch";
        }
      }
      if (!bad.empty()) {
        // The recovery contract (wal.h): damage whose extent reaches exactly
        // end-of-file of the LAST segment is a torn tail — stop cleanly.
        // Anything else is mid-log corruption — hard fail.
        const bool at_eof = beyond_eof || off + kHeaderBytes + len == size;
        if (last_segment && at_eof) {
          stats->torn_bytes = size - off;
          stats->torn_offset = off;
          stats->torn_segment = seg.name;
          stats->torn_detail = bad + " at offset " + std::to_string(off);
          return Status();
        }
        return Corrupt(seg.name, off, expected, bad);
      }
      // CRC-validated payload: any inconsistency below survived a checksum,
      // so it is structural corruption regardless of position.
      const char* payload = base + kHeaderBytes;
      const uint64_t seq = GetU64(payload);
      const auto op = static_cast<uint8_t>(payload[8]);
      const uint32_t klen = GetU32(payload + 9);
      if (kMinPayload + klen > len) {
        return Corrupt(seg.name, off, expected,
                       "key length " + std::to_string(klen) +
                           " exceeds record payload");
      }
      if (op != static_cast<uint8_t>(WalOp::kPut) &&
          op != static_cast<uint8_t>(WalOp::kDelete)) {
        return Corrupt(seg.name, off, expected,
                       "unknown op " + std::to_string(op));
      }
      if (seq != expected) {
        return Corrupt(seg.name, off, expected,
                       "sequence discontinuity: record has seq " +
                           std::to_string(seq));
      }
      if (stats->first_seq == 0) {
        stats->first_seq = seq;
      }
      stats->last_seq = seq;
      stats->records++;
      if (fn != nullptr && seq >= min_seq) {
        fn(seq, static_cast<WalOp>(op),
           std::string_view(payload + kMinPayload, klen),
           std::string_view(payload + kMinPayload + klen,
                            len - kMinPayload - klen));
        stats->applied++;
      }
      expected = seq + 1;
      off += kHeaderBytes + len;
    }
  }
  return Status();
}

std::unique_ptr<Wal> Wal::Open(Fs* fs, const std::string& dir,
                               const WalOptions& opt, Status* status) {
  *status = fs->MkDirs(dir);
  if (!status->ok()) {
    return nullptr;
  }
  // Scan-only replay: hard-fails on mid-log corruption, locates a torn tail.
  ReplayStats stats;
  *status = Replay(fs, dir, /*min_seq=*/0, nullptr, &stats);
  if (!status->ok()) {
    return nullptr;
  }
  if (stats.torn_bytes > 0) {
    // Physically chop the torn tail so `valid prefix | garbage | new record`
    // can never exist on disk (the append below would otherwise follow it).
    *status = fs->Truncate(dir + "/" + stats.torn_segment, stats.torn_offset);
    if (!status->ok()) {
      return nullptr;
    }
  }
  std::vector<Segment> segments;
  *status = ListSegments(fs, dir, &segments);
  if (!status->ok()) {
    return nullptr;
  }
  std::unique_ptr<Wal> wal(new Wal(fs, dir, opt));
  if (segments.empty()) {
    wal->next_seq_ = 1;
    wal->segment_first_seq_ = 1;
    wal->file_ = fs->OpenAppend(dir + "/" + SegmentName(1), status);
    if (wal->file_ == nullptr) {
      return nullptr;
    }
    const Status st = fs->SyncDir(dir);  // make the new segment's entry durable
    if (!st.ok()) {
      *status = st;
      return nullptr;
    }
  } else {
    // A freshly rotated (still empty) tail segment starts numbering at its
    // own first_seq; otherwise the last record fixes it.
    wal->next_seq_ = std::max(stats.last_seq + 1, segments.back().first_seq);
    wal->segment_first_seq_ = segments.back().first_seq;
    wal->file_ = fs->OpenAppend(dir + "/" + segments.back().name, status);
    if (wal->file_ == nullptr) {
      return nullptr;
    }
  }
  return wal;
}

Wal::~Wal() {
  // Best-effort clean-shutdown sync; teardown has nobody to report to.
  if (file_ != nullptr && !failed_ && opt_.fsync != WalOptions::Fsync::kNone) {
    static_cast<void>(file_->Sync());
  }
}

Status Wal::Fail(const Status& st) {
  if (!failed_) {
    failed_ = true;
    first_error_ = st;
  }
  return first_error_;
}

Status Wal::AppendBatch(const WalEntry* entries, size_t n,
                        uint64_t* last_seq) {
  if (failed_) {
    return first_error_;
  }
  if (n == 0) {
    if (last_seq != nullptr) {
      *last_seq = next_seq_ - 1;
    }
    return Status();
  }
  buf_.clear();
  uint64_t seq = next_seq_;
  for (size_t i = 0; i < n; i++, seq++) {
    const WalEntry& e = entries[i];
    const std::string_view value =
        e.op == WalOp::kPut ? e.value : std::string_view();
    const uint64_t payload_len = kMinPayload + e.key.size() + value.size();
    if (payload_len > kMaxRecordLen) {
      return Fail(Status::Error("WAL record too large: " +
                                std::to_string(payload_len) + " bytes"));
    }
    const size_t start = buf_.size();
    PutU32(&buf_, static_cast<uint32_t>(payload_len));
    PutU32(&buf_, 0);  // crc, patched once the payload bytes are in place
    PutU64(&buf_, seq);
    buf_.push_back(static_cast<char>(e.op));
    PutU32(&buf_, static_cast<uint32_t>(e.key.size()));
    buf_.append(e.key);
    buf_.append(value);
    PatchU32(&buf_, start + 4,
             Crc32c(buf_.data() + start + kHeaderBytes, payload_len));
  }
  Status st = RotateIfNeeded(buf_.size());
  if (!st.ok()) {
    return Fail(st);
  }
  st = file_->Append(buf_);  // the group commit: one write for the batch
  if (!st.ok()) {
    return Fail(st);
  }
  next_seq_ = seq;
  st = SyncPerPolicy();
  if (!st.ok()) {
    return Fail(st);
  }
  if (last_seq != nullptr) {
    *last_seq = next_seq_ - 1;
  }
  return Status();
}

Status Wal::RotateIfNeeded(size_t incoming_bytes) {
  if (file_->size() == 0 ||
      file_->size() + incoming_bytes <= opt_.segment_bytes) {
    return Status();  // fits (or the segment is empty: never rotate to empty)
  }
  // Sync the outgoing segment so a torn tail can only exist in the last one
  // (the invariant Replay's torn/corrupt discrimination rests on). kNone
  // opts out of that guarantee knowingly.
  if (opt_.fsync != WalOptions::Fsync::kNone) {
    const Status st = DoSync();
    if (!st.ok()) {
      return st;
    }
  }
  static_cast<void>(file_->Close());
  Status st;
  file_ = fs_->OpenAppend(dir_ + "/" + SegmentName(next_seq_), &st);
  if (file_ == nullptr) {
    return st;
  }
  segment_first_seq_ = next_seq_;
  return fs_->SyncDir(dir_);
}

Status Wal::SyncPerPolicy() {
  switch (opt_.fsync) {
    case WalOptions::Fsync::kAlways:
      return DoSync();
    case WalOptions::Fsync::kInterval:
      if (sync_timer_.ElapsedSeconds() >= opt_.fsync_interval_s) {
        return DoSync();
      }
      return Status();
    case WalOptions::Fsync::kNone:
      return Status();
  }
  return Status();
}

Status Wal::DoSync() {
  const Status st = file_->Sync();
  if (st.ok()) {
    sync_timer_.Reset();
  }
  return st;
}

Status Wal::Sync() {
  if (failed_) {
    return first_error_;
  }
  const Status st = DoSync();
  if (!st.ok()) {
    return Fail(st);
  }
  return st;
}

Status Wal::TruncateBefore(uint64_t before_seq) {
  if (failed_) {
    return first_error_;
  }
  std::vector<Segment> segments;
  Status st = ListSegments(fs_, dir_, &segments);
  if (!st.ok()) {
    return st;
  }
  bool removed = false;
  // A segment's records all precede the NEXT segment's first_seq; the active
  // (last) segment is never deleted, so numbering always has an anchor.
  for (size_t i = 0; i + 1 < segments.size(); i++) {
    if (segments[i + 1].first_seq > before_seq) {
      break;
    }
    st = fs_->RemoveFile(dir_ + "/" + segments[i].name);
    if (!st.ok()) {
      return st;
    }
    removed = true;
  }
  if (removed) {
    return fs_->SyncDir(dir_);
  }
  return Status();
}

}  // namespace wh::durability
