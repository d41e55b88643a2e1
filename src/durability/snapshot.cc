#include "src/durability/snapshot.h"

#include <cstdio>
#include <vector>

#include "src/common/crc32c.h"
#include "src/durability/byte_order.h"

namespace wh::durability {

namespace {

constexpr char kMagic[8] = {'W', 'H', 'S', 'N', 'A', 'P', '0', '1'};
constexpr char kManifestName[] = "MANIFEST";
// magic + seq + count + crc: the smallest (empty) snapshot.
constexpr uint64_t kMinSnapshotBytes = 8 + 8 + 8 + 4;
constexpr size_t kFlushBytes = 64 << 10;

std::string SnapshotName(uint64_t seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "snapshot-%016llx.snap",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

// Streams bytes to an AppendFile in kFlushBytes chunks while folding them
// into an incremental CRC32C state (raw, finalized by the caller at the end).
class ChecksummedWriter {
 public:
  explicit ChecksummedWriter(AppendFile* file) : file_(file) {}

  void Append(std::string_view data) {
    buf_.append(data);
    // Status latches: once a flush fails, later appends are dropped and the
    // caller sees the first error at Finish().
    if (buf_.size() >= kFlushBytes && st_.ok()) {
      Flush();
    }
  }

  // Flushes, appends the finalized CRC of everything streamed so far (the
  // CRC bytes themselves are excluded), and returns the first error.
  Status Finish() {
    if (st_.ok()) {
      Flush();
    }
    if (!st_.ok()) {
      return st_;
    }
    std::string trailer;
    PutU32(&trailer, ~crc_state_);
    return file_->Append(trailer);
  }

 private:
  void Flush() {
    if (buf_.empty()) {
      return;
    }
    crc_state_ = Crc32cExtend(crc_state_, buf_.data(), buf_.size());
    st_ = file_->Append(buf_);
    buf_.clear();
  }

  AppendFile* file_;
  std::string buf_;
  uint32_t crc_state_ = kCrc32cInit;
  Status st_;
};

}  // namespace

Status WriteSnapshot(Fs* fs, const std::string& dir, uint64_t seq,
                     Cursor* cursor, SnapshotStats* stats) {
  *stats = SnapshotStats();
  const std::string name = SnapshotName(seq);
  const std::string tmp_path = dir + "/" + name + ".tmp";
  Status st;
  std::unique_ptr<AppendFile> file = fs->OpenTrunc(tmp_path, &st);
  if (file == nullptr) {
    return st;
  }
  ChecksummedWriter out(file.get());
  std::string header;
  header.append(kMagic, sizeof(kMagic));
  PutU64(&header, seq);
  out.Append(header);

  uint64_t count = 0;
  std::string item;
  for (cursor->Seek(std::string_view()); cursor->Valid(); cursor->Next()) {
    item.clear();
    const std::string_view key = cursor->key();
    const std::string_view value = cursor->value();
    PutU32(&item, static_cast<uint32_t>(key.size()));
    PutU32(&item, static_cast<uint32_t>(value.size()));
    item.append(key);
    item.append(value);
    out.Append(item);
    count++;
  }
  std::string footer;
  PutU64(&footer, count);
  out.Append(footer);
  st = out.Finish();
  if (!st.ok()) {
    return st;
  }
  st = file->Sync();
  if (!st.ok()) {
    return st;
  }
  const uint64_t bytes = file->size();
  st = file->Close();
  if (!st.ok()) {
    return st;
  }
  // Atomic publish: the .snap name appears fully written or not at all, and
  // the manifest flip is itself a rename. A crash between the two leaves a
  // valid unreferenced .snap, which the GC pass below collects next time.
  st = fs->Rename(tmp_path, dir + "/" + name);
  if (!st.ok()) {
    return st;
  }
  st = fs->WriteFile(dir + "/" + kManifestName + std::string(".tmp"),
                     name + "\n");
  if (!st.ok()) {
    return st;
  }
  st = fs->Rename(dir + "/" + kManifestName + std::string(".tmp"),
                  dir + "/" + kManifestName);
  if (!st.ok()) {
    return st;
  }
  // GC: every snapshot file except the just-published one, including stale
  // .tmp leftovers from crashed attempts.
  std::vector<std::string> names;
  st = fs->ListDir(dir, &names);
  if (!st.ok()) {
    return st;
  }
  for (const std::string& n : names) {
    const bool stale_snap = EndsWith(n, ".snap") && n != name;
    const bool stale_tmp = StartsWith(n, "snapshot-") && EndsWith(n, ".tmp") &&
                           n != name + ".tmp";
    if (StartsWith(n, "snapshot-") && (stale_snap || stale_tmp)) {
      st = fs->RemoveFile(dir + "/" + n);
      if (!st.ok()) {
        return st;
      }
    }
  }
  stats->items = count;
  stats->bytes = bytes;
  return Status();
}

Status LoadSnapshot(Fs* fs, const std::string& dir, const SnapshotItemFn& fn,
                    uint64_t* seq_out) {
  *seq_out = 0;
  const std::string manifest_path = dir + "/" + kManifestName;
  if (!fs->Exists(manifest_path)) {
    return Status();  // no snapshot yet: empty store at seq 0
  }
  std::string manifest;
  Status st = fs->ReadFile(manifest_path, &manifest);
  if (!st.ok()) {
    return st;
  }
  const size_t nl = manifest.find('\n');
  const std::string name =
      nl == std::string::npos ? manifest : manifest.substr(0, nl);
  if (!StartsWith(name, "snapshot-") || !EndsWith(name, ".snap") ||
      name.find('/') != std::string::npos) {
    return Status::Error("snapshot manifest " + manifest_path +
                         " names an invalid snapshot file: '" + name + "'");
  }
  const std::string path = dir + "/" + name;
  std::string data;
  st = fs->ReadFile(path, &data);
  if (!st.ok()) {
    return st;
  }
  // Snapshots are published atomically, so unlike the WAL there is no torn
  // state to tolerate: any mismatch is a hard error.
  if (data.size() < kMinSnapshotBytes) {
    return Status::Error("snapshot " + path + " too small (" +
                         std::to_string(data.size()) + " bytes)");
  }
  if (data.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    return Status::Error("snapshot " + path + " has a bad magic header");
  }
  const uint32_t want_crc = GetU32(data.data() + data.size() - 4);
  if (Crc32c(data.data(), data.size() - 4) != want_crc) {
    return Status::Error("snapshot " + path + " failed its CRC check");
  }
  const uint64_t count = GetU64(data.data() + data.size() - 12);
  const uint64_t items_end = data.size() - 12;
  uint64_t off = 16;
  uint64_t seen = 0;
  while (off < items_end) {
    if (items_end - off < 8) {
      return Status::Error("snapshot " + path + " has a truncated item at " +
                           std::to_string(off));
    }
    const uint32_t klen = GetU32(data.data() + off);
    const uint32_t vlen = GetU32(data.data() + off + 4);
    const uint64_t need = 8ull + klen + vlen;
    if (items_end - off < need) {
      return Status::Error("snapshot " + path + " item at " +
                           std::to_string(off) + " overruns the item region");
    }
    if (fn != nullptr) {
      fn(std::string_view(data.data() + off + 8, klen),
         std::string_view(data.data() + off + 8 + klen, vlen));
    }
    off += need;
    seen++;
  }
  if (seen != count) {
    return Status::Error("snapshot " + path + " item count mismatch: header " +
                         std::to_string(count) + ", found " +
                         std::to_string(seen));
  }
  *seq_out = GetU64(data.data() + 8);
  return Status();
}

Status RecoverShard(Fs* fs, const std::string& dir,
                    const RecoverApplyFn& apply, RecoverStats* stats) {
  *stats = RecoverStats();
  uint64_t floor = 0;
  Status st = LoadSnapshot(
      fs, dir,
      [&](std::string_view key, std::string_view value) {
        apply(WalOp::kPut, key, value);
        stats->snapshot_items++;
      },
      &floor);
  if (!st.ok()) {
    return st;
  }
  stats->snapshot_seq = floor;
  ReplayStats rs;
  st = Wal::Replay(
      fs, dir, /*min_seq=*/floor + 1,
      [&](uint64_t /*seq*/, WalOp op, std::string_view key,
          std::string_view value) { apply(op, key, value); },
      &rs);
  if (!st.ok()) {
    return st;
  }
  // Continuity between snapshot and log: the WAL may retain records at or
  // below the floor (truncation is lazy) but must not START after floor+1 —
  // that would mean the records bridging the snapshot to the log were lost.
  if (rs.records > 0 && rs.first_seq > floor + 1) {
    return Status::Error(
        "WAL history gap after snapshot: snapshot floor " +
        std::to_string(floor) + " but the log starts at seq " +
        std::to_string(rs.first_seq));
  }
  stats->wal_records = rs.records;
  stats->wal_applied = rs.applied;
  stats->last_seq = rs.last_seq;
  stats->torn_bytes = rs.torn_bytes;
  stats->torn_detail = rs.torn_detail;
  return Status();
}

}  // namespace wh::durability
