// Append-only segmented write-ahead log with group commit. One Wal per log
// partition: the service appends each partition sub-batch as ONE record batch
// (one buffer build, one write, at most one fsync — the group commit that
// rides the existing MultiPut batching), and recovery replays the log tail
// over the latest snapshot (see snapshot.h).
//
// ===========================================================================
// WAL format + recovery contract (normative; asserted by
// tests/test_recovery.cc including an exhaustive torn-tail byte sweep)
//
// Files: a log directory holds segments named `wal-<seq16>.log` where
// <seq16> is the 16-digit lower-case hex of the sequence number of the FIRST
// record the segment may contain. Records never span segments. A segment is
// closed by rotation once it reaches WalOptions::segment_bytes; rotation
// syncs the old segment (fsync policies kAlways/kInterval) before opening
// the next, so a torn tail can only ever exist in the LAST segment.
//
// Record framing, all integers little-endian:
//
//   len  : u32   payload length in bytes (len >= 13, len <= 1<<28)
//   crc  : u32   finalized CRC32C (src/common/crc32c) over the payload
//   payload:
//     seq  : u64   sequence number; consecutive across the whole log
//     op   : u8    1 = Put, 2 = Delete
//     klen : u32   key length; value length = len - 13 - klen
//     key  : klen bytes
//     value: (len - 13 - klen) bytes (empty for Delete)
//
// Sequence numbers start at 1, increase by exactly 1 per record with no
// gaps, and are assigned at append time in apply order — the log IS the
// partition's serialized mutation history.
//
// Torn tail vs corruption (the recovery contract):
//   Replay walks segments in seq order, records front to back. For a record
//   whose frame claims the byte range [off, off+8+len):
//     - If the range extends past the end of the LAST segment, or its CRC
//       mismatches / its length field is implausible while the range ends
//       exactly at end-of-file of the LAST segment: this is a TORN TAIL —
//       the prefix before `off` is the true log; replay stops cleanly there
//       and reports the discarded byte count. A torn tail is the expected
//       residue of a crash mid-append and is NOT an error.
//     - The same conditions anywhere else — a non-final segment, or a bad
//       record with intact bytes after it — are MID-LOG CORRUPTION: replay
//       hard-fails with segment name, byte offset, and reason. Data after
//       the damage cannot be trusted to be the writer's history, so it is
//       never replayed.
//   A sequence discontinuity (record seq != previous + 1), a payload that
//   contradicts its frame (klen too large, unknown op), or a missing
//   segment in the middle of the name sequence is always corruption: those
//   bytes passed their CRC, so the damage is structural, not a torn write.
//
// Durability/acknowledgement: a record is durable once the append that
// carried it AND a subsequent successful Sync() have both returned ok
// (fsync policy kAlways gives this per batch; kInterval bounds the window;
// kNone leaves durability to the OS). If ANY append or sync fails — real
// error or injected — the Wal goes FAIL-STOP: the failing batch is reported
// not-applied, every later append fails with the first error, and no
// acknowledgement is ever issued for bytes whose sync failed (the fsyncgate
// rule: after a failed fsync the page cache must be assumed lost).
//
// Wal::Open scans the log, hard-fails on mid-log corruption, and physically
// truncates a torn tail before accepting new appends — so the byte
// sequence `...valid prefix | torn garbage | new record...` can never
// exist on disk.
// ===========================================================================
//
// Thread safety: a Wal is NOT internally synchronized. The service owns one
// per log partition and serializes AppendBatch/Sync/TruncateBefore under the
// partition's wal_mu (WAL order must equal apply order; see service.h).
#ifndef WH_SRC_DURABILITY_WAL_H_
#define WH_SRC_DURABILITY_WAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/timing.h"
#include "src/durability/fault_file.h"

namespace wh::durability {

enum class WalOp : uint8_t { kPut = 1, kDelete = 2 };

// One logical mutation to log. Views must stay valid across the AppendBatch
// call only.
struct WalEntry {
  WalOp op = WalOp::kPut;
  std::string_view key;
  std::string_view value;  // ignored for kDelete
};

struct WalOptions {
  enum class Fsync : uint8_t {
    kAlways,    // fsync after every AppendBatch (ack == durable)
    kInterval,  // fsync when fsync_interval_s elapsed since the last one
    kNone,      // never fsync from the WAL; durability is best-effort
  };
  Fsync fsync = Fsync::kAlways;
  double fsync_interval_s = 0.05;
  uint64_t segment_bytes = 64ull << 20;
};

struct ReplayStats {
  uint64_t records = 0;    // valid records scanned (applied or skipped)
  uint64_t applied = 0;    // records handed to the apply fn
  uint64_t first_seq = 0;  // seq of the first valid record (0: empty log)
  uint64_t last_seq = 0;   // seq of the last valid record (0: empty log)
  uint64_t torn_bytes = 0;      // discarded torn-tail bytes (0: clean tail)
  uint64_t torn_offset = 0;     // valid-prefix length of the torn segment
  std::string torn_segment;     // segment file name ("" : clean tail)
  std::string torn_detail;      // human-readable torn-tail description
};

using WalApplyFn = std::function<void(uint64_t seq, WalOp op,
                                      std::string_view key,
                                      std::string_view value)>;

class Wal {
 public:
  // Opens (creating dir/segments as needed) and repairs the log: hard-fails
  // on mid-log corruption (*status carries segment+offset+reason, returns
  // null), truncates a torn tail. next_seq() continues the survivor history.
  static std::unique_ptr<Wal> Open(Fs* fs, const std::string& dir,
                                   const WalOptions& opt, Status* status);
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Group commit: assigns n consecutive sequence numbers, frames all n
  // entries into one buffer, appends it with one write, then syncs per the
  // fsync policy. On success *last_seq is the seq of entries[n-1]. On
  // failure nothing is acknowledged and the Wal is fail-stop (see contract).
  Status AppendBatch(const WalEntry* entries, size_t n, uint64_t* last_seq);

  // Forces an fsync regardless of policy (snapshot barrier, clean shutdown).
  Status Sync();

  // Deletes segments whose every record has seq < before_seq (the snapshot
  // truncation point). The active segment is never deleted.
  Status TruncateBefore(uint64_t before_seq);

  // Seq the next appended record will get.
  uint64_t next_seq() const { return next_seq_; }

  // Replays all records with seq >= min_seq in order, enforcing the recovery
  // contract above. fn may be null (scan/validate only). Works on a log
  // directory without constructing a Wal — recovery reads, then Open()s.
  static Status Replay(Fs* fs, const std::string& dir, uint64_t min_seq,
                       const WalApplyFn& fn, ReplayStats* stats);

 private:
  Wal(Fs* fs, std::string dir, const WalOptions& opt)
      : fs_(fs), dir_(std::move(dir)), opt_(opt) {}

  Status RotateIfNeeded(size_t incoming_bytes);
  Status SyncPerPolicy();
  Status DoSync();
  Status Fail(const Status& st);  // records first error, returns it

  Fs* fs_;
  const std::string dir_;
  const WalOptions opt_;
  std::unique_ptr<AppendFile> file_;  // active (last) segment
  uint64_t next_seq_ = 1;
  uint64_t segment_first_seq_ = 1;  // first seq of the active segment
  bool failed_ = false;
  Status first_error_;
  std::string buf_;    // batch framing scratch, reused across appends
  Timer sync_timer_;   // time since the last fsync (kInterval policy)
};

}  // namespace wh::durability

#endif  // WH_SRC_DURABILITY_WAL_H_
