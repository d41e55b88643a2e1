// Point-in-time snapshots of a log partition + the recovery entry point.
//
// A snapshot is taken through an epoch-pinned cursor sweep (src/common/
// cursor.h) while writers stay live, so it is FUZZY: it contains every
// mutation with seq <= its recorded floor and may additionally contain the
// effects of concurrent writes with seq > floor. That is safe because
// recovery replays the WAL tail from floor+1 in seq order and Put/Delete
// are idempotent at equal history positions — replaying an already-visible
// suffix converges to exactly the log's final state. (The floor is read
// from the partition's applied-seq counter BEFORE the sweep starts; WAL append
// happens before apply, so every record <= floor is both durable and
// visible to the cursor.)
//
// File format (snapshot-<seq16>.snap, integers little-endian):
//
//   magic : 8 bytes  "WHSNAP01"
//   seq   : u64      the snapshot floor
//   items : repeated  klen u32 | vlen u32 | key | value
//   count : u64      number of items
//   crc   : u32      finalized CRC32C over every preceding byte
//
// Publish protocol: write to snapshot-<seq16>.tmp, fsync, rename to .snap
// (+ directory fsync), then rewrite MANIFEST the same way (MANIFEST.tmp ->
// rename). MANIFEST holds the current snapshot's file name. Readers only
// ever trust the manifest, so a crash at any point leaves either the old
// snapshot or the new one — never a partial. Because snapshots are
// atomically published, ANY structural or CRC mismatch at load time is a
// hard error (there is no torn-tail tolerance here; that is WAL-only).
//
// Old snapshots are deleted after the manifest moves; WAL truncation at the
// floor (Wal::TruncateBefore) is the caller's follow-up step.
#ifndef WH_SRC_DURABILITY_SNAPSHOT_H_
#define WH_SRC_DURABILITY_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/common/cursor.h"
#include "src/durability/fault_file.h"
#include "src/durability/wal.h"

namespace wh::durability {

struct SnapshotStats {
  uint64_t items = 0;
  uint64_t bytes = 0;  // published file size
};

// Sweeps the keys in [lo, hi) through `cursor` and publishes them as the
// partition's current snapshot with floor `seq` (see the publish protocol
// above). An empty `hi` means no upper bound, so ("", "") sweeps the whole
// index. The cursor must be freshly constructed or repositionable; writers
// may run concurrently (fuzziness contract above).
Status WriteSnapshot(Fs* fs, const std::string& dir, uint64_t seq,
                     Cursor* cursor, std::string_view lo, std::string_view hi,
                     SnapshotStats* stats);

// Loads the manifest-current snapshot, invoking fn(key, value) per item in
// key order. No manifest => empty store, *seq_out = 0, ok. Any mismatch
// (magic, count, CRC, framing) is a hard error naming the file.
using SnapshotItemFn =
    std::function<void(std::string_view key, std::string_view value)>;
Status LoadSnapshot(Fs* fs, const std::string& dir, const SnapshotItemFn& fn,
                    uint64_t* seq_out);

struct RecoverStats {
  uint64_t snapshot_seq = 0;    // floor of the loaded snapshot (0: none)
  uint64_t snapshot_items = 0;
  uint64_t wal_records = 0;     // valid WAL records scanned
  uint64_t wal_applied = 0;     // records replayed (seq > snapshot floor)
  uint64_t last_seq = 0;        // last valid seq in the log (0: empty)
  uint64_t torn_bytes = 0;      // discarded torn-tail bytes
  std::string torn_detail;
};

// Full recovery of one partition directory: snapshot items first (as Puts), then the WAL tail
// with seq > floor, through the same apply callback. Enforces continuity
// between the two (a WAL whose first record skips past floor+1 means
// truncated history and is rejected). The caller applies into an index
// holding none of the directory's keys and then Wal::Open()s the same dir to continue the history.
using RecoverApplyFn = std::function<void(WalOp op, std::string_view key,
                                          std::string_view value)>;
Status RecoverShard(Fs* fs, const std::string& dir,
                    const RecoverApplyFn& apply, RecoverStats* stats);

}  // namespace wh::durability

#endif  // WH_SRC_DURABILITY_SNAPSHOT_H_
