// The fault-injectable file layer: EVERY byte the durability subsystem
// persists or reads back moves through this API. That single choke point is
// what makes the crash story testable — tests/test_recovery.cc swaps in a
// FaultPlan and gets byte-exact short writes, failed fsyncs, and tail
// truncation without mocking the WAL or the snapshot writer, and the
// `raw-io` rule in scripts/lint_concurrency.py enforces that no other file
// under src/durability/ calls open/write/fsync/rename/... directly, so new
// durability code cannot quietly bypass the injection point.
//
// Injection model (FaultPlan):
//   - CrashAfterBytes(n): a global budget of n persisted bytes across all
//     subsequent writes through the plan. The write that crosses the budget
//     is applied SHORT (first remaining bytes only) and the plan enters the
//     crashed state; every later mutating operation fails with "injected
//     crash". This models kill -9 mid-write: a prefix of the intended bytes
//     is on disk, nothing after the kill point exists.
//   - FailFsyncAfter(n): the next n Sync/SyncDir calls succeed, every later
//     one fails WITHOUT syncing. Models the fsyncgate failure mode: the
//     kernel reports an error and the page-cache contents must be treated
//     as lost, so callers are required to surface the error (the WAL goes
//     fail-stop; see wal.h).
//   - Read-side operations (ReadFile/ListDir/Exists) never fail by
//     injection: they model recovery-time access, which happens after the
//     fault, on whatever bytes survived.
//
// A Fs constructed with a null plan is a plain passthrough over POSIX I/O —
// the production configuration. Fs::Default() returns a shared passthrough
// instance for callers that don't inject.
//
// Thread safety: FaultPlan is internally synchronized (budgets are consumed
// from concurrent client threads). Fs is stateless apart from the plan
// pointer and safe to share. An AppendFile is a single-writer handle — the
// WAL serializes appends per log partition (service wal_mu) and snapshot writers are
// single-threaded, so it carries no lock of its own.
#ifndef WH_SRC_DURABILITY_FAULT_FILE_H_
#define WH_SRC_DURABILITY_FAULT_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/sync.h"

namespace wh::durability {

// Error transport for the durability layer: cheap to pass, carries a precise
// human-readable diagnostic (the recovery contract in wal.h promises
// segment + offset + reason on corruption). Default-constructed = success.
class Status {
 public:
  Status() = default;
  static Status Error(std::string msg) { return Status(std::move(msg)); }

  bool ok() const { return ok_; }
  const std::string& message() const { return msg_; }

 private:
  explicit Status(std::string msg) : ok_(false), msg_(std::move(msg)) {}

  bool ok_ = true;
  std::string msg_;
};

// Shared fault schedule. One plan may drive many Fs/AppendFile handles (all
// log partitions of a service under one kill point).
class FaultPlan {
 public:
  FaultPlan() = default;
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  // Persist exactly `budget` more bytes, then crash (see file comment).
  void CrashAfterBytes(uint64_t budget) EXCLUDES(mu_) {
    ScopedLock g(mu_);
    write_budget_ = static_cast<int64_t>(budget);
    crashed_ = false;
  }

  // Let the next `count` syncs succeed, then fail every later one.
  void FailFsyncAfter(uint64_t count) EXCLUDES(mu_) {
    ScopedLock g(mu_);
    sync_budget_ = static_cast<int64_t>(count);
  }

  bool crashed() const EXCLUDES(mu_) {
    ScopedLock g(mu_);
    return crashed_;
  }

  // --- internal to the Fs layer (public so fault_file.cc's free helpers can
  // reach them; not part of the user-facing surface) ---

  // Consumes write budget: returns how many of `want` bytes may be
  // persisted. A short return (< want) means the plan just crashed.
  uint64_t AdmitWrite(uint64_t want) EXCLUDES(mu_);
  // True if this sync may proceed; false = injected fsync failure (the sync
  // must NOT be issued).
  bool AdmitSync() EXCLUDES(mu_);
  // True once crashed: every mutating op must fail without touching disk.
  bool AdmitMutation() EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  int64_t write_budget_ GUARDED_BY(mu_) = -1;  // -1 = unlimited
  int64_t sync_budget_ GUARDED_BY(mu_) = -1;   // -1 = unlimited
  bool crashed_ GUARDED_BY(mu_) = false;
};

// Append-only file handle. Obtained from Fs::OpenAppend / Fs::OpenTrunc;
// closes (without syncing) on destruction.
class AppendFile {
 public:
  ~AppendFile();
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  Status Append(std::string_view data);
  Status Sync();
  Status Close();  // idempotent; Append/Sync after Close fail

  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  friend class Fs;
  AppendFile(int fd, std::string path, FaultPlan* plan, uint64_t size)
      : fd_(fd), path_(std::move(path)), plan_(plan), size_(size) {}

  int fd_;
  std::string path_;
  FaultPlan* plan_;  // null = passthrough
  uint64_t size_;    // bytes in the file (offset of the next append)
};

// The filesystem facade. All paths are plain POSIX paths; all mutating
// operations consult the plan (when present) before touching disk.
class Fs {
 public:
  explicit Fs(FaultPlan* plan = nullptr) : plan_(plan) {}

  // Shared passthrough instance (no fault plan) for production callers.
  static Fs* Default();

  // mkdir -p. Existing directories are fine.
  Status MkDirs(const std::string& path);

  // Opens for appending, creating if absent (WAL segments reopened across
  // recovery). Null + *status set on failure.
  std::unique_ptr<AppendFile> OpenAppend(const std::string& path,
                                         Status* status);
  // Opens truncated-to-empty (snapshot temp files, which must never inherit
  // bytes from an earlier crashed attempt).
  std::unique_ptr<AppendFile> OpenTrunc(const std::string& path,
                                        Status* status);

  // Whole-file read. Never fault-injected (recovery-side).
  Status ReadFile(const std::string& path, std::string* out) const;

  // Convenience: OpenTrunc + Append + Sync + Close.
  Status WriteFile(const std::string& path, std::string_view data);

  // rename(2) + fsync of the destination's parent directory — the atomic
  // publish step for snapshots and manifests.
  Status Rename(const std::string& from, const std::string& to);

  Status RemoveFile(const std::string& path);

  // Byte-exact tail truncation (also how WAL recovery chops a torn tail).
  Status Truncate(const std::string& path, uint64_t size);

  // fsync on a directory fd: makes created/renamed/removed entries durable.
  Status SyncDir(const std::string& path);

  // Regular files in `path`, lexicographically sorted. Never injected.
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) const;

  bool Exists(const std::string& path) const;

  // rm -rf (files + subdirectories). Test/bench cleanup; missing path is ok.
  Status RemoveAll(const std::string& path);

 private:
  FaultPlan* plan_;
};

}  // namespace wh::durability

#endif  // WH_SRC_DURABILITY_FAULT_FILE_H_
