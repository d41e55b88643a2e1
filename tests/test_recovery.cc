// Crash/recovery differential suite for the durability layer (src/durability)
// and the service's durable mode. Everything here drives REAL file I/O through
// the fault-injectable Fs layer (fault_file.h): short writes from a byte
// budget (the kill -9 model), failed fsyncs, and byte-exact tail truncation.
// The two load-bearing tests are the exhaustive torn-tail sweep (truncate the
// log at EVERY byte offset of the final record and demand a clean stop at the
// record boundary) and the randomized kill-point differential (crash a durable
// service at a random persisted-byte budget, recover, and demand the recovered
// store equal an exact prefix of the submitted history that covers every
// acknowledged write).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/qsbr.h"
#include "src/common/rng.h"
#include "src/core/wormhole.h"
#include "src/durability/fault_file.h"
#include "src/durability/snapshot.h"
#include "src/durability/wal.h"
#include "src/server/service.h"
#include "src/server/shard_router.h"

namespace wh {
namespace {

namespace du = durability;

using Oracle = std::map<std::string, std::string>;
using Pairs = std::vector<std::pair<std::string, std::string>>;

const char kSeg1[] = "wal-0000000000000001.log";

std::string BaseDir() {
  static const std::string base =
      "/tmp/wh_recovery_test." + std::to_string(static_cast<long>(::getpid()));
  return base;
}

class TmpDirEnv : public ::testing::Environment {
 public:
  void TearDown() override {
    static_cast<void>(du::Fs::Default()->RemoveAll(BaseDir()));
  }
};
[[maybe_unused]] const auto* const g_tmpdir_env =
    ::testing::AddGlobalTestEnvironment(new TmpDirEnv);

// Fresh empty directory under the per-process test root.
std::string FreshDir(const std::string& name) {
  const std::string dir = BaseDir() + "/" + name;
  du::Fs* fs = du::Fs::Default();
  EXPECT_TRUE(fs->RemoveAll(dir).ok());
  EXPECT_TRUE(fs->MkDirs(dir).ok());
  return dir;
}

// Flat-directory copy (WAL/snapshot dirs hold no subdirectories).
void CopyDir(const std::string& from, const std::string& to) {
  du::Fs* fs = du::Fs::Default();
  ASSERT_TRUE(fs->MkDirs(to).ok());
  std::vector<std::string> names;
  ASSERT_TRUE(fs->ListDir(from, &names).ok());
  for (const std::string& n : names) {
    std::string data;
    ASSERT_TRUE(fs->ReadFile(from + "/" + n, &data).ok());
    ASSERT_TRUE(fs->WriteFile(to + "/" + n, data).ok());
  }
}

void Apply(Oracle* o, du::WalOp op, std::string_view key,
           std::string_view value) {
  if (op == du::WalOp::kPut) {
    (*o)[std::string(key)] = std::string(value);
  } else {
    o->erase(std::string(key));
  }
}

du::Status ReplayToOracle(du::Fs* fs, const std::string& dir, Oracle* out,
                          du::ReplayStats* stats) {
  return du::Wal::Replay(
      fs, dir, /*min_seq=*/1,
      [out](uint64_t, du::WalOp op, std::string_view k, std::string_view v) {
        Apply(out, op, k, v);
      },
      stats);
}

std::vector<std::string> WalSegmentNames(const std::string& dir) {
  std::vector<std::string> names;
  EXPECT_TRUE(du::Fs::Default()->ListDir(dir, &names).ok());
  std::vector<std::string> segs;
  for (const std::string& n : names) {
    if (n.rfind("wal-", 0) == 0) {
      segs.push_back(n);
    }
  }
  return segs;
}

std::string K(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%03llu", static_cast<unsigned long long>(i));
  return buf;
}

Request MakePut(std::string key, std::string value) {
  Request r;
  r.op = Op::kPut;
  r.key = std::move(key);
  r.value = std::move(value);
  return r;
}

Request MakeDel(std::string key) {
  Request r;
  r.op = Op::kDelete;
  r.key = std::move(key);
  return r;
}

Request MakeGet(std::string key) {
  Request r;
  r.op = Op::kGet;
  r.key = std::move(key);
  return r;
}

Request MakeScanAll() {
  Request r;
  r.op = Op::kScan;
  r.scan_limit = 1000000;
  return r;
}

ServiceOptions DurableOpts(
    const std::string& dir, du::Fs* fs, uint64_t segment_bytes = 64ull << 20,
    du::WalOptions::Fsync fsync = du::WalOptions::Fsync::kAlways) {
  ServiceOptions opt;
  opt.durability.enabled = true;
  opt.durability.dir = dir;
  opt.durability.fs = fs;
  opt.durability.wal.fsync = fsync;
  opt.durability.wal.segment_bytes = segment_bytes;
  return opt;
}

// Little-endian frame helpers for hand-built records (the normative format in
// wal.h, reproduced independently of the writer's code).
void PutU32(std::string* b, uint32_t v) {
  b->push_back(static_cast<char>(v & 0xff));
  b->push_back(static_cast<char>((v >> 8) & 0xff));
  b->push_back(static_cast<char>((v >> 16) & 0xff));
  b->push_back(static_cast<char>((v >> 24) & 0xff));
}

void PutU64(std::string* b, uint64_t v) {
  PutU32(b, static_cast<uint32_t>(v & 0xffffffffu));
  PutU32(b, static_cast<uint32_t>(v >> 32));
}

std::string FrameRecord(uint64_t seq, uint8_t op, std::string_view key,
                        std::string_view value) {
  std::string payload;
  PutU64(&payload, seq);
  payload.push_back(static_cast<char>(op));
  PutU32(&payload, static_cast<uint32_t>(key.size()));
  payload.append(key);
  payload.append(value);
  std::string rec;
  PutU32(&rec, static_cast<uint32_t>(payload.size()));
  PutU32(&rec, Crc32c(payload.data(), payload.size()));
  rec += payload;
  return rec;
}

// ---------------------------------------------------------------------------
// Fault layer
// ---------------------------------------------------------------------------

TEST(FaultFile, ShortWriteThenCrashedState) {
  const std::string dir = FreshDir("fault_short_write");
  du::FaultPlan plan;
  du::Fs fs(&plan);
  plan.CrashAfterBytes(10);
  du::Status st;
  auto f = fs.OpenTrunc(dir + "/x", &st);
  ASSERT_NE(f, nullptr) << st.message();
  st = f->Append("0123456789ABCDEF");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected"), std::string::npos) << st.message();
  EXPECT_TRUE(plan.crashed());
  // Exactly the budgeted prefix landed on disk; nothing after the kill point.
  std::string data;
  ASSERT_TRUE(du::Fs::Default()->ReadFile(dir + "/x", &data).ok());
  EXPECT_EQ(data, "0123456789");
  // Crashed state: every later mutation through the plan fails up front.
  EXPECT_FALSE(f->Append("more").ok());
  EXPECT_FALSE(f->Sync().ok());
  EXPECT_FALSE(fs.WriteFile(dir + "/y", "z").ok());
  EXPECT_FALSE(du::Fs::Default()->Exists(dir + "/y"));
}

TEST(FaultFile, FsyncBudgetFailsWithoutCrashing) {
  const std::string dir = FreshDir("fault_fsync");
  du::FaultPlan plan;
  du::Fs fs(&plan);
  plan.FailFsyncAfter(1);
  du::Status st;
  auto f = fs.OpenTrunc(dir + "/x", &st);
  ASSERT_NE(f, nullptr) << st.message();
  ASSERT_TRUE(f->Append("hello").ok());
  EXPECT_TRUE(f->Sync().ok());  // within budget
  st = f->Sync();               // budget exhausted
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("fsync"), std::string::npos) << st.message();
  // An fsync failure is not a crash: writes keep flowing (the WAL layer is
  // what must refuse to ack them — tested at the service level below).
  EXPECT_FALSE(plan.crashed());
  EXPECT_TRUE(f->Append("!").ok());
}

// ---------------------------------------------------------------------------
// WAL format + replay contract
// ---------------------------------------------------------------------------

TEST(Wal, AppendReplayRoundTripAndReopenContinuesNumbering) {
  const std::string dir = FreshDir("wal_roundtrip");
  du::Fs* fs = du::Fs::Default();
  du::WalOptions wopt;
  du::Status st;
  {
    auto wal = du::Wal::Open(fs, dir, wopt, &st);
    ASSERT_NE(wal, nullptr) << st.message();
    EXPECT_EQ(wal->next_seq(), 1u);
    const du::WalEntry batch[] = {
        {du::WalOp::kPut, "alpha", "1"},
        {du::WalOp::kPut, "beta", std::string_view()},
        {du::WalOp::kDelete, "alpha", std::string_view()},
    };
    uint64_t last = 0;
    ASSERT_TRUE(wal->AppendBatch(batch, 3, &last).ok());
    EXPECT_EQ(last, 3u);
    EXPECT_EQ(wal->next_seq(), 4u);
  }
  {
    auto wal = du::Wal::Open(fs, dir, wopt, &st);
    ASSERT_NE(wal, nullptr) << st.message();
    EXPECT_EQ(wal->next_seq(), 4u);
    const std::string big(100, 'g');
    const du::WalEntry e = {du::WalOp::kPut, "gamma", big};
    ASSERT_TRUE(wal->AppendBatch(&e, 1, nullptr).ok());
  }
  std::vector<std::tuple<uint64_t, std::string, std::string>> seen;
  du::ReplayStats stats;
  st = du::Wal::Replay(
      fs, dir, /*min_seq=*/1,
      [&](uint64_t seq, du::WalOp op, std::string_view k, std::string_view v) {
        seen.emplace_back(seq, std::string(k),
                          op == du::WalOp::kDelete ? "<del>" : std::string(v));
      },
      &stats);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(stats.records, 4u);
  EXPECT_EQ(stats.applied, 4u);
  EXPECT_EQ(stats.first_seq, 1u);
  EXPECT_EQ(stats.last_seq, 4u);
  EXPECT_EQ(stats.torn_bytes, 0u);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], std::make_tuple(uint64_t{1}, std::string("alpha"),
                                     std::string("1")));
  EXPECT_EQ(seen[1],
            std::make_tuple(uint64_t{2}, std::string("beta"), std::string()));
  EXPECT_EQ(seen[2], std::make_tuple(uint64_t{3}, std::string("alpha"),
                                     std::string("<del>")));
  EXPECT_EQ(seen[3], std::make_tuple(uint64_t{4}, std::string("gamma"),
                                     std::string(100, 'g')));
  // min_seq skips (but still validates) the prefix below it.
  st = du::Wal::Replay(
      fs, dir, /*min_seq=*/3,
      [](uint64_t, du::WalOp, std::string_view, std::string_view) {}, &stats);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(stats.records, 4u);
  EXPECT_EQ(stats.applied, 2u);
}

TEST(Wal, RotationAndTruncateBeforeKeepReplayContiguous) {
  const std::string dir = FreshDir("wal_rotate");
  du::Fs* fs = du::Fs::Default();
  du::WalOptions wopt;
  wopt.segment_bytes = 128;  // a couple of records per segment
  du::Status st;
  Oracle want;
  {
    auto wal = du::Wal::Open(fs, dir, wopt, &st);
    ASSERT_NE(wal, nullptr) << st.message();
    for (uint64_t i = 0; i < 20; i++) {
      const std::string key = K(i);
      const std::string value(24, static_cast<char>('a' + i % 26));
      const du::WalEntry e = {du::WalOp::kPut, key, value};
      ASSERT_TRUE(wal->AppendBatch(&e, 1, nullptr).ok());
      want[key] = value;
    }
    ASSERT_GT(WalSegmentNames(dir).size(), 3u);
    ASSERT_TRUE(wal->TruncateBefore(11).ok());
  }
  // Only segments whose EVERY record precedes seq 11 were dropped; the
  // remaining log replays contiguously and still covers seqs 11..20.
  Oracle got;
  du::ReplayStats stats;
  st = ReplayToOracle(fs, dir, &got, &stats);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_LE(stats.first_seq, 11u);
  EXPECT_EQ(stats.last_seq, 20u);
  for (uint64_t i = stats.first_seq - 1; i < 20; i++) {
    EXPECT_EQ(got.at(K(i)), want.at(K(i)));
  }
  // Truncating everything keeps the active segment as the numbering anchor.
  {
    auto wal = du::Wal::Open(fs, dir, wopt, &st);
    ASSERT_NE(wal, nullptr) << st.message();
    ASSERT_TRUE(wal->TruncateBefore(1000).ok());
    EXPECT_EQ(WalSegmentNames(dir).size(), 1u);
    EXPECT_EQ(wal->next_seq(), 21u);
  }
}

// The base log for the torn-tail tests: five committed records, then one
// final record whose bytes the sweep truncates at every offset. Record 3 is a
// delete so the oracle prefix exercises both ops.
struct Rec {
  du::WalOp op;
  std::string key;
  std::string value;
};

std::vector<Rec> TornBaseRecords() {
  return {{du::WalOp::kPut, "a", "1"},
          {du::WalOp::kPut, "bb", std::string(30, 'x')},
          {du::WalOp::kDelete, "a", ""},
          {du::WalOp::kPut, "ccc", ""},
          {du::WalOp::kPut, "dddd", std::string(7, 'q')},
          {du::WalOp::kPut, "final-key", std::string(21, 'f')}};
}

// Builds the single-segment base log; *off_last is the byte offset where the
// final record starts, *total the full segment size.
void BuildTornBase(const std::string& dir, uint64_t* off_last,
                   uint64_t* total) {
  du::Fs* fs = du::Fs::Default();
  const std::vector<Rec> recs = TornBaseRecords();
  du::WalOptions wopt;
  du::Status st;
  {
    auto wal = du::Wal::Open(fs, dir, wopt, &st);
    ASSERT_NE(wal, nullptr) << st.message();
    for (size_t i = 0; i + 1 < recs.size(); i++) {
      const du::WalEntry e = {recs[i].op, recs[i].key, recs[i].value};
      ASSERT_TRUE(wal->AppendBatch(&e, 1, nullptr).ok());
    }
  }
  std::string data;
  ASSERT_TRUE(fs->ReadFile(dir + "/" + kSeg1, &data).ok());
  *off_last = data.size();
  {
    auto wal = du::Wal::Open(fs, dir, wopt, &st);
    ASSERT_NE(wal, nullptr) << st.message();
    const Rec& last = recs.back();
    const du::WalEntry e = {last.op, last.key, last.value};
    ASSERT_TRUE(wal->AppendBatch(&e, 1, nullptr).ok());
  }
  ASSERT_TRUE(fs->ReadFile(dir + "/" + kSeg1, &data).ok());
  *total = data.size();
  ASSERT_LT(*off_last, *total);
}

// The exhaustive sweep the recovery contract promises: for EVERY byte offset
// `cut` inside the final record's frame, a log truncated at `cut` replays the
// preceding records, reports exactly the truncated bytes as the torn tail,
// and never reports corruption.
TEST(Recovery, TornTailSweepTruncatesAtEveryByteOffset) {
  const std::string base = FreshDir("torn_base");
  uint64_t off_last = 0;
  uint64_t total = 0;
  ASSERT_NO_FATAL_FAILURE(BuildTornBase(base, &off_last, &total));
  const std::vector<Rec> recs = TornBaseRecords();
  Oracle full;
  Oracle prefix;
  for (size_t i = 0; i < recs.size(); i++) {
    Apply(&full, recs[i].op, recs[i].key, recs[i].value);
    if (i + 1 < recs.size()) {
      Apply(&prefix, recs[i].op, recs[i].key, recs[i].value);
    }
  }
  du::Fs* fs = du::Fs::Default();
  for (uint64_t cut = off_last; cut <= total; cut++) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    const std::string dir = FreshDir("torn_cut");
    ASSERT_NO_FATAL_FAILURE(CopyDir(base, dir));
    ASSERT_TRUE(fs->Truncate(dir + "/" + kSeg1, cut).ok());
    Oracle got;
    du::ReplayStats stats;
    const du::Status st = ReplayToOracle(fs, dir, &got, &stats);
    ASSERT_TRUE(st.ok()) << st.message();  // torn is clean, never corrupt
    const bool complete = cut == total;
    EXPECT_EQ(stats.records, complete ? recs.size() : recs.size() - 1);
    EXPECT_EQ(stats.last_seq, complete ? recs.size() : recs.size() - 1);
    if (complete || cut == off_last) {
      EXPECT_EQ(stats.torn_bytes, 0u);
    } else {
      EXPECT_EQ(stats.torn_bytes, cut - off_last);
      EXPECT_EQ(stats.torn_offset, off_last);
      EXPECT_EQ(stats.torn_segment, kSeg1);
      EXPECT_FALSE(stats.torn_detail.empty());
    }
    EXPECT_EQ(got, complete ? full : prefix);
  }
}

TEST(Recovery, WalOpenRepairsTornTailThenAppendsCleanly) {
  const std::string base = FreshDir("repair_base");
  uint64_t off_last = 0;
  uint64_t total = 0;
  ASSERT_NO_FATAL_FAILURE(BuildTornBase(base, &off_last, &total));
  const std::string dir = FreshDir("repair");
  ASSERT_NO_FATAL_FAILURE(CopyDir(base, dir));
  du::Fs* fs = du::Fs::Default();
  ASSERT_TRUE(fs->Truncate(dir + "/" + kSeg1, off_last + 20).ok());
  du::WalOptions wopt;
  du::Status st;
  auto wal = du::Wal::Open(fs, dir, wopt, &st);
  ASSERT_NE(wal, nullptr) << st.message();
  EXPECT_EQ(wal->next_seq(), 6u);  // the torn record 6 is gone
  std::string data;
  ASSERT_TRUE(fs->ReadFile(dir + "/" + kSeg1, &data).ok());
  EXPECT_EQ(data.size(), off_last);  // physically chopped before reuse
  const du::WalEntry e = {du::WalOp::kPut, "replacement", "r"};
  uint64_t last = 0;
  ASSERT_TRUE(wal->AppendBatch(&e, 1, &last).ok());
  EXPECT_EQ(last, 6u);
  wal.reset();
  Oracle got;
  du::ReplayStats stats;
  ASSERT_TRUE(ReplayToOracle(fs, dir, &got, &stats).ok());
  EXPECT_EQ(stats.records, 6u);
  EXPECT_EQ(got.count("final-key"), 0u);
  EXPECT_EQ(got.at("replacement"), "r");
}

// One-record-per-segment log (46-byte records vs a 64-byte segment cap).
void BuildRotatedLog(const std::string& dir, uint64_t n) {
  du::WalOptions wopt;
  wopt.segment_bytes = 64;
  du::Status st;
  auto wal = du::Wal::Open(du::Fs::Default(), dir, wopt, &st);
  ASSERT_NE(wal, nullptr) << st.message();
  for (uint64_t i = 0; i < n; i++) {
    const std::string key = K(i);
    const std::string value(20, static_cast<char>('a' + i));
    const du::WalEntry e = {du::WalOp::kPut, key, value};
    ASSERT_TRUE(wal->AppendBatch(&e, 1, nullptr).ok());
  }
  ASSERT_EQ(WalSegmentNames(dir).size(), n);
}

TEST(Recovery, MidLogCorruptionHardFailsWithDiagnostics) {
  du::Fs* fs = du::Fs::Default();
  // (a) Bit flip in a non-final record of a single-segment log.
  {
    const std::string dir = FreshDir("midlog_flip");
    du::WalOptions wopt;
    du::Status st;
    {
      auto wal = du::Wal::Open(fs, dir, wopt, &st);
      ASSERT_NE(wal, nullptr) << st.message();
      for (uint64_t i = 0; i < 3; i++) {
        const std::string key = K(i);
        const du::WalEntry e = {du::WalOp::kPut, key, "v"};
        ASSERT_TRUE(wal->AppendBatch(&e, 1, nullptr).ok());
      }
    }
    std::string data;
    ASSERT_TRUE(fs->ReadFile(dir + "/" + kSeg1, &data).ok());
    data[10] ^= 0x01;  // inside record 1's CRC-covered payload
    ASSERT_TRUE(fs->WriteFile(dir + "/" + kSeg1, data).ok());
    du::ReplayStats stats;
    st = du::Wal::Replay(fs, dir, 1, nullptr, &stats);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find(std::string("WAL corruption in ") + kSeg1),
              std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find("offset 0"), std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find("CRC mismatch"), std::string::npos)
        << st.message();
  }
  // (b) A truncated NON-last segment is corruption, not a torn tail.
  {
    const std::string dir = FreshDir("midlog_shortseg");
    ASSERT_NO_FATAL_FAILURE(BuildRotatedLog(dir, 5));
    const auto segs = WalSegmentNames(dir);
    std::string data;
    ASSERT_TRUE(fs->ReadFile(dir + "/" + segs[0], &data).ok());
    ASSERT_TRUE(fs->Truncate(dir + "/" + segs[0], data.size() - 3).ok());
    du::ReplayStats stats;
    const du::Status st = du::Wal::Replay(fs, dir, 1, nullptr, &stats);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find(segs[0]), std::string::npos) << st.message();
    EXPECT_NE(st.message().find("past end of segment"), std::string::npos)
        << st.message();
  }
  // (c) A missing middle segment breaks the name sequence.
  {
    const std::string dir = FreshDir("midlog_gap");
    ASSERT_NO_FATAL_FAILURE(BuildRotatedLog(dir, 5));
    const auto segs = WalSegmentNames(dir);
    ASSERT_TRUE(fs->RemoveFile(dir + "/" + segs[2]).ok());
    du::ReplayStats stats;
    const du::Status st = du::Wal::Replay(fs, dir, 1, nullptr, &stats);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("missing or stray segment"), std::string::npos)
        << st.message();
  }
  // (d) Deleting the LAST segment merely shortens history — still valid.
  {
    const std::string dir = FreshDir("midlog_tailless");
    ASSERT_NO_FATAL_FAILURE(BuildRotatedLog(dir, 5));
    const auto segs = WalSegmentNames(dir);
    ASSERT_TRUE(fs->RemoveFile(dir + "/" + segs[4]).ok());
    du::ReplayStats stats;
    ASSERT_TRUE(du::Wal::Replay(fs, dir, 1, nullptr, &stats).ok());
    EXPECT_EQ(stats.last_seq, 4u);
  }
}

// Hand-framed bytes must replay (the format in wal.h is normative, not an
// implementation detail) and the writer must emit exactly those bytes.
TEST(Recovery, HandFramedRecordsMatchTheNormativeFormat) {
  du::Fs* fs = du::Fs::Default();
  const std::string dir = FreshDir("format_hand");
  std::string file = FrameRecord(1, 1, "k1", "v1");
  file += FrameRecord(2, 2, "k1", "");
  ASSERT_TRUE(fs->WriteFile(dir + "/" + kSeg1, file).ok());
  Oracle got;
  du::ReplayStats stats;
  ASSERT_TRUE(ReplayToOracle(fs, dir, &got, &stats).ok());
  EXPECT_EQ(stats.records, 2u);
  EXPECT_TRUE(got.empty());  // put then delete
  const std::string wdir = FreshDir("format_writer");
  du::WalOptions wopt;
  du::Status st;
  {
    auto wal = du::Wal::Open(fs, wdir, wopt, &st);
    ASSERT_NE(wal, nullptr) << st.message();
    const du::WalEntry es[2] = {{du::WalOp::kPut, "k1", "v1"},
                                {du::WalOp::kDelete, "k1", std::string_view()}};
    ASSERT_TRUE(wal->AppendBatch(es, 2, nullptr).ok());
  }
  std::string written;
  ASSERT_TRUE(fs->ReadFile(wdir + "/" + kSeg1, &written).ok());
  EXPECT_EQ(written, file);
}

// Payload inconsistencies survived a CRC check, so they are corruption even
// when the record sits at the very end of the last segment.
TEST(Recovery, CrcValidPayloadContradictionsAreAlwaysCorruption) {
  du::Fs* fs = du::Fs::Default();
  struct Case {
    std::string name;
    std::string bytes;
    std::string want;
  };
  std::vector<Case> cases;
  cases.push_back({"seq_gap",
                   FrameRecord(1, 1, "a", "x") + FrameRecord(3, 1, "b", "y"),
                   "sequence discontinuity"});
  cases.push_back({"bad_op", FrameRecord(1, 7, "a", "x"), "unknown op 7"});
  cases.push_back({"name_vs_seq_mismatch", FrameRecord(9, 1, "a", "x"),
                   "sequence discontinuity"});
  {
    std::string payload;
    PutU64(&payload, 1);
    payload.push_back(1);
    PutU32(&payload, 100);  // klen 100 in a 13-byte payload
    std::string rec;
    PutU32(&rec, static_cast<uint32_t>(payload.size()));
    PutU32(&rec, Crc32c(payload.data(), payload.size()));
    rec += payload;
    cases.push_back({"klen_overrun", rec, "exceeds record payload"});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = FreshDir("payload_bad");
    ASSERT_TRUE(fs->WriteFile(dir + "/" + kSeg1, c.bytes).ok());
    du::ReplayStats stats;
    const du::Status st = du::Wal::Replay(fs, dir, 1, nullptr, &stats);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find(c.want), std::string::npos) << st.message();
  }
}

// A frame with an implausible length field is torn ONLY when its claimed
// extent ends exactly at end-of-file of the last segment.
TEST(Recovery, ImplausibleLengthIsTornOnlyAtExactEof) {
  du::Fs* fs = du::Fs::Default();
  {
    const std::string dir = FreshDir("len_torn");
    std::string file;
    PutU32(&file, 5);  // < the 13-byte payload minimum
    PutU32(&file, 0);
    file.append(5, 'z');
    ASSERT_TRUE(fs->WriteFile(dir + "/" + kSeg1, file).ok());
    du::ReplayStats stats;
    ASSERT_TRUE(du::Wal::Replay(fs, dir, 1, nullptr, &stats).ok());
    EXPECT_EQ(stats.records, 0u);
    EXPECT_EQ(stats.torn_bytes, file.size());
  }
  {
    const std::string dir = FreshDir("len_corrupt");
    std::string file;
    PutU32(&file, 5);
    PutU32(&file, 0);
    file.append(25, 'z');  // intact bytes beyond the claimed extent
    ASSERT_TRUE(fs->WriteFile(dir + "/" + kSeg1, file).ok());
    du::ReplayStats stats;
    const du::Status st = du::Wal::Replay(fs, dir, 1, nullptr, &stats);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("implausible record length 5"),
              std::string::npos)
        << st.message();
  }
}

// ---------------------------------------------------------------------------
// Durable service: checkpoint, recovery, fail-stop
// ---------------------------------------------------------------------------

TEST(DurableService, CheckpointTruncatesWalAndColdRestartRestoresState) {
  const std::string dir = FreshDir("svc_checkpoint");
  du::Fs* fs = du::Fs::Default();
  const ShardRouter router({"k150"});
  const ServiceOptions opt = DurableOpts(dir, fs, /*segment_bytes=*/1024);
  Oracle oracle;
  {
    Service service(opt, router);
    ASSERT_TRUE(service.durability_status().ok());
    std::vector<Request> batch;
    std::vector<Response> responses;
    Rng rng(7);
    for (uint64_t round = 0; round < 6; round++) {
      batch.clear();
      for (uint64_t i = 0; i < 50; i++) {
        const std::string key = K(rng.NextBounded(300));
        const std::string value =
            "r" + std::to_string(round) + "-" + std::to_string(i);
        batch.push_back(MakePut(key, value));
        oracle[key] = value;
      }
      service.Execute(batch, &responses);
      for (const Response& r : responses) {
        ASSERT_TRUE(r.ok);
      }
    }
    ASSERT_TRUE(service.Checkpoint().ok());
    for (int s = 0; s < 2; s++) {
      const std::string sdir = dir + "/shard-" + std::to_string(s);
      EXPECT_TRUE(fs->Exists(sdir + "/MANIFEST"));
      // Every closed segment preceded the snapshot floor, so truncation left
      // only the active one — and rotation had pushed its name past seq 1.
      const auto segs = WalSegmentNames(sdir);
      ASSERT_EQ(segs.size(), 1u);
      EXPECT_NE(segs[0], kSeg1);
    }
    // Post-checkpoint mutations land in the WAL tail.
    batch.clear();
    for (uint64_t i = 0; i < 40; i++) {
      const std::string key = K(i * 7 % 300);
      if (i % 4 == 0) {
        batch.push_back(MakeDel(key));
        oracle.erase(key);
      } else {
        batch.push_back(MakePut(key, "tail" + std::to_string(i)));
        oracle[key] = "tail" + std::to_string(i);
      }
    }
    service.Execute(batch, &responses);
    for (const Response& r : responses) {
      ASSERT_TRUE(r.ok);
    }
  }
  // Cold restart: snapshot + WAL tail must reproduce the oracle exactly.
  {
    Service service(opt, router);
    ASSERT_TRUE(service.durability_status().ok())
        << service.durability_status().message();
    EXPECT_EQ(service.size(), oracle.size());
    std::vector<Request> batch{MakeScanAll()};
    std::vector<Response> responses;
    service.Execute(batch, &responses);
    EXPECT_EQ(responses[0].items, Pairs(oracle.begin(), oracle.end()));
  }
}

TEST(DurableService, FsyncFailureRefusesAckAndGoesFailStop) {
  const std::string dir = FreshDir("svc_fsyncfail");
  du::FaultPlan plan;
  du::Fs fs(&plan);
  const ShardRouter router({});
  {
    Service service(DurableOpts(dir, &fs), router);
    ASSERT_TRUE(service.durability_status().ok());
    plan.FailFsyncAfter(2);
    std::vector<Request> batch;
    std::vector<Response> responses;
    for (int b = 0; b < 4; b++) {
      batch.clear();
      batch.push_back(MakePut("key" + std::to_string(b), "v"));
      service.Execute(batch, &responses);
      if (b < 2) {
        EXPECT_TRUE(responses[0].ok) << "batch " << b;
      } else {
        // fsyncgate rule: a failed fsync means the bytes must be assumed
        // lost, so the batch is never acknowledged.
        EXPECT_FALSE(responses[0].ok) << "batch " << b;
      }
    }
    const du::Status st = service.durability_status();
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("fsync"), std::string::npos) << st.message();
    // Fail-stop refuses mutations; reads still serve from memory (which is a
    // superset of the durable state).
    batch.clear();
    batch.push_back(MakeGet("key0"));
    batch.push_back(MakePut("key9", "v"));
    service.Execute(batch, &responses);
    EXPECT_TRUE(responses[0].ok);
    EXPECT_TRUE(responses[0].found);
    EXPECT_FALSE(responses[1].ok);
  }
  // Acked keys survive recovery. key2's append reached the file before its
  // fsync failed, so it MAY legitimately reappear (ack => durable, refused
  // => unacked — not necessarily absent); key9 was refused before any append
  // and must be gone.
  Oracle got;
  du::RecoverStats stats;
  ASSERT_TRUE(du::RecoverShard(
                  du::Fs::Default(), dir + "/shard-0",
                  [&](du::WalOp op, std::string_view k, std::string_view v) {
                    Apply(&got, op, k, v);
                  },
                  &stats)
                  .ok());
  EXPECT_EQ(got.count("key0"), 1u);
  EXPECT_EQ(got.count("key1"), 1u);
  EXPECT_EQ(got.count("key9"), 0u);
}

TEST(DurableService, IntervalAndNonePoliciesStillRecoverCleanly) {
  for (const auto policy : {du::WalOptions::Fsync::kInterval,
                            du::WalOptions::Fsync::kNone}) {
    const bool interval = policy == du::WalOptions::Fsync::kInterval;
    SCOPED_TRACE(interval ? "interval" : "none");
    const std::string dir =
        FreshDir(interval ? "svc_interval" : "svc_none");
    const ServiceOptions opt =
        DurableOpts(dir, du::Fs::Default(), 64ull << 20, policy);
    Oracle oracle;
    {
      Service service(opt, ShardRouter({}));
      std::vector<Request> batch;
      std::vector<Response> responses;
      for (uint64_t b = 0; b < 3; b++) {
        batch.clear();
        for (uint64_t i = 0; i < 20; i++) {
          const std::string key = K(b * 20 + i);
          batch.push_back(MakePut(key, "v" + std::to_string(b)));
          oracle[key] = "v" + std::to_string(b);
        }
        service.Execute(batch, &responses);
        for (const Response& r : responses) {
          ASSERT_TRUE(r.ok);
        }
      }
    }
    Oracle got;
    du::RecoverStats stats;
    ASSERT_TRUE(
        du::RecoverShard(
            du::Fs::Default(), dir + "/shard-0",
            [&](du::WalOp op, std::string_view k, std::string_view v) {
              Apply(&got, op, k, v);
            },
            &stats)
            .ok());
    EXPECT_EQ(got, oracle);
  }
}

TEST(DurableService, CorruptSnapshotIsRejectedWithDiagnostic) {
  const std::string dir = FreshDir("svc_snapcorrupt");
  du::Fs* fs = du::Fs::Default();
  const ServiceOptions opt = DurableOpts(dir, fs);
  {
    Service service(opt, ShardRouter({}));
    std::vector<Request> batch;
    std::vector<Response> responses;
    for (uint64_t i = 0; i < 20; i++) {
      batch.push_back(MakePut(K(i), "v"));
    }
    service.Execute(batch, &responses);
    ASSERT_TRUE(service.Checkpoint().ok());
  }
  const std::string sdir = dir + "/shard-0";
  std::vector<std::string> names;
  ASSERT_TRUE(fs->ListDir(sdir, &names).ok());
  std::string snap;
  for (const std::string& n : names) {
    if (n.size() > 5 && n.compare(n.size() - 5, 5, ".snap") == 0) {
      snap = n;
    }
  }
  ASSERT_FALSE(snap.empty());
  std::string data;
  ASSERT_TRUE(fs->ReadFile(sdir + "/" + snap, &data).ok());
  data[20] ^= 0x40;  // one bit, inside the CRC-covered item region
  ASSERT_TRUE(fs->WriteFile(sdir + "/" + snap, data).ok());
  // Snapshots are atomically published: no torn tolerance, hard error.
  Oracle got;
  du::RecoverStats stats;
  const du::Status st = du::RecoverShard(
      fs, sdir,
      [&](du::WalOp op, std::string_view k, std::string_view v) {
        Apply(&got, op, k, v);
      },
      &stats);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("CRC"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find(snap), std::string::npos) << st.message();
  // The service surfaces it as a recovery failure and refuses mutations.
  Service service(opt, ShardRouter({}));
  ASSERT_FALSE(service.durability_status().ok());
  std::vector<Request> batch{MakePut("x", "y")};
  std::vector<Response> responses;
  service.Execute(batch, &responses);
  EXPECT_FALSE(responses[0].ok);
}

TEST(DurableService, MidLogWalCorruptionIsRejectedWithDiagnostic) {
  const std::string dir = FreshDir("svc_walcorrupt");
  du::Fs* fs = du::Fs::Default();
  const ServiceOptions opt = DurableOpts(dir, fs);
  {
    Service service(opt, ShardRouter({}));
    std::vector<Request> batch;
    std::vector<Response> responses;
    for (uint64_t b = 0; b < 10; b++) {
      batch.clear();
      batch.push_back(MakePut(K(b), "v"));
      service.Execute(batch, &responses);
      ASSERT_TRUE(responses[0].ok);
    }
  }
  const std::string sdir = dir + "/shard-0";
  std::string data;
  ASSERT_TRUE(fs->ReadFile(sdir + "/" + kSeg1, &data).ok());
  data[10] ^= 0x01;  // record 1's payload; records 2..10 follow intact
  ASSERT_TRUE(fs->WriteFile(sdir + "/" + kSeg1, data).ok());
  Service service(opt, ShardRouter({}));
  const du::Status st = service.durability_status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("WAL corruption"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find(kSeg1), std::string::npos) << st.message();
}

// Fuzzy-snapshot contract: Checkpoint() races a live writer, and a cold
// restart from whatever snapshot+tail combination resulted must equal the
// writer's exact final state.
TEST(DurableService, CheckpointWithLiveWriterRecoversExactFinalState) {
  const std::string dir = FreshDir("svc_fuzzy");
  const ShardRouter router({"k200"});
  const ServiceOptions opt =
      DurableOpts(dir, du::Fs::Default(), /*segment_bytes=*/2048);
  Oracle oracle;
  {
    Service service(opt, router);
    ASSERT_TRUE(service.durability_status().ok());
    std::atomic<bool> done{false};
    std::atomic<bool> writer_ok{true};
    std::thread writer([&] {
      QsbrThreadScope qsbr_scope;
      Rng rng(99);
      std::vector<Request> batch;
      std::vector<Response> responses;
      for (uint64_t b = 0; b < 80; b++) {
        batch.clear();
        for (uint64_t i = 0; i < 16; i++) {
          const std::string key = K(rng.NextBounded(400));
          if (rng.NextBounded(5) == 0) {
            batch.push_back(MakeDel(key));
          } else {
            batch.push_back(
                MakePut(key, "b" + std::to_string(b) + "i" + std::to_string(i)));
          }
        }
        service.Execute(batch, &responses);
        for (size_t i = 0; i < batch.size(); i++) {
          if (!responses[i].ok) {
            writer_ok.store(false);
            return;
          }
          Apply(&oracle,
                batch[i].op == Op::kPut ? du::WalOp::kPut : du::WalOp::kDelete,
                batch[i].key, batch[i].value);
        }
      }
      done.store(true);
    });
    int checkpoints = 0;
    while (!done.load() && checkpoints < 50) {
      ASSERT_TRUE(service.Checkpoint().ok());
      checkpoints++;
    }
    writer.join();
    ASSERT_TRUE(writer_ok.load());
    ASSERT_TRUE(done.load());
    ASSERT_TRUE(service.Checkpoint().ok());
  }
  Service service(opt, router);
  ASSERT_TRUE(service.durability_status().ok())
      << service.durability_status().message();
  std::vector<Request> batch{MakeScanAll()};
  std::vector<Response> responses;
  service.Execute(batch, &responses);
  EXPECT_EQ(responses[0].items, Pairs(oracle.begin(), oracle.end()));
}

// Checkpoint sweeps each log partition's own key range out of the one index:
// shard-<i>'s snapshot holds exactly the keys in [boundary i-1, boundary i),
// in order, and nothing another partition's log governs.
TEST(DurableService, CheckpointSnapshotsHoldTheirPartitionRange) {
  const std::string dir = FreshDir("svc_ranges");
  du::Fs* fs = du::Fs::Default();
  const ShardRouter router({"k100", "k200", "k300"});
  Service service(DurableOpts(dir, fs), router);
  ASSERT_TRUE(service.durability_status().ok());
  ASSERT_EQ(service.partition_count(), 4u);
  std::vector<Request> batch;
  std::vector<Response> responses;
  for (uint64_t i = 0; i < 400; i++) {
    batch.push_back(MakePut(K(i), "v" + std::to_string(i)));
  }
  service.Execute(batch, &responses);
  batch.clear();
  for (uint64_t i = 0; i < 400; i += 7) {
    batch.push_back(MakeDel(K(i)));
  }
  service.Execute(batch, &responses);
  ASSERT_TRUE(service.Checkpoint().ok());
  for (uint64_t s = 0; s < 4; s++) {
    SCOPED_TRACE("shard " + std::to_string(s));
    Pairs got;
    uint64_t floor = 0;
    ASSERT_TRUE(du::LoadSnapshot(
                    fs, dir + "/shard-" + std::to_string(s),
                    [&](std::string_view k, std::string_view v) {
                      got.emplace_back(std::string(k), std::string(v));
                    },
                    &floor)
                    .ok());
    EXPECT_GT(floor, 0u);
    Pairs want;
    for (uint64_t i = s * 100; i < (s + 1) * 100; i++) {
      if (i % 7 != 0) {
        want.emplace_back(K(i), "v" + std::to_string(i));
      }
    }
    EXPECT_EQ(got, want);
  }
}

// The on-disk layout is one snapshot + WAL per shard-<i> directory. Build
// such a directory directly through the durability layer, one Wormhole per
// shard writing its own snapshot and log tail, and demand that the Service
// serve every key from it, that Checkpoint + restart round-trip it, and
// that a router with other boundaries refuses it.
TEST(DurableService, RecoversPerShardDirectoriesWrittenByTheDurabilityLayer) {
  const std::string dir = FreshDir("svc_layout");
  du::Fs* fs = du::Fs::Default();
  const ShardRouter router({"k100", "k200"});
  du::WalOptions wal_opt;
  Oracle oracle;
  for (uint64_t s = 0; s < router.shard_count(); s++) {
    const std::string sdir = dir + "/shard-" + std::to_string(s);
    Qsbr qsbr;
    Wormhole index(Options(), &qsbr);
    du::Status st;
    std::unique_ptr<du::Wal> wal = du::Wal::Open(fs, sdir, wal_opt, &st);
    ASSERT_NE(wal, nullptr) << st.message();
    // Logs the records, then applies them to the shard's index and the
    // oracle, as the WAL-before-apply service did.
    const auto log = [&](const std::vector<Request>& reqs) {
      std::vector<du::WalEntry> entries;
      for (const Request& r : reqs) {
        entries.push_back({r.op == Op::kPut ? du::WalOp::kPut : du::WalOp::kDelete,
                           r.key, r.value});
      }
      uint64_t last_seq = 0;
      ASSERT_TRUE(wal->AppendBatch(entries.data(), entries.size(), &last_seq).ok());
      for (const Request& r : reqs) {
        if (r.op == Op::kPut) {
          index.Put(r.key, r.value);
        } else {
          index.Delete(r.key);
        }
        Apply(&oracle, r.op == Op::kPut ? du::WalOp::kPut : du::WalOp::kDelete,
              r.key, r.value);
      }
    };
    std::vector<Request> reqs;
    for (uint64_t i = s * 100; i < s * 100 + 80; i++) {
      reqs.push_back(MakePut(K(i), "snap" + std::to_string(i)));
    }
    log(reqs);
    const uint64_t floor = wal->next_seq() - 1;
    {
      std::unique_ptr<Cursor> cursor = index.NewCursor();
      du::SnapshotStats stats;
      ASSERT_TRUE(du::WriteSnapshot(fs, sdir, floor, cursor.get(), "", "", &stats)
                      .ok());
      EXPECT_EQ(stats.items, 80u);
    }
    ASSERT_TRUE(wal->TruncateBefore(floor + 1).ok());
    // The tail: updates, deletes and inserts past the snapshot floor.
    reqs.clear();
    for (uint64_t i = s * 100; i < s * 100 + 100; i += 3) {
      reqs.push_back(i % 2 == 0 ? MakeDel(K(i))
                                : MakePut(K(i), "tail" + std::to_string(i)));
    }
    log(reqs);
  }
  const auto check = [&](Service* service) {
    ASSERT_TRUE(service->durability_status().ok())
        << service->durability_status().message();
    EXPECT_EQ(service->size(), oracle.size());
    std::vector<Request> batch;
    for (uint64_t i = 0; i < 300; i++) {
      batch.push_back(MakeGet(K(i)));
    }
    batch.push_back(MakeScanAll());
    std::vector<Response> responses;
    service->Execute(batch, &responses);
    for (uint64_t i = 0; i < 300; i++) {
      const auto it = oracle.find(K(i));
      ASSERT_EQ(responses[i].found, it != oracle.end()) << K(i);
      if (it != oracle.end()) {
        ASSERT_EQ(responses[i].value, it->second) << K(i);
      }
    }
    EXPECT_EQ(responses[300].items, Pairs(oracle.begin(), oracle.end()));
  };
  const ServiceOptions opt = DurableOpts(dir, fs);
  {
    Service service(opt, router);
    check(&service);
    ASSERT_TRUE(service.Checkpoint().ok());
    std::vector<Request> batch{MakePut(K(150), "after"), MakeDel(K(1)),
                               MakePut(K(299), "after")};
    std::vector<Response> responses;
    service.Execute(batch, &responses);
    for (const Request& r : batch) {
      Apply(&oracle, r.op == Op::kPut ? du::WalOp::kPut : du::WalOp::kDelete,
            r.key, r.value);
    }
  }
  {
    Service service(opt, router);
    check(&service);
  }
  // Other boundaries: shard-0 holds k000..k099, which would now belong to
  // two partitions.
  Service moved(opt, ShardRouter({"k050", "k200"}));
  const du::Status st = moved.durability_status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("other partition boundaries"), std::string::npos)
      << st.message();
}

// ---------------------------------------------------------------------------
// The randomized kill-point differential
// ---------------------------------------------------------------------------

// Crash a durable service with two log partitions at a random persisted-byte
// budget while a deterministic workload runs, then demand: (1) per
// partition (shard-<i> directory), raw RecoverShard
// on the surviving bytes yields EXACTLY apply(history[0..recovered)) for some
// recovered >= the count of acknowledged writes — i.e. a prefix that loses
// nothing acked and invents nothing; (2) a service constructed over the same
// directory serves exactly that recovered state for point reads and scans.
// WH_RECOVERY_KILL_POINTS overrides the iteration count (the CI crash stage
// raises it).
TEST(Recovery, RandomKillPointsMatchOracle) {
  int kill_points = 30;
  if (const char* env = std::getenv("WH_RECOVERY_KILL_POINTS")) {
    kill_points = std::atoi(env);
  }
  const ShardRouter router({"k075"});
  const size_t shard_n = router.shard_count();
  struct OpRec {
    du::WalOp op;
    std::string key;
    std::string value;
  };
  for (int kp = 0; kp < kill_points; kp++) {
    SCOPED_TRACE("kill point " + std::to_string(kp));
    const std::string dir = FreshDir("kill");
    Rng rng(0x9e3779b97f4a7c15ull ^ static_cast<uint64_t>(kp));
    du::FaultPlan plan;
    du::Fs faulty(&plan);
    std::vector<std::vector<OpRec>> history(shard_n);
    std::vector<uint64_t> acked(shard_n, 0);
    {
      ServiceOptions opt = DurableOpts(dir, &faulty);
      opt.durability.wal.segment_bytes = 256 + rng.NextBounded(8192);
      Service service(opt, router);
      ASSERT_TRUE(service.durability_status().ok());
      // Arm the crash only now: construction-time recovery I/O is free, the
      // workload's persisted bytes are what the budget counts.
      plan.CrashAfterBytes(rng.NextBounded(36000));
      std::vector<Request> batch;
      std::vector<Response> responses;
      for (int b = 0; b < 40; b++) {
        batch.clear();
        const uint64_t n = 4 + rng.NextBounded(16);
        for (uint64_t i = 0; i < n; i++) {
          const std::string key = K(rng.NextBounded(150));
          if (rng.NextBounded(4) == 0) {
            batch.push_back(MakeDel(key));
          } else {
            batch.push_back(
                MakePut(key, "p" + std::to_string(b) + "." + std::to_string(i) +
                                 std::string(rng.NextBounded(24), 'x')));
          }
        }
        service.Execute(batch, &responses);
        for (size_t i = 0; i < batch.size(); i++) {
          const size_t s = router.ShardOf(batch[i].key);
          history[s].push_back(
              {batch[i].op == Op::kPut ? du::WalOp::kPut : du::WalOp::kDelete,
               batch[i].key, batch[i].value});
          if (responses[i].ok) {
            // fsync=kAlways: an ack means the record hit stable storage.
            acked[s] = history[s].size();
          }
        }
        // Some kill points checkpoint mid-flight: a snapshot attempt that the
        // crash interrupts at any stage must never corrupt the store.
        if (b == 17 && kp % 3 == 0) {
          static_cast<void>(service.Checkpoint());
        }
      }
    }
    // (1) Raw differential, per shard, over the surviving bytes.
    du::Fs clean;
    Oracle merged;
    for (size_t s = 0; s < shard_n; s++) {
      SCOPED_TRACE("shard " + std::to_string(s));
      const std::string sdir = dir + "/shard-" + std::to_string(s);
      Oracle got;
      du::RecoverStats stats;
      const du::Status st = du::RecoverShard(
          &clean, sdir,
          [&](du::WalOp op, std::string_view k, std::string_view v) {
            Apply(&got, op, k, v);
          },
          &stats);
      ASSERT_TRUE(st.ok()) << st.message();
      const uint64_t recovered = std::max(stats.snapshot_seq, stats.last_seq);
      ASSERT_GE(recovered, acked[s]) << "acknowledged write lost";
      ASSERT_LE(recovered, history[s].size());
      Oracle want;
      for (uint64_t i = 0; i < recovered; i++) {
        Apply(&want, history[s][i].op, history[s][i].key, history[s][i].value);
      }
      ASSERT_EQ(got, want) << "recovered state is not the history prefix";
      merged.insert(want.begin(), want.end());
    }
    // (2) Service-level recovery over the same directory (default Fs, no
    // faults): point reads across the whole key pool plus a full scan — the
    // scan also proves no phantom keys survived.
    Service service(DurableOpts(dir, du::Fs::Default()), router);
    ASSERT_TRUE(service.durability_status().ok())
        << service.durability_status().message();
    std::vector<Request> batch;
    std::vector<Response> responses;
    for (uint64_t k = 0; k < 150; k++) {
      batch.push_back(MakeGet(K(k)));
    }
    batch.push_back(MakeScanAll());
    service.Execute(batch, &responses);
    for (uint64_t k = 0; k < 150; k++) {
      const auto it = merged.find(K(k));
      ASSERT_EQ(responses[k].found, it != merged.end()) << K(k);
      if (it != merged.end()) {
        ASSERT_EQ(responses[k].value, it->second) << K(k);
      }
    }
    ASSERT_EQ(responses[150].items, Pairs(merged.begin(), merged.end()));
  }
}

}  // namespace
}  // namespace wh
