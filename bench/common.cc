#include "bench/common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#include "src/art/art.h"
#include "src/bptree/bptree.h"
#include "src/common/qsbr.h"
#include "src/common/rng.h"
#include "src/common/sync.h"
#include "src/common/timing.h"
#include "src/core/wormhole.h"
#include "src/cuckoo/cuckoo.h"
#include "src/masstree/masstree.h"
#include "src/server/service.h"
#include "src/skiplist/skiplist.h"

namespace wh {

BenchEnv GetBenchEnv() {
  BenchEnv env;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  env.threads = hw < 16 ? (hw > 0 ? hw : 1) : 16;
  if (const char* s = std::getenv("WH_BENCH_SCALE")) {
    env.scale = std::atof(s);
  }
  if (const char* s = std::getenv("WH_BENCH_THREADS")) {
    env.threads = std::atoi(s);
  }
  if (const char* s = std::getenv("WH_BENCH_SECONDS")) {
    env.seconds = std::atof(s);
  }
  // Unparseable or hostile knobs degrade to minimal-but-valid runs.
  if (env.threads < 1) {
    env.threads = 1;
  } else if (env.threads > 256) {
    env.threads = 256;
  }
  if (!(env.scale > 0.0)) {
    env.scale = 0.001;
  } else if (env.scale > 400.0) {
    env.scale = 400.0;  // paper-scale is ~250; beyond that counts overflow
  }
  // Zero, negative, NaN, or atof garbage would make RunThroughput divide by a
  // zero-length window or spin unboundedly; clamp both ends like threads.
  if (!(env.seconds > 0.0)) {
    env.seconds = 0.05;
  } else if (env.seconds > 600.0) {
    env.seconds = 600.0;
  }
  return env;
}

namespace {

template <typename T>
class Adapter : public IndexIface {
 public:
  template <typename... Args>
  explicit Adapter(const char* name, Args&&... args)
      : name_(name), index_(std::forward<Args>(args)...) {}

  const char* name() const override { return name_; }
  bool Get(std::string_view key, std::string* value) override {
    return index_.Get(key, value);
  }
  void Put(std::string_view key, std::string_view value) override {
    index_.Put(key, value);
  }
  bool Delete(std::string_view key) override { return index_.Delete(key); }
  size_t Scan(
      std::string_view start, size_t count,
      const std::function<bool(std::string_view, std::string_view)>& fn) override {
    if constexpr (std::is_same_v<T, CuckooHash>) {
      (void)start;
      (void)count;
      (void)fn;
      return 0;  // unordered index: no range support (that is the point)
    } else {
      return index_.Scan(start, count, fn);
    }
  }
  std::unique_ptr<Cursor> NewCursor() override { return index_.NewCursor(); }
  uint64_t MemoryBytes() const override { return index_.MemoryBytes(); }
  bool thread_safe_writes() const override {
    return std::is_same_v<T, Wormhole> || std::is_same_v<T, Masstree>;
  }

  T& raw() { return index_; }

 private:
  const char* name_;
  T index_;
};

Options AblationOptions(int level) {
  // level 0 = BaseWormhole; each level adds one optimization in paper order:
  // +TagMatching, +IncHashing, +SortByTag, +DirectPos.
  Options opt;
  opt.tag_matching = level >= 1;
  opt.inc_hashing = level >= 2;
  opt.sort_by_tag = level >= 3;
  opt.direct_pos = level >= 4;
  return opt;
}

}  // namespace

std::unique_ptr<IndexIface> MakeIndex(const std::string& name) {
  if (name == "SkipList") {
    return std::make_unique<Adapter<SkipList>>("SkipList");
  }
  if (name == "B+tree") {
    return std::make_unique<Adapter<BPlusTree>>("B+tree", 128);
  }
  if (name == "ART") {
    return std::make_unique<Adapter<ArtTree>>("ART");
  }
  if (name == "Masstree") {
    return std::make_unique<Adapter<Masstree>>("Masstree");
  }
  if (name == "Wormhole") {
    return std::make_unique<Adapter<Wormhole>>("Wormhole");
  }
  if (name == "Wormhole-unsafe") {
    return std::make_unique<Adapter<WormholeUnsafe>>("Wormhole-unsafe");
  }
  if (name == "Cuckoo") {
    return std::make_unique<Adapter<CuckooHash>>("Cuckoo", 1024);
  }
  if (name == "Wormhole[base]") {
    return std::make_unique<Adapter<WormholeUnsafe>>("Wormhole[base]",
                                                     AblationOptions(0));
  }
  if (name == "Wormhole[+tm]") {
    return std::make_unique<Adapter<WormholeUnsafe>>("Wormhole[+tm]", AblationOptions(1));
  }
  if (name == "Wormhole[+ih]") {
    return std::make_unique<Adapter<WormholeUnsafe>>("Wormhole[+ih]", AblationOptions(2));
  }
  if (name == "Wormhole[+st]") {
    return std::make_unique<Adapter<WormholeUnsafe>>("Wormhole[+st]", AblationOptions(3));
  }
  if (name == "Wormhole[+dp]") {
    return std::make_unique<Adapter<WormholeUnsafe>>("Wormhole[+dp]", AblationOptions(4));
  }
  if (name == "Wormhole[+split]") {
    // All optimizations plus the future-work split-point heuristic.
    Options opt = AblationOptions(4);
    opt.split_shortest_anchor = true;
    return std::make_unique<Adapter<WormholeUnsafe>>("Wormhole[+split]", opt);
  }
  std::fprintf(stderr, "unknown index '%s'\n", name.c_str());
  std::abort();
}

const std::vector<std::string>& GetKeyset(KeysetId id, double scale) {
  // Function-local statics: TSA cannot tie `cache` to `mu` with GUARDED_BY
  // on locals, so the guard here is the ScopedLock spanning the whole scope.
  static Mutex mu;
  static std::map<std::pair<int, long>, std::vector<std::string>> cache;
  ScopedLock g(mu);
  const auto key = std::make_pair(static_cast<int>(id), std::lround(scale * 1e6));
  auto it = cache.find(key);
  if (it == cache.end()) {
    KeysetSpec spec{id, ScaledCount(id, scale), 1};
    it = cache.emplace(key, GenerateKeyset(spec)).first;
  }
  return it->second;
}

void LoadIndex(IndexIface* index, const std::vector<std::string>& keys) {
  for (const auto& k : keys) {
    index->Put(k, std::string_view("valuevalu", 8));
  }
}

std::vector<std::string> SampleKeys(const std::vector<std::string>& keys,
                                    size_t count) {
  std::vector<std::string> samples;
  if (count == 0) {
    return samples;
  }
  for (size_t i = 0; i < keys.size(); i += keys.size() / count + 1) {
    samples.push_back(keys[i]);
  }
  return samples;
}

void LoadService(Service* service, const std::vector<std::string>& keys) {
  std::thread loader([&] {
    QsbrThreadScope qsbr_scope;  // leave the service's domain on the way out
    std::vector<Request> batch;
    std::vector<Response> responses;
    batch.reserve(1024);
    for (const auto& k : keys) {
      batch.push_back(Request{Op::kPut, k, std::string("valueval", 8), 0});
      if (batch.size() == 1024) {
        service->Execute(batch, &responses);
        batch.clear();
      }
    }
    service->Execute(batch, &responses);
  });
  loader.join();
}

double RunThroughput(
    int threads, double seconds,
    const std::function<uint64_t(int, const std::atomic<bool>&)>& worker) {
  std::atomic<bool> stop{false};
  std::vector<uint64_t> counts(static_cast<size_t>(threads), 0);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  Timer timer;
  for (int t = 0; t < threads; t++) {
    pool.emplace_back([&, t] {
      // Register with QSBR for the thread's lifetime (and unregister on the
      // way out, so a finished worker never stalls reclamation).
      QsbrThreadScope qsbr_scope;
      counts[static_cast<size_t>(t)] = worker(t, stop);
    });
  }
  // The coordinating thread is QSBR-registered too (it loaded the index), so
  // it must keep quiescing during the measurement window — otherwise writer
  // workloads retire leaves all window long and nothing gets reclaimed.
  while (timer.ElapsedSeconds() < seconds) {
    const double remaining = seconds - timer.ElapsedSeconds();
    std::this_thread::sleep_for(std::chrono::duration<double>(
        remaining < 0.01 ? (remaining > 0.0 ? remaining : 0.0) : 0.01));
    QsbrQuiesce();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : pool) {
    th.join();
  }
  const double elapsed = timer.ElapsedSeconds();
  if (elapsed <= 0.0) {
    return 0.0;  // defensive: a zero-length window has no meaningful rate
  }
  uint64_t total = 0;
  for (const uint64_t c : counts) {
    total += c;
  }
  return static_cast<double>(total) / elapsed / 1e6;
}

double LookupThroughput(IndexIface* index, const std::vector<std::string>& keys,
                        int threads, double seconds) {
  return RunThroughput(threads, seconds, [&](int tid, const std::atomic<bool>& stop) {
    Rng rng(0xabcd1234u + static_cast<uint64_t>(tid));
    std::string value;
    uint64_t ops = 0;
    const size_t n = keys.size();
    while (!stop.load(std::memory_order_relaxed)) {
      for (int burst = 0; burst < 64; burst++) {
        index->Get(keys[rng.NextBounded(n)], &value);
        ops++;
      }
    }
    return ops;
  });
}

namespace {

struct JsonRow {
  std::string label;
  std::vector<double> values;
};
struct JsonSection {
  std::string title;
  std::vector<std::string> cols;
  std::vector<JsonRow> rows;
};
struct BenchOutput {
  std::string name = "bench";
  bool json = false;
  std::vector<JsonSection> sections;
};

BenchOutput g_bench_output;

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void EmitJson() {
  const BenchEnv env = GetBenchEnv();
  std::printf(
      "{\"bench\":\"%s\",\"env\":{\"scale\":%g,\"threads\":%d,\"seconds\":%g},"
      "\"sections\":[",
              JsonEscape(g_bench_output.name).c_str(), env.scale, env.threads,
              env.seconds);
  for (size_t s = 0; s < g_bench_output.sections.size(); s++) {
    const JsonSection& sec = g_bench_output.sections[s];
    std::printf("%s{\"title\":\"%s\",\"cols\":[", s == 0 ? "" : ",",
                JsonEscape(sec.title).c_str());
    for (size_t c = 0; c < sec.cols.size(); c++) {
      std::printf("%s\"%s\"", c == 0 ? "" : ",", JsonEscape(sec.cols[c]).c_str());
    }
    std::printf("],\"rows\":[");
    for (size_t r = 0; r < sec.rows.size(); r++) {
      const JsonRow& row = sec.rows[r];
      std::printf("%s{\"label\":\"%s\",\"values\":[", r == 0 ? "" : ",",
                  JsonEscape(row.label).c_str());
      for (size_t v = 0; v < row.values.size(); v++) {
        const double d = row.values[v];
        // NaN/inf are not JSON; a broken measurement serializes as null.
        if (std::isfinite(d)) {
          std::printf("%s%.6g", v == 0 ? "" : ",", d);
        } else {
          std::printf("%snull", v == 0 ? "" : ",");
        }
      }
      std::printf("]}");
    }
    std::printf("]}");
  }
  std::printf("]}\n");
}

}  // namespace

bool HasFlag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; i++) {
    if (std::string_view(argv[i]) == flag) {
      return true;
    }
  }
  return false;
}

void BenchInit(const char* bench_name, int argc, char** argv) {
  g_bench_output.name = bench_name;
  g_bench_output.json = HasFlag(argc, argv, "--json");
  if (const char* s = std::getenv("WH_BENCH_JSON")) {
    if (s[0] != '\0' && s[0] != '0') {
      g_bench_output.json = true;
    }
  }
  if (g_bench_output.json) {
    std::atexit(EmitJson);
  }
}

bool BenchJsonMode() { return g_bench_output.json; }

void PrintHeader(const std::string& title, const std::vector<std::string>& cols) {
  if (g_bench_output.json) {
    g_bench_output.sections.push_back(JsonSection{title, cols, {}});
    return;
  }
  std::printf("# %s\n", title.c_str());
  std::printf("%-18s", "index");
  for (const auto& c : cols) {
    std::printf("%10s", c.c_str());
  }
  std::printf("\n");
}

void PrintRow(const std::string& label, const std::vector<double>& values) {
  if (g_bench_output.json) {
    if (g_bench_output.sections.empty()) {
      g_bench_output.sections.push_back(JsonSection{"", {}, {}});
    }
    g_bench_output.sections.back().rows.push_back(JsonRow{label, values});
    return;
  }
  std::printf("%-18s", label.c_str());
  for (const double v : values) {
    std::printf("%10.3f", v);
  }
  std::printf("\n");
}

}  // namespace wh
