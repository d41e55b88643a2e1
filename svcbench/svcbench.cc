// End-to-end benchmark of the sharded store through Service::Execute.
//
//   svcbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//            [--spans FILE]
//
// Closed loop: kClients client threads each send their next pregenerated
// batch only after Execute returns the previous one. With --trace 0 the run
// times set-up (constructing the Service and loading the dataset through
// Execute) kSetupReps times, measures a window of S / kSetupReps seconds
// after each set-up, and prints the end-to-end metrics. With --trace 1 it
// alternates untraced and traced windows, then replays a slice of the stream
// through the layer ladder (ladder.h), and prints the per-layer metrics.
// Every response is verified; the last stdout line is one JSON object, and
// the exit code is 1 when any response failed verification. See
// svcbench/README.md.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/qsbr.h"
#include "src/server/service.h"
#include "src/workload/keysets.h"
#include "svcbench/helpers.h"
#include "svcbench/ladder.h"
#include "svcbench/workload.h"

namespace svcbench {
namespace {

constexpr int kClients = 3;  // one of the four cores stays free
constexpr size_t kShards = 4;
constexpr size_t kKeys = 2000000;
constexpr int kSetupReps = 3;
constexpr size_t kLoadBatch = 1024;
// Requests pregenerated per client. Large enough that the three pools
// together touch over half of the 2M keys, so a pool replayed in a loop
// still misses the last-level cache like fresh uniform keys would.
constexpr size_t kPoolRequests = size_t{1} << 19;
constexpr double kWarmupSeconds = 1.0;
constexpr double kSliceSeconds = 1.0;
constexpr size_t kLadderBatches = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string scratch;
  std::string spans;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "svcbench: %s\nusage: svcbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --scratch DIR [--spans FILE]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v);
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (FindWorkload(a.workload) == nullptr) {
    Usage("unknown --workload");
  }
  if (a.seconds <= 0 || a.seconds > 120 || (a.trace != 0 && a.trace != 1) ||
      a.scratch.empty()) {
    Usage("bad arguments");
  }
  return a;
}

wh::ServiceOptions ServiceOpts(const Workload& w, const std::string& dir) {
  wh::ServiceOptions so;
  if (w.durable) {
    so.durability.enabled = true;
    so.durability.dir = dir;
    so.durability.wal.fsync = wh::durability::WalOptions::Fsync::kAlways;
  }
  return so;
}

// Loads keys[0, n) through Execute in kLoadBatch-Put batches, from the
// kClients client threads (batch i goes to thread i % kClients), and returns
// the number of Puts that failed verification.
uint64_t Load(wh::Service* svc, const std::vector<std::string>& keys,
              size_t n, const Verifier& verifier) {
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> loaders;
  for (int t = 0; t < kClients; t++) {
    loaders.emplace_back([&, t] {
      wh::QsbrThreadScope scope;
      std::vector<wh::Request> batch;
      std::vector<wh::Response> resp;
      for (size_t lo = t * kLoadBatch; lo < n; lo += kClients * kLoadBatch) {
        const size_t hi = std::min(n, lo + kLoadBatch);
        batch.resize(hi - lo);
        for (size_t i = lo; i < hi; i++) {
          batch[i - lo].op = wh::Op::kPut;
          batch[i - lo].key = keys[i];
          batch[i - lo].value = ValueOf(keys[i]);
        }
        svc->Execute(batch, &resp);
        failed += verifier.CountFailures(batch, resp);
      }
    });
  }
  for (std::thread& t : loaders) {
    t.join();
  }
  return failed.load();
}

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list copy;
  va_copy(copy, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
  va_end(ap);
  return out;
}

// One client's pregenerated batches and its position in them; a window
// continues where the previous one stopped.
struct Client {
  std::vector<Batch> pool;
  size_t next = 0;
};

struct Window {
  uint64_t requests = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;  // from the start until every client has stopped
  // Per client, each Execute's span, in ns since the window started; empty
  // when the window does not record spans.
  std::vector<std::vector<ExecSpan>> spans;
};

// Runs the clients for `seconds`. With record_spans, each Execute is timed
// into a span (the end-to-end latencies come from these); without, a client
// only counts its batches and reads no clock.
Window RunWindow(wh::Service* svc, const Verifier& verifier,
                 std::vector<Client>* clients, double seconds,
                 bool record_spans) {
  const size_t reserve =
      record_spans ? static_cast<size_t>(seconds * 100000) + 1024 : 0;
  std::vector<std::vector<ExecSpan>> spans(kClients);
  std::vector<uint64_t> requests(kClients, 0);
  std::vector<uint64_t> failed(kClients, 0);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  int64_t start = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; t++) {
    threads.emplace_back([&, t] {
      wh::QsbrThreadScope scope;
      Client& c = (*clients)[t];
      std::vector<ExecSpan>& mine = spans[t];
      mine.reserve(reserve);
      std::vector<wh::Response> resp;
      // Counted locally: the clients share no cache line while measured.
      uint64_t my_requests = 0;
      uint64_t my_failed = 0;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      while (!stop.load(std::memory_order_relaxed)) {
        const Batch& batch = c.pool[c.next];
        c.next = (c.next + 1) % c.pool.size();
        if (record_spans) {
          const int64_t t0 = NowNs();
          svc->Execute(batch.requests, &resp);
          mine.push_back({t0, NowNs()});
        } else {
          svc->Execute(batch.requests, &resp);
        }
        my_requests += batch.requests.size();
        my_failed += verifier.CountFailures(batch, resp);
      }
      requests[t] = my_requests;
      failed[t] = my_failed;
    });
  }
  while (ready.load() != kClients) {
    std::this_thread::yield();
  }
  start = NowNs();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& th : threads) {
    th.join();
  }

  Window win;
  win.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  for (int t = 0; t < kClients; t++) {
    win.requests += requests[t];
    win.failed += failed[t];
    for (ExecSpan& s : spans[t]) {
      s.start_ns -= start;
      s.end_ns -= start;
    }
  }
  win.spans = std::move(spans);
  return win;
}

// End-to-end figures of one or more measured windows.
struct WindowFigures {
  double mops = 0;
  double p50_us = 0;
  double p99_us = 0;
  size_t batches = 0;  // batches in the counted slices
  size_t slices = 0;
  double slice_s = 0;
  std::string per_slice;  // for the human-readable output
};

// Each window is cut into slices of about kSliceSeconds; the figures are
// medians over the slices of all windows.
WindowFigures Figures(const std::vector<Window>& wins, const Workload& w,
                      double window_s) {
  WindowFigures f;
  const size_t per_window = std::max<size_t>(
      1, static_cast<size_t>(std::lround(window_s / kSliceSeconds)));
  const double slice_s = window_s / static_cast<double>(per_window);
  std::vector<double> mops;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const Window& win : wins) {
    for (const std::vector<double>& slice :
         SliceLatencies(win.spans, static_cast<int64_t>(slice_s * 1e9),
                        per_window)) {
      const Summary s = Summarize(slice);
      mops.push_back(static_cast<double>(s.n * w.batch) / slice_s / 1e6);
      p50.push_back(s.p50);
      p99.push_back(s.p99);
      f.batches += s.n;
      f.per_slice += Fmt(" %.3f/%.0f/%.0f", mops.back(), s.p50, s.p99);
    }
  }
  f.slices = mops.size();
  f.slice_s = slice_s;
  f.mops = Median(mops);
  f.p50_us = Median(p50);
  f.p99_us = Median(p99);
  return f;
}

struct Output {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines before the JSON
};

void PrintResult(const Output& out, bool correct, uint64_t attempted,
                 uint64_t failed) {
  for (const std::string& line : out.notes) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < out.metrics.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out.metrics[i].name.c_str(),
                out.metrics[i].value, out.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string DriftLine(const std::vector<DriftSample>& samples) {
  std::string cpu;
  std::string chase;
  for (const DriftSample& d : samples) {
    cpu += Fmt(" %.3f", d.cpu_loop_ms);
    chase += Fmt(" %.2f", d.chase_ns);
  }
  return Fmt("host_drift verdict=%s cpu_loop_ms:%s; chase_ns:%s",
             Drifted(samples) ? "drifted" : "steady", cpu.c_str(),
             chase.c_str());
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  const Workload& w = *FindWorkload(a.workload);
  std::filesystem::remove_all(a.scratch);
  std::filesystem::create_directories(a.scratch);

  const DriftProbe drift;
  std::vector<DriftSample> drift_samples = {drift.Measure()};

  // Input generation: off every clock.
  const KeyChooser chooser(w, kKeys);
  const std::vector<std::string> keys =
      wh::GenerateKeyset({wh::KeysetId::kAz1, chooser.space(), a.seed});
  std::vector<std::string> samples;
  for (size_t i = 0; i < kKeys; i += kKeys / 4096) {
    samples.push_back(keys[i]);
  }
  const wh::ShardRouter router = wh::ShardRouter::FromSamples(samples, kShards);
  const Verifier verifier(w.gets_must_hit, keys, kKeys);
  std::vector<Client> clients(kClients);
  for (int t = 0; t < kClients; t++) {
    clients[t].pool = BuildBatches(w, keys, chooser, verifier, a.seed, t,
                                   kPoolRequests / w.batch);
  }

  Output out;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto count = [&](const Window& win) {
    attempted += win.requests;
    failed += win.failed;
  };

  // Set-up, timed: construct the Service and load it. With --trace 0 this
  // happens kSetupReps times, and after each set-up (and a warm-up) one
  // window of seconds / kSetupReps is measured, so the measured time is
  // spread over the run and over independently built indexes.
  std::unique_ptr<wh::Service> svc;
  std::vector<double> setup_s;
  std::vector<Window> windows;
  const int reps = a.trace == 0 ? kSetupReps : 1;
  const double window_s = a.seconds / reps;
  for (int r = 0; r < reps; r++) {
    svc.reset();
    // Each set-up logs to its own directory: deleting a WAL (the file
    // system may discard its blocks) would disturb the fsyncs timed next.
    const std::string dir = a.scratch + "/service-" + std::to_string(r);
    const int64_t t0 = NowNs();
    svc = std::make_unique<wh::Service>(ServiceOpts(w, dir), router);
    failed += Load(svc.get(), keys, kKeys, verifier);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    attempted += kKeys;
    if (!svc->durability_status().ok()) {
      std::fprintf(stderr, "svcbench: %s\n",
                   svc->durability_status().message().c_str());
      return 2;
    }
    count(RunWindow(svc.get(), verifier, &clients, kWarmupSeconds, false));
    if (a.trace == 0) {
      windows.push_back(
          RunWindow(svc.get(), verifier, &clients, window_s, true));
      count(windows.back());
      drift_samples.push_back(drift.Measure());
    }
  }

  out.notes.push_back(Fmt(
      "svcbench workload=%s seed=%llu seconds=%g trace=%d clients=%d "
      "keys=%zu shards=%zu batch=%zu",
      w.name, static_cast<unsigned long long>(a.seed), a.seconds, a.trace,
      kClients, kKeys, router.shard_count(), w.batch));

  if (a.trace == 0) {
    const WindowFigures fig = Figures(windows, w, window_s);
    uint64_t requests = 0;
    uint64_t request_failures = 0;
    for (const Window& win : windows) {
      requests += win.requests;
      request_failures += win.failed;
    }
    const Summary setup = Summarize(setup_s);
    const double bpk = static_cast<double>(svc->MemoryBytes()) /
                       static_cast<double>(svc->size());
    const double success =
        requests == 0 ? 0.0
                      : static_cast<double>(requests - request_failures) /
                            static_cast<double>(requests);
    out.metrics = {
        {"throughput_mops", fig.mops, "Mreq/s"},
        {"batch_p50_us", fig.p50_us, "us"},
        {"batch_p99_us", fig.p99_us, "us"},
        {"setup_s", setup.p50, "s"},
        {"index_bytes_per_key", bpk, "B"},
        {"success_rate", success, "fraction"},
    };
    const std::string wl = w.name;
    out.notes.push_back(Fmt(
        "%s/throughput_mops = %.4f Mreq/s (median of %zu slices of %.3f s "
        "in %d windows; n=%zu batches)",
        wl.c_str(), fig.mops, fig.slices, fig.slice_s, reps, fig.batches));
    out.notes.push_back(Fmt("%s per slice (Mreq/s / p50 us / p99 us):%s",
                            wl.c_str(), fig.per_slice.c_str()));
    out.notes.push_back(
        Fmt("%s/batch_p50_us = %.3f us (median over slices; n=%zu batches)",
            wl.c_str(), fig.p50_us, fig.batches));
    out.notes.push_back(
        Fmt("%s/batch_p99_us = %.3f us (median over slices; n=%zu batches)",
            wl.c_str(), fig.p99_us, fig.batches));
    std::string reps_list;
    for (double s : setup_s) {
      reps_list += Fmt(" %.3f", s);
    }
    out.notes.push_back(
        Fmt("%s/setup_s = %.4f s (median of n=%zu set-ups:%s)", wl.c_str(),
            setup.p50, setup.n, reps_list.c_str()));
    out.notes.push_back(Fmt("%s/index_bytes_per_key = %.3f B (n=%zu keys)",
                            wl.c_str(), bpk, svc->size()));
    out.notes.push_back(Fmt(
        "%s/success_rate = %.6f fraction (n=%llu requests, %llu failed)",
        wl.c_str(), success, static_cast<unsigned long long>(requests),
        static_cast<unsigned long long>(request_failures)));
  } else {
    // Untraced windows (clients only count batches) alternate with traced
    // ones (each Execute timed into a span), one slice each, so drift of the
    // host, or of the store that scan-churn keeps changing, falls on both.
    const size_t pairs = std::max<long>(
        1, std::lround(a.seconds / (2 * kSliceSeconds)));
    const double pair_s = a.seconds / (2.0 * static_cast<double>(pairs));
    std::vector<double> overhead_pct;
    std::vector<double> idle_us;
    std::vector<Window> traced;
    double plain_mops = 0;
    double traced_mops = 0;
    for (size_t p = 0; p < pairs; p++) {
      const Window plain =
          RunWindow(svc.get(), verifier, &clients, pair_s, false);
      traced.push_back(RunWindow(svc.get(), verifier, &clients, pair_s, true));
      count(plain);
      count(traced.back());
      const double pm = static_cast<double>(plain.requests) / plain.elapsed_s;
      const double tm = static_cast<double>(traced.back().requests) /
                        traced.back().elapsed_s;
      overhead_pct.push_back((pm - tm) / pm * 100.0);
      plain_mops += pm / 1e6 / static_cast<double>(pairs);
      traced_mops += tm / 1e6 / static_cast<double>(pairs);
      for (const std::vector<ExecSpan>& spans : traced.back().spans) {
        for (size_t i = 1; i < spans.size(); i++) {
          idle_us.push_back(
              static_cast<double>(spans[i].start_ns - spans[i - 1].end_ns) /
              1000.0);
        }
      }
    }
    drift_samples.push_back(drift.Measure());
    svc.reset();

    // The ladder's slice is its own seeded stream of the same workload.
    const std::vector<Batch> slice = BuildBatches(
        w, keys, chooser, verifier, a.seed, kClients, kLadderBatches);
    const std::string ladder_dir = a.scratch + "/ladder";
    std::filesystem::create_directories(ladder_dir);
    std::vector<Metric> layer;
    std::vector<Span> ladder_spans;
    std::thread runner([&] {
      wh::QsbrThreadScope scope;
      Ladder ladder(w, router, keys, kKeys, verifier, ladder_dir);
      ladder.Run(slice);
      layer = ladder.Metrics();
      ladder_spans = ladder.spans();
      attempted += ladder.attempted();
      failed += ladder.failed();
    });
    runner.join();

    const Summary idle = Summarize(std::move(idle_us));
    layer.push_back({"client.idle_us.p50", idle.p50, "us"});
    layer.push_back({"client.idle_us.p99", idle.p99, "us"});
    layer.push_back({"client.idle_us.n", static_cast<double>(idle.n), "count"});
    layer.push_back({"trace.overhead_pct", Median(overhead_pct), "%"});
    out.notes.push_back(
        Fmt("untraced throughput %.4f Mreq/s, traced %.4f Mreq/s (mean of "
            "%zu alternating pairs of %.3f s windows)",
            plain_mops, traced_mops, pairs, pair_s));
    for (const Metric& m : layer) {
      out.notes.push_back(Fmt("%s/%s = %.4f %s", w.name, m.name.c_str(),
                              m.value, m.unit.c_str()));
    }
    out.metrics = std::move(layer);

    if (!a.spans.empty()) {
      FILE* f = std::fopen(a.spans.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "svcbench: cannot write %s\n", a.spans.c_str());
        return 2;
      }
      std::fprintf(f, "# ladder\tbatch\tname\tkind\tdur_ns\titems\n");
      static const char* kKinds[] = {"root", "child", "probe"};
      for (const Span& s : ladder_spans) {
        std::fprintf(f, "ladder\t%u\t%s\t%s\t%lld\t%u\n", s.batch,
                     Ladder::SpanLabel(s.name),
                     kKinds[static_cast<int>(s.kind)],
                     static_cast<long long>(s.dur_ns), s.items);
      }
      std::fprintf(f, "# execute\twindow\tclient\tseq\tstart_ns\tend_ns\n");
      for (size_t v = 0; v < traced.size(); v++) {
        for (size_t t = 0; t < traced[v].spans.size(); t++) {
          const std::vector<ExecSpan>& spans = traced[v].spans[t];
          for (size_t i = 0; i < spans.size(); i++) {
            std::fprintf(f, "execute\t%zu\t%zu\t%zu\t%lld\t%lld\n", v, t, i,
                         static_cast<long long>(spans[i].start_ns),
                         static_cast<long long>(spans[i].end_ns));
          }
        }
      }
      std::fclose(f);
    }
  }
  svc.reset();
  drift_samples.push_back(drift.Measure());
  std::filesystem::remove_all(a.scratch);
  out.notes.push_back(DriftLine(drift_samples));
  const bool correct = failed == 0;
  PrintResult(out, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) { return svcbench::Main(argc, argv); }
