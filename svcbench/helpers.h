// Pure helpers of the Service benchmark: the value function, percentile
// summaries, the scrambled-Zipfian key chooser, the response verifier,
// window slicing, the span self-time arithmetic and the host drift probe.
// Everything here is deterministic or self-contained so helpers_test.cc can
// check it without a store.
#ifndef SVCBENCH_HELPERS_H_
#define SVCBENCH_HELPERS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/server/service.h"

namespace svcbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- value function ---------------------------------------------------------
// Every stored value is 8 bytes and a fixed function of its key, so any
// response can be checked without an oracle: a torn value, or the value of
// another key, fails the comparison.

inline uint64_t ValueWord(std::string_view key) {
  uint64_t h = 0x9e3779b97f4a7c15ull ^ key.size();
  size_t i = 0;
  for (; i + 8 <= key.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, key.data() + i, 8);
    h = (h ^ w) * 0xff51afd7ed558ccdull;
    h ^= h >> 29;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, key.data() + i, key.size() - i);
  h = (h ^ tail) * 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 32);
}

inline std::string ValueOf(std::string_view key) {
  const uint64_t w = ValueWord(key);
  return std::string(reinterpret_cast<const char*>(&w), sizeof(w));
}

inline bool ValueMatches(std::string_view key, std::string_view value) {
  if (value.size() != sizeof(uint64_t)) {
    return false;
  }
  const uint64_t w = ValueWord(key);
  return std::memcmp(value.data(), &w, sizeof(w)) == 0;
}

// --- percentiles -------------------------------------------------------------

struct Summary {
  double p50 = 0;
  double p99 = 0;
  double mean = 0;
  size_t n = 0;
};

// Nearest-rank percentile of an ascending-sorted sample: the smallest value
// with at least q of the sample at or below it. An empty sample reads 0.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

inline Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) {
    return s;
  }
  std::sort(v.begin(), v.end());
  s.p50 = NearestRank(v, 0.50);
  s.p99 = NearestRank(v, 0.99);
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  s.mean = sum / static_cast<double>(v.size());
  return s;
}

// --- scrambled Zipfian -------------------------------------------------------
// Gray et al., "Quickly generating billion-record synthetic databases"
// (SIGMOD '94), in the form YCSB uses: ranks follow Zipf(theta) over n items
// and are then scattered by an FNV-1a hash, so the hot items are spread over
// the keyspace instead of sitting in one key range.

class ScrambledZipfian {
 public:
  ScrambledZipfian(uint64_t n, double theta) : n_(n) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; i++) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    zetan_ = zetan;
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
    half_pow_theta_ = 1.0 + std::pow(0.5, theta);
  }

  // Rank before scrambling: 0 is the most popular item.
  uint64_t NextRank(wh::Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) {
      return 0;
    }
    if (uz < half_pow_theta_) {
      return 1;
    }
    const uint64_t r = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

  uint64_t Next(wh::Rng& rng) const { return Fnv1a64(NextRank(rng)) % n_; }

  static uint64_t Fnv1a64(uint64_t v) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 8; i++) {
      h ^= v & 0xff;
      h *= 0x100000001b3ull;
      v >>= 8;
    }
    return h;
  }

 private:
  uint64_t n_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
  double half_pow_theta_ = 0;
};

// --- response verification ---------------------------------------------------

// A batch as a client sends it, with what verifying its responses needs.
struct Batch {
  std::vector<wh::Request> requests;
  // Per request: for a scan, Verifier::ScanPosition of its start key.
  std::vector<uint32_t> scan_pos;
};

// Checks responses. A Get hit must carry its key's value, and where every
// Get must hit, it must hit. A scan must be strictly ordered in its
// direction, within its limit, on the requested side of its start key, and
// carry each item's value. It must also be complete against the pinned
// keys: keys no request ever deletes, so a scan must return every pinned key
// between its start key and its last item, and may stop short of its limit
// only when no pinned key lies beyond. A response with ok == false fails.
class Verifier {
 public:
  // Pins keys[0, pinned); they are copied, sorted, into one buffer, so the
  // pinned keys a scan is checked against lie next to each other in memory.
  Verifier(bool gets_must_hit, const std::vector<std::string>& keys,
           size_t pinned)
      : gets_must_hit_(gets_must_hit) {
    std::vector<std::string_view> sorted(keys.begin(), keys.begin() + pinned);
    std::sort(sorted.begin(), sorted.end());
    size_t total = 0;
    for (std::string_view k : sorted) {
      total += k.size();
    }
    bytes_.reserve(total);
    for (std::string_view k : sorted) {
      bytes_.append(k);
    }
    pinned_.reserve(sorted.size());
    size_t off = 0;
    for (std::string_view k : sorted) {
      pinned_.emplace_back(bytes_.data() + off, k.size());
      off += k.size();
    }
  }

  // Where a scan starts among the pinned keys: the number of pinned keys
  // below its start key (forward) or at or below it (reverse).
  uint32_t ScanPosition(const wh::Request& scan) const {
    const auto it =
        scan.op == wh::Op::kScanRev
            ? std::upper_bound(pinned_.begin(), pinned_.end(),
                               std::string_view(scan.key))
            : std::lower_bound(pinned_.begin(), pinned_.end(),
                               std::string_view(scan.key));
    return static_cast<uint32_t>(it - pinned_.begin());
  }

  // scan_pos is ScanPosition(req) when req is a scan, and unused otherwise.
  bool Verify(const wh::Request& req, const wh::Response& resp,
              uint32_t scan_pos) const {
    if (!resp.ok) {
      return false;
    }
    switch (req.op) {
      case wh::Op::kGet:
        if (!resp.found) {
          return !gets_must_hit_;
        }
        return ValueMatches(req.key, resp.value);
      case wh::Op::kPut:
        return resp.found;
      case wh::Op::kDelete:
        return true;
      case wh::Op::kScan:
      case wh::Op::kScanRev:
        return VerifyScan(req, resp, scan_pos);
    }
    return false;
  }

  // Number of requests whose responses fail Verify; all of them when the
  // response count is wrong. scan_pos is the batch's positions, or empty to
  // compute them here.
  size_t CountFailures(const std::vector<wh::Request>& requests,
                       const std::vector<wh::Response>& responses,
                       const std::vector<uint32_t>& scan_pos = {}) const {
    if (responses.size() != requests.size()) {
      return requests.size();
    }
    size_t failed = 0;
    for (size_t i = 0; i < requests.size(); i++) {
      const wh::Request& req = requests[i];
      const bool scan =
          req.op == wh::Op::kScan || req.op == wh::Op::kScanRev;
      const uint32_t pos = !scan                   ? 0
                           : i < scan_pos.size() ? scan_pos[i]
                                                 : ScanPosition(req);
      failed += Verify(req, responses[i], pos) ? 0 : 1;
    }
    return failed;
  }

  size_t CountFailures(const Batch& batch,
                       const std::vector<wh::Response>& responses) const {
    return CountFailures(batch.requests, responses, batch.scan_pos);
  }

 private:
  bool VerifyScan(const wh::Request& req, const wh::Response& resp,
                  uint32_t pos) const {
    const bool rev = req.op == wh::Op::kScanRev;
    if (resp.items.size() > req.scan_limit) {
      return false;
    }
    // Forward, `next` is the next pinned key the scan must reach; reverse,
    // it is one past it.
    size_t next = pos;
    std::string_view prev = req.key;
    for (size_t i = 0; i < resp.items.size(); i++) {
      const std::string_view k = resp.items[i].first;
      // The first item may equal the start key; later ones must move
      // strictly away from their predecessor.
      const bool ordered = i == 0 ? (rev ? k <= prev : k >= prev)
                                  : (rev ? k < prev : k > prev);
      if (!ordered || !ValueMatches(k, resp.items[i].second)) {
        return false;
      }
      if (!rev && next < pinned_.size()) {
        const int c = pinned_[next].compare(k);
        if (c < 0) {
          return false;  // skipped a pinned key
        }
        next += c == 0 ? 1 : 0;
      } else if (rev && next > 0) {
        const int c = pinned_[next - 1].compare(k);
        if (c > 0) {
          return false;
        }
        next -= c == 0 ? 1 : 0;
      }
      prev = k;
    }
    if (resp.items.size() < req.scan_limit) {
      return rev ? next == 0 : next == pinned_.size();
    }
    return true;
  }

  bool gets_must_hit_;
  std::string bytes_;
  std::vector<std::string_view> pinned_;
};

// --- window slices -----------------------------------------------------------
// A measured window is cut into equal time slices and each metric is taken
// per slice; the run reports the median over slices, so a burst of
// interference from the host moves one slice instead of the whole figure.

struct ExecSpan {
  int64_t start_ns;  // since the window started
  int64_t end_ns;
};

// Latencies (us) of the batches that completed in each of `slices`
// consecutive slices of slice_ns from time 0; later batches are dropped.
inline std::vector<std::vector<double>> SliceLatencies(
    const std::vector<std::vector<ExecSpan>>& per_client, int64_t slice_ns,
    size_t slices) {
  std::vector<std::vector<double>> out(slices);
  for (const auto& spans : per_client) {
    for (const ExecSpan& s : spans) {
      const int64_t slice = s.end_ns / slice_ns;
      if (s.end_ns >= 0 && slice < static_cast<int64_t>(slices)) {
        out[slice].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                             1000.0);
      }
    }
  }
  return out;
}

inline double Median(std::vector<double> v) {
  return Summarize(std::move(v)).p50;
}

// --- spans -------------------------------------------------------------------

// One timed call. kRoot is the Service::Execute of a ladder batch; kChild is
// a core or durability call that replays part of that same batch; kProbe is
// a call timed in isolation over the batch's keys and is not part of the
// batch's Execute.
enum class SpanKind : uint8_t { kRoot, kChild, kProbe };

struct Span {
  uint32_t batch = 0;
  uint16_t name = 0;  // index into the ladder's span-name table
  SpanKind kind = SpanKind::kProbe;
  int64_t dur_ns = 0;
  uint32_t items = 1;  // keys, records or items the call handled
};

// Self time of each batch's root span: its duration minus the summed
// durations of the child spans that carry the same batch id. Indexed by
// batch id; batches without a root read 0.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans,
                                      uint32_t batches) {
  std::vector<int64_t> self(batches, 0);
  for (const Span& s : spans) {
    if (s.batch >= batches) {
      continue;
    }
    if (s.kind == SpanKind::kRoot) {
      self[s.batch] += s.dur_ns;
    } else if (s.kind == SpanKind::kChild) {
      self[s.batch] -= s.dur_ns;
    }
  }
  return self;
}

// --- host drift probe --------------------------------------------------------
// A fixed CPU loop and a fixed random pointer chase, timed before, between
// and after the measured windows of each run. They do not depend on the
// store, so when a run or a set of runs drifts, these show whether the host
// moved.

struct DriftSample {
  double cpu_loop_ms = 0;  // time of a fixed arithmetic loop
  double chase_ns = 0;     // latency of one dependent random load
};

// The host drifted during a run when its fastest and slowest samples of
// either probe differ by more than these factors. The chase is allowed more:
// it moves by up to half between samples of runs whose figures held steady.
constexpr double kDriftCpuLimit = 1.25;
constexpr double kDriftChaseLimit = 1.6;

inline bool Drifted(const std::vector<DriftSample>& samples) {
  if (samples.empty()) {
    return false;
  }
  double cpu_lo = samples[0].cpu_loop_ms;
  double cpu_hi = cpu_lo;
  double chase_lo = samples[0].chase_ns;
  double chase_hi = chase_lo;
  for (const DriftSample& d : samples) {
    cpu_lo = std::min(cpu_lo, d.cpu_loop_ms);
    cpu_hi = std::max(cpu_hi, d.cpu_loop_ms);
    chase_lo = std::min(chase_lo, d.chase_ns);
    chase_hi = std::max(chase_hi, d.chase_ns);
  }
  return cpu_hi > cpu_lo * kDriftCpuLimit ||
         chase_hi > chase_lo * kDriftChaseLimit;
}

class DriftProbe {
 public:
  // A single random cycle (Sattolo) over `entries` slots, so every step of
  // the chase is a dependent load to an unpredictable address.
  explicit DriftProbe(size_t entries = size_t{1} << 24) : next_(entries) {
    for (size_t i = 0; i < entries; i++) {
      next_[i] = static_cast<uint32_t>(i);
    }
    wh::Rng rng(0x5eed);
    for (size_t i = entries - 1; i > 0; i--) {
      std::swap(next_[i], next_[rng.NextBounded(i)]);
    }
  }

  // Each probe runs in kChunks equal chunks and reports the median chunk,
  // scaled to the whole probe, so a preemption of a few milliseconds moves
  // one chunk and not the sample.
  DriftSample Measure() const {
    constexpr int kChunks = 5;
    constexpr int kLoopIters = 4000000;  // per chunk
    constexpr size_t kSteps = 400000;    // per chunk
    std::vector<double> cpu_ms;
    std::vector<double> chase_ns;
    uint64_t x = 0x243f6a8885a308d3ull;
    uint32_t p = 0;
    for (int c = 0; c < kChunks; c++) {
      int64_t t0 = NowNs();
      for (int i = 0; i < kLoopIters; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      cpu_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6 * kChunks);
      p = static_cast<uint32_t>((p ^ x) % next_.size());
      t0 = NowNs();
      for (size_t i = 0; i < kSteps; i++) {
        p = next_[p];
      }
      chase_ns.push_back(static_cast<double>(NowNs() - t0) / kSteps);
    }
    sink_ = p + x;
    return {Median(cpu_ms), Median(chase_ns)};
  }

 private:
  std::vector<uint32_t> next_;
  mutable volatile uint64_t sink_ = 0;
};

}  // namespace svcbench

#endif  // SVCBENCH_HELPERS_H_
