// Self-tests of the benchmark's helpers (helpers.h, workload.h): percentile
// summaries and their sample counts, Zipf determinism and skew, seeded
// batches, window slices, span self time, the response verifier and the
// drift verdict. Exits non-zero on the first failure.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "svcbench/helpers.h"
#include "svcbench/workload.h"

namespace svcbench {
namespace {

int checks = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    checks++;                                                         \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; i--) {
    v.push_back(i);
  }
  const Summary s = Summarize(v);
  CHECK(s.n == 100);
  CHECK(s.p50 == 50);
  CHECK(s.p99 == 99);
  CHECK(s.mean == 50.5);

  const Summary one = Summarize({7.0});
  CHECK(one.n == 1 && one.p50 == 7 && one.p99 == 7);

  const Summary none = Summarize({});
  CHECK(none.n == 0 && none.p50 == 0 && none.p99 == 0);

  // Nearest rank: with 1000 samples p99 is the 990th smallest, so exactly
  // ten samples lie beyond it.
  std::vector<double> k(1000);
  for (int i = 0; i < 1000; i++) {
    k[i] = i;
  }
  CHECK(Summarize(k).p99 == 989);
}

void TestZipf() {
  const ScrambledZipfian z(10000, 0.99);
  wh::Rng a(42);
  wh::Rng b(42);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 200000; i++) {
    const uint64_t x = z.Next(a);
    CHECK(x == z.Next(b));
    CHECK(x < 10000);
    counts[x]++;
  }
  // Skew: the hottest item draws far more than a uniform 1/10000 share,
  // and the 100 hottest items together draw over a third of the draws.
  std::vector<int> freq;
  for (const auto& kv : counts) {
    freq.push_back(kv.second);
  }
  std::sort(freq.rbegin(), freq.rend());
  CHECK(freq[0] > 200000 / 100);
  int top = 0;
  for (int i = 0; i < 100 && i < static_cast<int>(freq.size()); i++) {
    top += freq[i];
  }
  CHECK(top > 200000 / 3);
  // Scrambling: rank 0 does not land on item 0.
  CHECK(ScrambledZipfian::Fnv1a64(0) % 10000 != 0);
  // A different seed gives a different sequence.
  wh::Rng c(43);
  wh::Rng d(42);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    same += z.Next(c) == z.Next(d) ? 1 : 0;
  }
  CHECK(same < 100);
}

void TestBatchesDeterministic() {
  std::vector<std::string> keys;
  for (int i = 0; i < 1100; i++) {
    keys.push_back("key" + std::to_string(i));
  }
  const size_t loaded = 1000;
  for (const Workload& w : kWorkloads) {
    const KeyChooser chooser(w, loaded);
    CHECK(chooser.space() == (w.extended_keys ? 1100 : 1000));
    const Verifier verifier(w.gets_must_hit, keys, loaded);
    const auto x = BuildBatches(w, keys, chooser, verifier, 7, 0, 20);
    const auto y = BuildBatches(w, keys, chooser, verifier, 7, 0, 20);
    const auto z = BuildBatches(w, keys, chooser, verifier, 7, 1, 20);
    CHECK(x.size() == 20 && x[0].requests.size() == w.batch);
    bool differs = false;
    for (size_t i = 0; i < x.size(); i++) {
      for (size_t j = 0; j < x[i].requests.size(); j++) {
        const wh::Request& r = x[i].requests[j];
        CHECK(r.op == y[i].requests[j].op && r.key == y[i].requests[j].key);
        differs |= r.key != z[i].requests[j].key;
        if (r.op == wh::Op::kPut) {
          CHECK(ValueMatches(r.key, r.value));
        }
        // With extended keys, writes touch only the unloaded keys, so
        // every loaded key stays present.
        if (w.extended_keys &&
            (r.op == wh::Op::kPut || r.op == wh::Op::kDelete)) {
          CHECK(std::find(keys.begin(), keys.begin() + loaded, r.key) ==
                keys.begin() + loaded);
        }
        if (r.op == wh::Op::kScan || r.op == wh::Op::kScanRev) {
          CHECK(x[i].scan_pos[j] == verifier.ScanPosition(r));
        }
      }
    }
    CHECK(differs);
  }
}

void TestSliceLatencies() {
  // Two clients; slices of 1000 ns. A batch belongs to the slice in which it
  // completed; batches completing after the last slice are dropped.
  const std::vector<std::vector<ExecSpan>> spans = {
      {{0, 500}, {500, 1500}, {1500, 2999}, {2999, 3100}},
      {{100, 900}, {900, 1000}},
  };
  const auto slices = SliceLatencies(spans, 1000, 3);
  CHECK(slices.size() == 3);
  CHECK(slices[0].size() == 2);  // ends at 500 and 900
  CHECK(slices[1].size() == 2);  // ends at 1500 and 1000
  CHECK(slices[2].size() == 1);  // ends at 2999; 3100 is past the window
  CHECK(slices[0][0] == 0.5 && slices[0][1] == 0.8);
  CHECK(slices[2][0] == 1.499);
  CHECK(Median({3.0, 1.0, 2.0}) == 2.0);
}

void TestSelfTimes() {
  std::vector<Span> spans = {
      {0, 0, SpanKind::kRoot, 1000, 1},  {0, 1, SpanKind::kChild, 300, 4},
      {0, 2, SpanKind::kChild, 200, 1},  {0, 3, SpanKind::kProbe, 5000, 9},
      {1, 0, SpanKind::kRoot, 700, 1},   {1, 1, SpanKind::kChild, 100, 2},
  };
  const std::vector<int64_t> self = SelfTimes(spans, 3);
  CHECK(self.size() == 3);
  CHECK(self[0] == 500);  // probes are not children
  CHECK(self[1] == 600);
  CHECK(self[2] == 0);
  // Self time plus the children's durations equals the root's duration.
  for (uint32_t b = 0; b < 2; b++) {
    int64_t root = 0;
    int64_t children = 0;
    for (const Span& s : spans) {
      if (s.batch == b && s.kind == SpanKind::kRoot) {
        root += s.dur_ns;
      } else if (s.batch == b && s.kind == SpanKind::kChild) {
        children += s.dur_ns;
      }
    }
    CHECK(self[b] + children == root);
  }
}

wh::Response Hit(const std::string& key) {
  wh::Response r;
  r.found = true;
  r.value = ValueOf(key);
  return r;
}

wh::Response Items(std::initializer_list<const char*> keys) {
  wh::Response r;
  for (const char* k : keys) {
    r.items.emplace_back(k, ValueOf(k));
  }
  return r;
}

wh::Request ScanReq(wh::Op op, const char* start, uint32_t limit) {
  wh::Request r;
  r.op = op;
  r.key = start;
  r.scan_limit = limit;
  return r;
}

void TestVerifier() {
  // Pinned keys b, d, f (in any order); c and e may come and go.
  const std::vector<std::string> pinned = {"f", "b", "d", "unpinned"};
  const Verifier v(true, pinned, 3);
  const Verifier may_miss(false, pinned, 3);

  wh::Request get;
  get.key = "alpha";
  CHECK(v.Verify(get, Hit("alpha"), 0));
  // A corrupted value, and the value of another key, are failures.
  wh::Response bad = Hit("alpha");
  bad.value[3] ^= 1;
  CHECK(!v.Verify(get, bad, 0));
  CHECK(!v.Verify(get, Hit("beta"), 0));
  wh::Response torn = Hit("alpha");
  torn.value.resize(4);
  CHECK(!v.Verify(get, torn, 0));
  // A miss fails only where every Get must hit.
  CHECK(!v.Verify(get, wh::Response(), 0));
  CHECK(may_miss.Verify(get, wh::Response(), 0));
  // ok == false fails whatever else the response says.
  wh::Response refused = Hit("alpha");
  refused.ok = false;
  CHECK(!may_miss.Verify(get, refused, 0));

  const wh::Request scan = ScanReq(wh::Op::kScan, "b", 3);
  const uint32_t at_b = v.ScanPosition(scan);
  CHECK(at_b == 0);
  CHECK(v.Verify(scan, Items({"b", "c", "d"}), at_b));
  CHECK(v.Verify(scan, Items({"b", "d", "f"}), at_b));
  const wh::Response sr = Items({"b", "c", "d"});
  wh::Response unordered = sr;
  std::swap(unordered.items[1], unordered.items[2]);
  CHECK(!v.Verify(scan, unordered, at_b));
  wh::Response dup = sr;
  dup.items[2] = dup.items[1];
  CHECK(!v.Verify(scan, dup, at_b));
  CHECK(!v.Verify(scan, Items({"a", "c", "d"}), at_b));  // before the start
  CHECK(!v.Verify(scan, Items({"b", "c", "d", "e"}), at_b));  // over limit
  wh::Response wrong_value = sr;
  wrong_value.items[1].second = ValueOf("x");
  CHECK(!v.Verify(scan, wrong_value, at_b));
  // Empty, truncated, and gapped scans: pinned keys are missing.
  CHECK(!v.Verify(scan, Items({}), at_b));
  CHECK(!v.Verify(scan, Items({"b", "c"}), at_b));
  CHECK(!v.Verify(scan, Items({"b", "e", "f"}), at_b));  // skipped d
  // A scan may stop short of its limit when no pinned key lies beyond.
  const wh::Request tail = ScanReq(wh::Op::kScan, "e", 3);
  CHECK(v.ScanPosition(tail) == 2);
  CHECK(v.Verify(tail, Items({"e", "f"}), 2));
  CHECK(v.Verify(tail, Items({"f"}), 2));
  CHECK(!v.Verify(tail, Items({"e"}), 2));
  const wh::Request past = ScanReq(wh::Op::kScan, "g", 3);
  CHECK(v.Verify(past, Items({}), v.ScanPosition(past)));
  const wh::Request none = ScanReq(wh::Op::kScan, "b", 0);
  CHECK(v.Verify(none, Items({}), at_b));

  const wh::Request rev = ScanReq(wh::Op::kScanRev, "e", 3);
  const uint32_t at_e = v.ScanPosition(rev);
  CHECK(at_e == 2);
  CHECK(v.Verify(rev, Items({"d", "c", "b"}), at_e));
  CHECK(v.Verify(rev, Items({"e", "d", "b"}), at_e));
  CHECK(!v.Verify(rev, Items({"b", "c", "d"}), at_e));  // ascending
  CHECK(!v.Verify(rev, Items({}), at_e));
  CHECK(!v.Verify(rev, Items({"d"}), at_e));  // truncated: b is missing
  CHECK(!v.Verify(rev, Items({"c", "b"}), at_e));  // skipped d
  const wh::Request rev_d = ScanReq(wh::Op::kScanRev, "d", 5);
  CHECK(v.ScanPosition(rev_d) == 2);  // d itself is at or below the start
  CHECK(v.Verify(rev_d, Items({"d", "c", "b"}), 2));
  CHECK(!v.Verify(rev_d, Items({"c", "b"}), 2));

  wh::Request put;
  put.op = wh::Op::kPut;
  put.key = "k";
  wh::Response acked;
  acked.found = true;
  CHECK(v.Verify(put, acked, 0));
  acked.ok = false;
  CHECK(!v.Verify(put, acked, 0));

  // CountFailures computes scan positions when the batch carries none.
  const std::vector<wh::Request> batch = {get, scan, rev};
  CHECK(v.CountFailures(batch, {Hit("alpha"), sr, Items({"d", "c", "b"})}) ==
        0);
  CHECK(v.CountFailures(batch, {bad, unordered, Items({"d"})}) == 3);
  CHECK(v.CountFailures(batch, {Hit("alpha")}) == 3);
  const Batch with_pos = {batch, {0, at_b, at_e}};
  CHECK(v.CountFailures(with_pos, {Hit("alpha"), Items({"b"}), Items({})}) ==
        2);
}

void TestDriftVerdict() {
  CHECK(!Drifted({}));
  CHECK(!Drifted({{50, 200}, {55, 250}, {48, 180}}));
  CHECK(Drifted({{50, 200}, {64, 200}}));   // CPU loop 28% slower
  CHECK(Drifted({{50, 200}, {50, 330}}));   // chase 65% slower
}

}  // namespace
}  // namespace svcbench

int main() {
  svcbench::TestPercentiles();
  svcbench::TestZipf();
  svcbench::TestBatchesDeterministic();
  svcbench::TestSliceLatencies();
  svcbench::TestSelfTimes();
  svcbench::TestVerifier();
  svcbench::TestDriftVerdict();
  std::printf("svcbench_selftest: %d checks passed\n", svcbench::checks);
  return 0;
}
