// Runner of the in-process A/B (scripts/ab_inproc.py builds and runs it):
// two source trees' Services in one process, measured in alternating short
// slices.
//
//   ab_inproc --workload NAME --first a|b [--rounds N] [--keys N]
//
// Both sides are built and loaded (side --first first) with kClients
// clients each, the load timed as svcbench's setup_s and printed with the
// ratio b/a, warmed up for kWarmupS, and then every round runs one
// kSliceS slice of each side in a random order (randomized multiple
// interleaved trials: Abedi & Brecht, ICPE '17). Slow drift of the host
// falls on both sides alike, and no side always runs right after the other.
// Per round it prints each side's throughput and batch p50; the last line is
// one JSON object with both set-up times and every round. Exit code 1 when any response failed
// verification.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "ab_inproc.h"

namespace {

constexpr double kSliceS = 0.5;
constexpr double kWarmupS = 2.0;
constexpr uint64_t kSeed = 1;
constexpr int kClients = 3;
constexpr size_t kPoolRequests = size_t{1} << 17;  // per client

struct Args {
  std::string workload;
  char first = 0;
  int rounds = 24;
  AbConfig cfg{nullptr, kSeed, 2000000, kClients, kPoolRequests};
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "ab_inproc: %s\nusage: ab_inproc --workload NAME --first a|b "
               "[--rounds N] [--keys N]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--first") {
      a.first = v[0];
    } else if (flag == "--rounds") {
      a.rounds = std::atoi(v);
    } else if (flag == "--keys") {
      a.cfg.keys = std::strtoull(v, nullptr, 10);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) {
    Usage("flags take one value each");
  }
  if (a.workload.empty() || (a.first != 'a' && a.first != 'b') ||
      a.rounds < 1 || a.cfg.keys < 4096) {
    Usage("bad arguments");
  }
  a.cfg.workload = a.workload.c_str();
  return a;
}

double Mops(const AbSlice& s) {
  return static_cast<double>(s.requests) / s.seconds / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = Parse(argc, argv);
  const AbSide* ops[2] = {ab_side_a(), ab_side_b()};
  void* sides[2] = {nullptr, nullptr};
  double setup_s[2] = {0, 0};
  const int first = a.first == 'a' ? 0 : 1;
  for (const int s : {first, 1 - first}) {
    sides[s] = ops[s]->open(&a.cfg, &setup_s[s]);
    if (sides[s] == nullptr) {
      Usage("unknown or durable workload");
    }
  }
  std::printf("setup (%c built first)  a %.4f s  b %.4f s  b/a %.4f\n",
              a.first, setup_s[0], setup_s[1], setup_s[1] / setup_s[0]);
  uint64_t failed = 0;
  for (int s = 0; s < 2; s++) {
    failed += ops[s]->run(sides[s], kWarmupS).failed;
  }
  std::mt19937_64 rng(kSeed * 0x9e3779b97f4a7c15ull + 17);
  std::string json = "[";
  for (int r = 0; r < a.rounds; r++) {
    const int lead = static_cast<int>(rng() & 1);
    AbSlice got[2];
    for (const int s : {lead, 1 - lead}) {
      got[s] = ops[s]->run(sides[s], kSliceS);
      failed += got[s].failed;
    }
    std::printf("round %d lead=%c  a %.4f Mreq/s p50 %.1f us  b %.4f Mreq/s "
                "p50 %.1f us  b/a %.4f\n",
                r, "ab"[lead], Mops(got[0]), got[0].batch_p50_us,
                Mops(got[1]), got[1].batch_p50_us,
                Mops(got[1]) / Mops(got[0]));
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"lead\": \"%c\", \"a_mops\": %.6g, \"a_p50_us\": %.6g, "
                  "\"b_mops\": %.6g, \"b_p50_us\": %.6g}",
                  r == 0 ? "" : ", ", "ab"[lead], Mops(got[0]),
                  got[0].batch_p50_us, Mops(got[1]), got[1].batch_p50_us);
    json += buf;
  }
  for (int s = 0; s < 2; s++) {
    ops[s]->close(sides[s]);
  }
  std::printf("{\"workload\": \"%s\", \"first\": \"%c\", \"failed\": %llu, "
              "\"a_setup_s\": %.6g, \"b_setup_s\": %.6g, \"rounds\": %s]}\n",
              a.workload.c_str(), a.first,
              static_cast<unsigned long long>(failed), setup_s[0], setup_s[1],
              json.c_str());
  return failed == 0 ? 0 : 1;
}
