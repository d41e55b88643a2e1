// The interface between the in-process A/B runner (ab_inproc_main.cc) and
// its two sides (ab_inproc_side.cc, compiled once per source tree). Plain
// types only: each side renames the store's and the benchmark's namespaces
// (-Dwh=wh_<side> -Dsvcbench=svcbench_<side>), so nothing here may name
// them. See scripts/ab_inproc.py for the method.
#ifndef BENCH_AB_INPROC_H_
#define BENCH_AB_INPROC_H_

#include <cstddef>
#include <cstdint>

struct AbConfig {
  const char* workload;  // an svcbench workload name
  uint64_t seed;
  size_t keys;           // loaded keys
  int clients;           // closed-loop client threads
  size_t pool_requests;  // pregenerated requests per client
};

struct AbSlice {
  uint64_t requests = 0;
  uint64_t failed = 0;  // responses that failed verification
  double seconds = 0;
  double batch_p50_us = 0;
};

struct AbSide {
  // Builds the Service, loads it and pregenerates the clients' batches
  // (svcbench's generator, verifier and value function); null on an unknown
  // workload. *setup_s receives svcbench's set-up time: the Service's
  // construction and its load, through Execute in 1024-Put batches from the
  // clients' threads.
  void* (*open)(const AbConfig* cfg, double* setup_s);
  // Runs every client for `seconds`, each continuing its batch stream.
  AbSlice (*run)(void* side, double seconds);
  void (*close)(void* side);
};

#ifndef AB_SIDE_ENTRY
#define AB_SIDE_ENTRY ab_side_entry
#endif

extern "C" const AbSide* ab_side_a();
extern "C" const AbSide* ab_side_b();

#endif  // BENCH_AB_INPROC_H_
