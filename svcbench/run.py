#!/usr/bin/env python3
"""Builds the Service benchmark from this source tree and runs one workload.

  python3 svcbench/run.py --workload get-uniform --seed 1 --seconds 20 --trace 0

Run from the root of the repository. `--workload all` runs every workload in
turn (each prints its own result). The build goes to
$CARGO_TARGET_DIR/svcbench (default .bench_build/svcbench), configured from
svcbench/CMakeLists.txt; the helper self-tests run before every measurement,
and a failing self-test fails the run. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result.

A run whose host drift probe reads `verdict=drifted` (the host slowed down or
sped up while it measured) is discarded and run again with the same seed,
while the time left allows another run of the same length; its output then
goes to stderr. If no time is left, the drifted result is kept and the
discarded-run note says so. Exit codes: 0 on success, 1 when a response failed
verification, 2 on a build or usage error, 3 on a timeout. See
svcbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("get-uniform", "scan-churn", "durable-ycsba")
# Time all measured runs of one workload may take, re-runs included.
RUN_BUDGET_S = 165


def build(build_dir):
    """Configures (once) and builds; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    steps.append([os.path.join(build_dir, "svcbench_selftest")])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("svcbench: failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # A terminated run still stops and reaps the benchmark (see finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.exists(os.path.join(ROOT, "src", "server", "service.h")):
        print("svcbench: no store sources next to svcbench/", file=sys.stderr)
        return 2
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "svcbench")
    build_dir = os.path.join(out, "build")
    if not build(build_dir):
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run(build_dir, out, w, args) for w in workloads)


def run(build_dir, out, workload, args):
    """Runs one workload, again while the host drifted; returns its exit code."""
    cmd = [os.path.join(build_dir, "svcbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans_dir = os.path.join(out, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.tsv" % (workload, args.seed))]
    start = time.monotonic()
    while True:
        began = time.monotonic()
        code, stdout = run_once(cmd, out, RUN_BUDGET_S - (began - start))
        took = time.monotonic() - began
        drifted = any(line.startswith("host_drift verdict=drifted")
                      for line in stdout.splitlines())
        left = RUN_BUDGET_S - (time.monotonic() - start)
        if code != 0 or not drifted or took * 1.15 > left:
            if drifted:
                print("svcbench: host drifted during the run; no time left "
                      "to run again, result kept", file=sys.stderr)
            sys.stdout.write(stdout)
            sys.stdout.flush()
            return code
        print("svcbench: host drifted during the run; discarded, running "
              "again:", file=sys.stderr)
        sys.stderr.write(stdout)


def run_once(cmd, out, timeout_s):
    """Runs the benchmark once; returns its exit code and standard output."""
    scratch = os.path.join(out, "run-%d" % os.getpid())
    proc = subprocess.Popen(cmd + ["--scratch", scratch], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, timeout_s))
        return proc.returncode, stdout
    except subprocess.TimeoutExpired:
        print("svcbench: timed out", file=sys.stderr)
        return 3, ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
