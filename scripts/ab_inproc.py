#!/usr/bin/env python3
"""In-process A/B of two source trees on the Service benchmark's workloads.

  python3 scripts/ab_inproc.py --base HEAD --workload scan-churn
  python3 scripts/ab_inproc.py --base HEAD~1 --change HEAD \\
      --workload get-uniform --rounds 16

Where ab_svcbench.py runs two benchmark processes back to back, this
script compiles both trees into ONE binary and alternates them in short
slices, so host drift between runs (up to a quarter on the 4-vCPU host the
benchmark was sized on) cannot fall on one side only. Method:

  - Side a is --base, exported with `git archive`; side b is --change, a
    revision exported the same way, or by default a copy of the current
    checkout's files (uncommitted edits included).
  - Each side's store sources (src/{common,workload,core,durability,server})
    and the harness side bench/ab_inproc_side.cc are compiled with
    -Dwh=wh_<side> -Dsvcbench=svcbench_<side>, so the two trees' symbols
    cannot collide; each side includes its own tree's src/ and svcbench/
    headers, read as they are. The harness (bench/ab_inproc*.{h,cc}) is
    always the checkout's. Both sides link with bench/ab_inproc_main.cc.
  - The binary builds and loads both Services (svcbench's keyset of --keys
    keys, shard router, generator and verifier; 3 clients per side, seed 1;
    every response is verified). Each load is timed as svcbench's setup_s:
    the Service's construction and its load through Execute in 1024-Put
    batches from the 3 client threads. It warms each one up for 2 s, then
    runs
    --rounds rounds. A round runs one 0.5 s slice of each side, in random
    order: randomized multiple interleaved trials (Abedi & Brecht, ICPE '17).
  - Both creation orders, always: in A/A runs (one tree on both sides) on
    get-uniform the index built second in a process ran 7-12% slower than
    the one built first (b/a 0.878 when a was built first, 1.075 when b
    was), and scan-churn showed no such bias (0.999 and 1.017). The script
    therefore runs the binary twice, a built first and then b, and reports
    each order's geometric-mean ratio b/a and their geometric mean, which
    cancels a creation-order bias that is the same both ways. Set-up is one
    load per side per order: its ratio b/a is printed for each order, and
    the geometric mean of the two.

A ratio above 1 means side b is faster (throughput) or slower (batch p50,
set-up).
Exit code 1 when any response failed verification, 2 on a build or usage
error. The work directory is deleted on exit. Standard library only.
"""
import argparse
import concurrent.futures
import glob
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
from ab_svcbench import export, snapshot_checkout  # noqa: E402

STORE_DIRS = ("common", "workload", "core", "durability", "server")
CXXFLAGS = ["-std=c++17", "-O2", "-g", "-DNDEBUG", "-march=native",
            "-pthread"]


def compile_side(side, tree, obj_dir, pool):
    """Compiles one side's objects in parallel; returns their paths."""
    sources = [os.path.join(ROOT, "bench", "ab_inproc_side.cc")]
    for d in STORE_DIRS:
        sources += sorted(glob.glob(os.path.join(tree, "src", d, "*.cc")))
    flags = CXXFLAGS + [
        "-Dwh=wh_" + side, "-Dsvcbench=svcbench_" + side,
        "-DAB_SIDE_ENTRY=ab_side_" + side,
        "-I" + tree, "-I" + os.path.join(ROOT, "bench")]
    jobs = []
    for i, src in enumerate(sources):
        obj = os.path.join(obj_dir, "%s-%d.o" % (side, i))
        jobs.append((obj, pool.submit(subprocess.run,
                                      ["g++"] + flags + ["-c", src, "-o", obj])))
    objs = []
    for obj, job in jobs:
        if job.result().returncode != 0:
            sys.exit(2)
        objs.append(obj)
    return objs


def build(work, base_tree, change_tree):
    """Builds the A/B binary in work; returns its path."""
    obj_dir = os.path.join(work, "obj")
    os.makedirs(obj_dir)
    with concurrent.futures.ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        objs = compile_side("a", base_tree, obj_dir, pool)
        objs += compile_side("b", change_tree, obj_dir, pool)
    binary = os.path.join(work, "ab_inproc")
    cmd = (["g++"] + CXXFLAGS + ["-I" + os.path.join(ROOT, "bench"),
                                 os.path.join(ROOT, "bench", "ab_inproc_main.cc")]
           + objs + ["-o", binary])
    if subprocess.run(cmd).returncode != 0:
        sys.exit(2)
    return binary


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def summarize(result):
    """(geomean b/a throughput, geomean b/a p50, rounds b won on throughput,
    rounds, set-up b/a) of one run's JSON result."""
    rounds = result["rounds"]
    tp = [r["b_mops"] / r["a_mops"] for r in rounds]
    p50 = [r["b_p50_us"] / r["a_p50_us"] for r in rounds]
    return (geomean(tp), geomean(p50), sum(x > 1 for x in tp), len(rounds),
            result["b_setup_s"] / result["a_setup_s"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="side a's revision")
    ap.add_argument("--change", default=None,
                    help="side b's revision (default: the checkout's files)")
    ap.add_argument("--workload", default="scan-churn",
                    help="get-uniform or scan-churn")
    ap.add_argument("--rounds", type=int, default=24)
    ap.add_argument("--keys", type=int, default=2000000)
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = tempfile.mkdtemp(prefix="ab-inproc-")
    try:
        base = export(args.base, os.path.join(work, "a"))
        change = (export(args.change, os.path.join(work, "b"))
                  if args.change else
                  snapshot_checkout(os.path.join(work, "b")))
        binary = build(work, base, change)
        print("ab_inproc: a = %s, b = %s, workload %s" %
              (args.base, args.change or "the checkout", args.workload))
        sys.stdout.flush()
        tps, p50s, setups = [], [], []
        failed = 0
        for first in ("a", "b"):
            cmd = [binary, "--workload", args.workload, "--first", first,
                   "--rounds", str(args.rounds), "--keys", str(args.keys)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode == 2 or not proc.stdout.strip():
                sys.stdout.write(proc.stdout)
                return 2
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            tp, p50, won, n, setup = summarize(result)
            tps.append(tp)
            p50s.append(p50)
            setups.append(setup)
            print("  %s built first: throughput b/a %.4f (b won %d/%d "
                  "rounds), batch p50 b/a %.4f, set-up b/a %.4f "
                  "(a %.3f s, b %.3f s)" %
                  (first, tp, won, n, p50, setup, result["a_setup_s"],
                   result["b_setup_s"]))
            sys.stdout.flush()
        print("ab_inproc: %s both orders: throughput b/a %.4f, batch p50 "
              "b/a %.4f, set-up b/a %.4f%s" %
              (args.workload, geomean(tps), geomean(p50s), geomean(setups),
               "" if failed == 0 else
               ", %d responses FAILED verification" % failed))
        return 1 if failed else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
