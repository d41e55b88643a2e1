#!/usr/bin/env python3
"""Paired A/B runs of the Service benchmark: a base revision vs the checkout.

  python3 scripts/ab_svcbench.py --base HEAD~1 --seeds 6 --seconds 20
  python3 scripts/ab_svcbench.py --base main --workload scan-churn

Each side is built from its own source tree, in a new temporary work
directory, into its own CARGO_TARGET_DIR (svcbench/run.py builds there).
The base revision is exported with `git archive`, so the repository's
checkout, index and worktree list stay untouched. The change is a copy of
the current checkout's files as they are, uncommitted edits included, taken
once at the start, so edits made while the script runs do not reach it.
For each seed, both sides run `svcbench/run.py --trace <t>` back to back,
and the side that goes first alternates from seed to seed, so slow drift of
the host falls on both sides alike (the randomized multiple interleaved
trials of Abedi & Brecht, ICPE '17). The runs are sequential; run.py's own
drift re-runs apply.

For every metric the report gives each side's median and quartiles, the
median over seeds of the per-pair ratio change/base, a 95%
percentile-bootstrap interval of that median ratio (resampling pairs), and
the number of pairs in which the change was better (ties count for
neither), by the metric's direction in BENCHMARK.json. Each end-to-end
metric also gets a verdict (see `verdict`):

  gain          the change won at least 9 of every 10 pairs, and the medians
                differ by more than the base's interquartile range
  beyond bound  the change's median is worse than the base's by more than
                the metric's `bound` in BENCHMARK.json
  within bound  neither, and each side's interquartile range is within the
                bound (or every change run beat every base run)
  unresolved    neither, and the run-to-run spread is wider than the bound,
                so the runs cannot tell "unchanged" from "worse"

Every run's metrics are appended to runs.jsonl in the work directory. On
exit, also on an error or an interrupt, the source copies and build trees
are deleted and only runs.jsonl is kept; its path is printed last. A run
that exits nonzero (a failed verification, a build error) stops the script
with that exit code. Standard library only.
"""
import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


BOOTSTRAP_ROUNDS = 10000


def export(rev, dest):
    """Writes the tree of `rev` into the new directory dest; returns dest."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        sys.exit("ab_svcbench: cannot export revision %r" % rev)
    return dest


def snapshot_checkout(dest):
    """Copies the checkout's files (tracked or not ignored) into dest."""
    names = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], stdout=subprocess.PIPE, check=True).stdout
    for name in names.decode().split("\0"):
        src = os.path.join(ROOT, name)
        if name and os.path.isfile(src):  # skips deleted tracked files
            os.makedirs(os.path.dirname(os.path.join(dest, name)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))
    return dest


def run_side(src, target, workload, seed, seconds, trace):
    """Runs one benchmark; returns its metrics as {name: value}."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(src, "svcbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=src, env=env, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        print("ab_svcbench: %s exited %d" % (" ".join(cmd), proc.returncode),
              file=sys.stderr)
        sys.exit(proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def load_spec():
    """({metric: 'higher'|'lower'}, {end-to-end metric: bound}) from
    BENCHMARK.json; both empty when it is not there."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}, {}
    better = {m["name"]: m["better"]
              for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])
              if "bound" in m}
    return better, bounds


def bootstrap_ci(ratios, rng):
    """95% percentile-bootstrap interval of the median of `ratios`."""
    n = BOOTSTRAP_ROUNDS
    meds = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                  for _ in range(n))
    return meds[int(0.025 * n)], meds[min(n - 1, int(0.975 * n))]


def quartiles(xs):
    """(q1, median, q3) of xs."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, change, direction, bound):
    """Verdict on one end-to-end metric over paired runs (see the module
    docstring). base[i] and change[i] are the two sides of pair i;
    direction is 'higher' or 'lower'; bound is the relative worsening the
    benchmark allows."""
    sign = 1 if direction == "higher" else -1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gap = sign * (cmed - bmed)  # > 0: the change's median is better
    if 10 * wins >= 9 * len(base) and gap > bq3 - bq1:
        return "gain"
    allowed = bound * abs(bmed)
    if -gap > allowed:
        return "beyond bound"
    all_better = (min(change) > max(base) if sign > 0
                  else max(change) < min(base))
    if max(bq3 - bq1, cq3 - cq1) <= allowed or all_better:
        return "within bound"
    return "unresolved"


def report(workload, pairs, better, bounds):
    rng = random.Random(0)
    print("\n%s: %d pairs (change / base)" % (workload, len(pairs)))
    print("%-28s %26s %26s %7s %16s %6s  %s" %
          ("metric", "base median [q1, q3]", "change median [q1, q3]",
           "ratio", "95% CI", "wins", "verdict"))
    for name in pairs[0][0]:
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        ratios = [c / b for b, c in zip(base, change) if b != 0]
        direction = better.get(name)
        wins = sum((c > b) if direction == "higher" else (c < b)
                   for b, c in zip(base, change)) if direction else None
        ratio = ci = "-"
        if ratios:
            lo, hi = bootstrap_ci(ratios, rng)
            ratio = "%.3f" % statistics.median(ratios)
            ci = "[%.3f, %.3f]" % (lo, hi)
        sides = ["%.4g [%.4g, %.4g]" % (q2, q1, q3)
                 for q1, q2, q3 in (quartiles(base), quartiles(change))]
        judged = "-"
        if direction and name in bounds:
            judged = verdict(base, change, direction, bounds[name])
        print("%-28s %26s %26s %7s %16s %6s  %s" %
              (name, sides[0], sides[1], ratio, ci,
               "-" if wins is None else "%d/%d" % (wins, len(pairs)),
               judged))
    sys.stdout.flush()


def cleanup(work):
    """Deletes everything in work but runs.jsonl (the work directory too,
    when no run was recorded); returns the path of runs.jsonl, or None."""
    runs = os.path.join(work, "runs.jsonl")
    for name in os.listdir(work):
        path = os.path.join(work, name)
        if path == runs:
            continue
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
    if os.path.exists(runs):
        return runs
    os.rmdir(work)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="base revision")
    ap.add_argument("--workload", action="append",
                    help="repeatable; default get-uniform")
    ap.add_argument("--seeds", type=int, default=6, help="number of pairs")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # A terminated script still cleans up (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = tempfile.mkdtemp(prefix="ab-svcbench-")
    try:
        return measure(args, work)
    finally:
        runs = cleanup(work)
        if runs is not None:
            print("ab_svcbench: runs kept in %s" % runs)


def measure(args, work):
    """Builds both sides in work and runs every pair; returns 0."""
    base_src = export(args.base, os.path.join(work, "base-src"))
    change_src = snapshot_checkout(os.path.join(work, "change-src"))
    sides = {"base": (base_src, os.path.join(work, "base-target")),
             "change": (change_src, os.path.join(work, "change-target"))}
    print("ab_svcbench: base %s, change the current checkout, work dir %s" %
          (args.base, work))
    better, bounds = load_spec()
    for workload in args.workload or ["get-uniform"]:
        pairs = []
        for i in range(args.seeds):
            seed = args.first_seed + i
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            got = {}
            for side in order:
                src, target = sides[side]
                got[side] = run_side(src, target, workload, seed,
                                     args.seconds, args.trace)
            pairs.append((got["base"], got["change"]))
            with open(os.path.join(work, "runs.jsonl"), "a") as f:
                for side in order:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "side": side, "trace": args.trace,
                                        "metrics": got[side]}) + "\n")
            tp = "throughput_mops"
            if tp in got["base"]:
                print("  seed %d (%s first): %s %.4g -> %.4g" %
                      (seed, order[0], tp, got["base"][tp], got["change"][tp]))
                sys.stdout.flush()
        report(workload, pairs, better, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
