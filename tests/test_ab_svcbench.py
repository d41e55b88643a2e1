#!/usr/bin/env python3
"""Unit tests for scripts/ab_svcbench.py: the per-metric verdicts, the
report's verdict column, and the work-directory cleanup.

Loads the script as a module and calls its functions on made-up runs; no
build and no benchmark run. Pure stdlib; registered as ctest
`test_ab_svcbench`.
"""

import contextlib
import importlib.util
import io
import os
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location(
    "ab_svcbench", os.path.join(REPO, "scripts", "ab_svcbench.py"))
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)

FAILURES = []


def check(name, cond, detail=""):
    if cond:
        print(f"  ok: {name}")
    else:
        print(f"  FAIL: {name} {detail}")
        FAILURES.append(name)


def expect(name, base, change, direction, bound, want):
    got = ab.verdict(base, change, direction, bound)
    check(name, got == want, f"(got {got!r}, want {want!r})")


print("[verdict]")
BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]
# Base IQR is ~0.02; every pair +10%.
expect("10/10 wins, gap beyond the IQR is a gain",
       BASE, [b * 1.10 for b in BASE], "higher", 0.25, "gain")
expect("lower-is-better gain",
       BASE, [b * 0.90 for b in BASE], "lower", 0.25, "gain")
# 8 of 10 pairs better by 10%, two worse: not enough wins for a gain.
eight = [b * 1.10 for b in BASE[:8]] + [b * 0.99 for b in BASE[8:]]
expect("8/10 wins is no gain", BASE, eight, "higher", 0.25, "within bound")
# 9/10 wins is enough.
nine = [b * 1.10 for b in BASE[:9]] + [b * 0.99 for b in BASE[9:]]
expect("9/10 wins is a gain", BASE, nine, "higher", 0.25, "gain")
# Every pair wins, but by less than the base's IQR.
wide = [1.0, 1.4, 0.6, 1.2, 0.8, 1.0, 1.3, 0.7, 1.1, 0.9]
expect("all wins inside the base IQR is no gain",
       wide, [b + 0.01 for b in wide], "higher", 0.5, "within bound")
expect("median 30% worse is beyond a 25% bound",
       BASE, [b * 0.70 for b in BASE], "higher", 0.25, "beyond bound")
expect("median 30% higher latency is beyond a 25% bound",
       BASE, [b * 1.30 for b in BASE], "lower", 0.25, "beyond bound")
expect("5% worse inside a 25% bound with a tight spread",
       BASE, [b * 0.95 for b in BASE], "higher", 0.25, "within bound")
# Spread far wider than a 5% bound, median 2% worse: cannot tell.
expect("spread wider than the bound is unresolved",
       wide, [b * 0.98 for b in wide], "higher", 0.05, "unresolved")
expect("constant success rate is within bound",
       [1.0] * 10, [1.0] * 10, "higher", 0.01, "within bound")
# Wide spread, but every change run beats every base run.
low = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
expect("every change run better by a wide gap is a gain",
       low, [b - 0.5 for b in low], "lower", 0.01, "gain")
# Every change run beats the base's best, but by less than the base's wide
# IQR (median 0.85, IQR ~0.5): no gain, and not unresolved either.
skewed = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.97, 0.99, 1.0]
expect("every change run better, no gain, is within bound",
       skewed, [1.01] * 10, "higher", 0.01, "within bound")

print("[report]")
pairs = [({"throughput_mops": b, "core.get_ns.p50": 10.0},
          {"throughput_mops": b * 1.1, "core.get_ns.p50": 9.0})
         for b in BASE]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    ab.report("scan-churn", pairs,
              {"throughput_mops": "higher", "core.get_ns.p50": "lower"},
              {"throughput_mops": 0.25})
lines = {line.split()[0]: line for line in out.getvalue().splitlines()
         if line.strip()}
check("end-to-end metric carries its verdict",
      lines.get("throughput_mops", "").rstrip().endswith("gain"),
      f"(got {lines.get('throughput_mops')!r})")
check("per-layer metric has no verdict",
      lines.get("core.get_ns.p50", "").rstrip().endswith("-"),
      f"(got {lines.get('core.get_ns.p50')!r})")

print("[cleanup]")
with tempfile.TemporaryDirectory() as root:
    work = os.path.join(root, "work")
    for sub in ("base-src", "change-src", "base-target/svcbench/build",
                "change-target/svcbench/build"):
        os.makedirs(os.path.join(work, sub))
        with open(os.path.join(work, sub, "f"), "w") as f:
            f.write("x")
    with open(os.path.join(work, "runs.jsonl"), "w") as f:
        f.write("{}\n")
    runs = ab.cleanup(work)
    check("returns the runs.jsonl path",
          runs == os.path.join(work, "runs.jsonl"), f"(got {runs!r})")
    check("keeps only runs.jsonl", os.listdir(work) == ["runs.jsonl"],
          f"(left {os.listdir(work)!r})")

    empty = os.path.join(root, "empty")
    os.makedirs(os.path.join(empty, "base-src"))
    check("no runs: returns None", ab.cleanup(empty) is None)
    check("no runs: removes the work directory", not os.path.exists(empty))

print()
if FAILURES:
    print(f"test_ab_svcbench: {len(FAILURES)} FAILED: {', '.join(FAILURES)}")
    sys.exit(1)
print("test_ab_svcbench: all cases passed")
