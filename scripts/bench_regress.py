#!/usr/bin/env python3
"""Throughput regression gate over BENCH_<date>.json snapshots.

The gated metrics — each added after (or to guard) a rewrite of the path it
measures:

  service-ycsb-e   service_mixed, mean of the WAL-off YCSB-E column across
                   shard rows (regressed in the PR-5 cursor rewrite)
  service-ycsb-c   service_mixed, mean of the WAL-off YCSB-C column across
                   shard rows — 100% Get through Service::Execute, so every
                   key runs Wormhole::MultiGet's pipeline (trie walk and
                   in-leaf search interleaved across a key group); a broken
                   or serialized pipeline shows up here first
  fig18-fwd-100    fig18_range "forward scan 100" section, mean of the
                   Wormhole row across keysets (same rewrite)
  fig09-read-1t    fig09_scalability, Wormhole row, 1-thread Get MOPS —
                   guards the lock-free optimistic point-read path (a botched
                   seqlock retry loop shows up here as single-threaded
                   slowdown long before multicore contention does)
  fig18-short16    fig18_range "short scan 16" section, Wormhole row, Az1
                   cell — the single-leaf speculative-window fast path. A
                   broken speculation loop (validation storms, lost fast
                   path) degrades short scans first, while fwd-100 hides it
                   behind hop costs; one keyset cell keeps the gate sharp.

Usage:
  bench_regress.py env BASELINE.json
      Print "SCALE THREADS SECONDS" from the baseline header, so the caller
      re-runs the benches at the exact config the baseline recorded.
  bench_regress.py compare BASELINE.json CURRENT.json... [--threshold 0.7]
      Exit 1 if any metric falls below threshold * BASELINE. With several
      CURRENT snapshots, each metric is gated on its best sample.

Absolute numbers only compare on the same hardware (snapshots record nproc);
the default threshold of 0.7 (fail on a >30% drop) leaves room for machine
noise while catching a real regression, which historically showed up as a
2-4x drop, not 30%.

Best-of-N exists because one sample at smoke scale (fractions of a second
per cell) is noise-dominated: scheduling hiccups only ever subtract
throughput, so a metric's capability is its best observed sample, and a
single noisy-low run must not fail a gate whose floor the code clears on
every quiet run. check.sh feeds this incrementally — one snapshot, then a
second and third only if a metric is still under its floor.
"""
import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def bench_named(snapshot, name):
    for bench in snapshot.get("benches", []):
        if bench.get("bench") == name:
            return bench
    return None


def mean(values):
    values = [v for v in values if isinstance(v, (int, float))]
    return sum(values) / len(values) if values else None


def service_wal_off(snapshot, col):
    """Mean of one service_mixed column across the WAL-off shard rows (the
    durable-mode section repeats the columns and is skipped)."""
    bench = bench_named(snapshot, "service_mixed")
    if bench is None:
        return None
    for section in bench.get("sections", []):
        cols = section.get("cols", [])
        if col not in cols or "durable" in section.get("title", ""):
            continue
        idx = cols.index(col)
        return mean(row["values"][idx] for row in section.get("rows", []))
    return None


def service_ycsb_e(snapshot):
    return service_wal_off(snapshot, "YCSB-E")


def service_ycsb_c(snapshot):
    return service_wal_off(snapshot, "YCSB-C")


def fig18_forward_100(snapshot):
    bench = bench_named(snapshot, "fig18_range")
    if bench is None:
        return None
    for section in bench.get("sections", []):
        if "forward scan 100" not in section.get("title", ""):
            continue
        for row in section.get("rows", []):
            if row.get("label") == "Wormhole":
                return mean(row["values"])
    return None


def fig09_read_1t(snapshot):
    bench = bench_named(snapshot, "fig09_scalability")
    if bench is None:
        return None
    for section in bench.get("sections", []):
        cols = section.get("cols", [])
        if "1T" not in cols:
            continue
        idx = cols.index("1T")
        for row in section.get("rows", []):
            if row.get("label") == "Wormhole":
                values = row.get("values", [])
                if idx < len(values):
                    return values[idx]
    return None


def fig18_short16(snapshot):
    bench = bench_named(snapshot, "fig18_range")
    if bench is None:
        return None
    for section in bench.get("sections", []):
        if "short scan 16" not in section.get("title", ""):
            continue
        cols = section.get("cols", [])
        if "Az1" not in cols:
            continue
        idx = cols.index("Az1")
        for row in section.get("rows", []):
            if row.get("label") == "Wormhole":
                values = row.get("values", [])
                if idx < len(values):
                    return values[idx]
    return None


METRICS = [
    ("service-ycsb-e", service_ycsb_e),
    ("service-ycsb-c", service_ycsb_c),
    ("fig18-fwd-100", fig18_forward_100),
    ("fig09-read-1t", fig09_read_1t),
    ("fig18-short16", fig18_short16),
]


def cmd_env(args):
    snap = load(args.baseline)
    print(f"{snap['scale']} {snap['threads']} {snap['seconds']}")
    return 0


def cmd_compare(args):
    base = load(args.baseline)
    currents = [load(path) for path in args.current]
    failures = []  # (metric, human-readable reason)
    for name, extract in METRICS:
        b = extract(base)
        samples = [v for v in (extract(cur) for cur in currents)
                   if v is not None]
        if b is None:
            # An old baseline without the bench cannot gate this metric.
            print(f"{name}: baseline has no value; skipped")
            continue
        if not samples:
            print(f"{name}: MISSING from current run (baseline {b:.4f})")
            failures.append((name, "missing from the current run"))
            continue
        c = max(samples)
        floor = args.threshold * b
        verdict = "ok" if c >= floor else "REGRESSION"
        best = (f" (best of {len(samples)} samples)"
                if len(currents) > 1 else "")
        print(
            f"{name}: current {c:.4f}{best} vs baseline {b:.4f} "
            f"(floor {floor:.4f}) {verdict}"
        )
        if c < floor:
            drop = (1.0 - c / b) * 100.0
            limit = (1.0 - args.threshold) * 100.0
            failures.append(
                (name, f"dropped {drop:.1f}% vs baseline "
                       f"(limit {limit:.1f}%: {c:.4f} < floor {floor:.4f})"))
    if failures:
        # One self-contained verdict line per failed metric, so the CI log
        # tail says what regressed and by how much without reading this
        # script or scrolling to the per-metric table above.
        detail = "; ".join(f"{name} {reason}" for name, reason in failures)
        print(f"bench-regress FAILED: {detail}", file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_env = sub.add_parser("env", help="print baseline's SCALE THREADS SECONDS")
    p_env.add_argument("baseline")
    p_env.set_defaults(func=cmd_env)

    p_cmp = sub.add_parser("compare", help="gate current against baseline")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("current", nargs="+")
    p_cmp.add_argument("--threshold", type=float, default=0.7)
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
