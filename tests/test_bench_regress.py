#!/usr/bin/env python3
"""Fixture tests for scripts/bench_regress.py `env` and `compare`.

Builds tiny snapshot JSONs in a tempdir and asserts on exit codes and the
failure verdict line — in particular that a regression names WHICH metric
dropped and BY HOW MUCH relative to the threshold, so a red CI log tail is
self-explanatory. Pure stdlib; registered as ctest `test_bench_regress`.
"""

import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "scripts", "bench_regress.py")

FAILURES = []


def check(name, cond, detail=""):
    if cond:
        print(f"  ok: {name}")
    else:
        print(f"  FAIL: {name} {detail}")
        FAILURES.append(name)


def snapshot(ycsb_e=None, fwd100=None, read1t=None, short16=None, scale=1000,
             threads=4, seconds=1, ycsb_c=None, durable_first=False,
             no_ycsb_c=False):
    """Build a snapshot dict in the shape bench_snapshot.sh emits. Any
    metric can be omitted to simulate an old/partial snapshot. The WAL-off
    YCSB-C column is 5.0/9.0 (mean 7.0) unless ycsb_c sets both rows;
    durable_first puts a durable-mode decoy section (same columns, tiny
    values) ahead of the WAL-off one, and no_ycsb_c drops the column."""
    benches = []
    if ycsb_e is not None:
        cs = (5.0, 9.0) if ycsb_c is None else (ycsb_c, ycsb_c)
        cols = ["shards", "YCSB-C", "YCSB-E"]
        rows = [{"label": "1", "values": [1, cs[0], ycsb_e]},
                {"label": "4", "values": [4, cs[1], ycsb_e]}]
        if no_ycsb_c:
            cols = ["shards", "YCSB-E"]
            rows = [{"label": r["label"], "values": [r["values"][0],
                                                     r["values"][2]]}
                    for r in rows]
        sections = [{"title": "ops/sec by shard count", "cols": cols,
                     "rows": rows}]
        if durable_first:
            sections.insert(0, {
                "title": "Sharded service, durable mode: ops/sec",
                "cols": cols,
                "rows": [{"label": "1+wal",
                          "values": [1] + [0.01] * (len(cols) - 1)}],
            })
        benches.append({"bench": "service_mixed", "sections": sections})
    fig18_sections = []
    if fwd100 is not None:
        fig18_sections.append({
            "title": "forward scan 100 (Mops)",
            "cols": ["az", "url"],
            "rows": [
                {"label": "Wormhole", "values": [fwd100, fwd100]},
                {"label": "Masstree", "values": [0.1, 0.1]},
            ],
        })
    if short16 is not None:
        # Matches the real section shape: the gate takes the Az1 CELL of the
        # Wormhole row, not a mean, so give Az2 a decoy value.
        fig18_sections.append({
            "title": "short scan 16 (YCSB-E) (Mops)",
            "cols": ["Az1", "Az2"],
            "rows": [
                {"label": "Wormhole", "values": [short16, short16 * 0.5]},
                {"label": "Masstree", "values": [0.2, 0.2]},
            ],
        })
    if fig18_sections:
        benches.append({"bench": "fig18_range", "sections": fig18_sections})
    if read1t is not None:
        benches.append({
            "bench": "fig09_scalability",
            "sections": [{
                "title": "Get Mops by thread count",
                "cols": ["1T", "2T"],
                "rows": [
                    {"label": "Wormhole", "values": [read1t, read1t * 1.8]},
                    {"label": "Masstree", "values": [0.5, 0.9]},
                ],
            }],
        })
    return {"scale": scale, "threads": threads, "seconds": seconds,
            "benches": benches}


def write(root, name, snap):
    path = os.path.join(root, name)
    with open(path, "w") as f:
        json.dump(snap, f)
    return path


def run(*argv):
    proc = subprocess.run([sys.executable, SCRIPT, *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


with tempfile.TemporaryDirectory() as root:
    base = write(root, "base.json", snapshot(ycsb_e=10.0, fwd100=2.0,
                                             scale=5000, threads=8, seconds=3))

    print("[env]")
    code, out, err = run("env", base)
    check("env exits 0", code == 0, f"(exit {code}, stderr {err!r})")
    check("env prints scale/threads/seconds", out.strip() == "5000 8 3",
          f"(got {out.strip()!r})")

    print("[compare ok]")
    cur = write(root, "cur_ok.json", snapshot(ycsb_e=9.0, fwd100=1.9))
    code, out, err = run("compare", base, cur)
    check("within threshold exits 0", code == 0,
          f"(exit {code}, out {out!r}, err {err!r})")
    check("no FAILED line on success", "bench-regress FAILED" not in err,
          f"(stderr {err!r})")

    print("[compare regression]")
    # YCSB-E halves (50% drop, limit 30%); fig18 stays healthy.
    cur = write(root, "cur_bad.json", snapshot(ycsb_e=5.0, fwd100=2.0))
    code, out, err = run("compare", base, cur)
    check("regression exits 1", code == 1, f"(exit {code})")
    check("verdict names the metric", "bench-regress FAILED" in err
          and "service-ycsb-e" in err, f"(stderr {err!r})")
    check("verdict quantifies the drop", "dropped 50.0%" in err
          and "limit 30.0%" in err, f"(stderr {err!r})")
    check("healthy metric not in verdict", "fig18-fwd-100" not in err,
          f"(stderr {err!r})")

    print("[compare both regress]")
    cur = write(root, "cur_bad2.json", snapshot(ycsb_e=1.0, fwd100=0.5))
    code, out, err = run("compare", base, cur)
    check("both metrics listed", code == 1 and "service-ycsb-e" in err
          and "fig18-fwd-100" in err, f"(exit {code}, stderr {err!r})")

    print("[compare missing metric]")
    cur = write(root, "cur_missing.json", snapshot(ycsb_e=9.5, fwd100=None))
    code, out, err = run("compare", base, cur)
    check("missing metric exits 1", code == 1, f"(exit {code})")
    check("verdict says missing", "fig18-fwd-100 missing from the current run"
          in err, f"(stderr {err!r})")

    print("[compare sparse baseline]")
    # A baseline that predates a bench can't gate it: skip, don't fail.
    sparse = write(root, "base_sparse.json", snapshot(ycsb_e=10.0, fwd100=None))
    cur = write(root, "cur_sparse.json", snapshot(ycsb_e=9.5, fwd100=2.0))
    code, out, err = run("compare", sparse, cur)
    check("baseline gap is skipped", code == 0
          and "fig18-fwd-100: baseline has no value" in out,
          f"(exit {code}, out {out!r}, err {err!r})")

    print("[compare fig09 read metric]")
    # The 1-thread Get number gates like the scan metrics: exact cell value
    # (not a mean), Wormhole row, "1T" column.
    base3 = write(root, "base_read.json",
                  snapshot(ycsb_e=10.0, fwd100=2.0, read1t=3.0))
    cur = write(root, "cur_read_ok.json",
                snapshot(ycsb_e=10.0, fwd100=2.0, read1t=2.9))
    code, out, err = run("compare", base3, cur)
    check("read metric within threshold exits 0", code == 0
          and "fig09-read-1t: current 2.9000 vs baseline 3.0000" in out,
          f"(exit {code}, out {out!r}, err {err!r})")
    cur = write(root, "cur_read_bad.json",
                snapshot(ycsb_e=10.0, fwd100=2.0, read1t=1.5))
    code, out, err = run("compare", base3, cur)
    check("read regression exits 1", code == 1
          and "fig09-read-1t" in err and "dropped 50.0%" in err,
          f"(exit {code}, stderr {err!r})")

    print("[compare fig18 short16 metric]")
    # Single Az1 cell of the Wormhole row in the "short scan 16" section —
    # NOT a row mean, so a healthy Az1 passes even with a sagging Az2 decoy.
    base4 = write(root, "base_s16.json",
                  snapshot(ycsb_e=10.0, fwd100=2.0, short16=4.0))
    cur = write(root, "cur_s16_ok.json",
                snapshot(ycsb_e=10.0, fwd100=2.0, short16=3.9))
    code, out, err = run("compare", base4, cur)
    check("short16 within threshold exits 0", code == 0
          and "fig18-short16: current 3.9000 vs baseline 4.0000" in out,
          f"(exit {code}, out {out!r}, err {err!r})")
    cur = write(root, "cur_s16_bad.json",
                snapshot(ycsb_e=10.0, fwd100=2.0, short16=2.0))
    code, out, err = run("compare", base4, cur)
    check("short16 regression exits 1", code == 1
          and "fig18-short16" in err and "dropped 50.0%" in err,
          f"(exit {code}, stderr {err!r})")
    # fwd-100 present but the short-scan section absent: the per-metric
    # extractors must not cross-match sections within fig18_range.
    cur = write(root, "cur_s16_missing.json",
                snapshot(ycsb_e=10.0, fwd100=2.0, short16=None))
    code, out, err = run("compare", base4, cur)
    check("short16 missing while fwd100 present exits 1", code == 1
          and "fig18-short16 missing from the current run" in err
          and "fig18-fwd-100" not in err,
          f"(exit {code}, stderr {err!r})")

    print("[compare service ycsb-c metric]")
    # Mean of the WAL-off YCSB-C column (the batched Get path), never the
    # durable section's column, whichever section comes first.
    base5 = write(root, "base_c.json",
                  snapshot(ycsb_e=10.0, fwd100=2.0, ycsb_c=8.0))
    cur = write(root, "cur_c_ok.json",
                snapshot(ycsb_e=10.0, fwd100=2.0, ycsb_c=7.8))
    code, out, err = run("compare", base5, cur)
    check("ycsb-c within threshold exits 0", code == 0
          and "service-ycsb-c: current 7.8000 vs baseline 8.0000" in out,
          f"(exit {code}, out {out!r}, err {err!r})")
    cur = write(root, "cur_c_bad.json",
                snapshot(ycsb_e=10.0, fwd100=2.0, ycsb_c=4.0))
    code, out, err = run("compare", base5, cur)
    check("ycsb-c regression exits 1", code == 1
          and "service-ycsb-c dropped 50.0%" in err
          and "service-ycsb-e" not in err,
          f"(exit {code}, stderr {err!r})")
    cur = write(root, "cur_c_durable.json",
                snapshot(ycsb_e=10.0, fwd100=2.0, ycsb_c=8.0,
                         durable_first=True))
    code, out, err = run("compare", base5, cur)
    check("ycsb-c skips the durable section", code == 0
          and "service-ycsb-c: current 8.0000" in out
          and "service-ycsb-e: current 10.0000" in out,
          f"(exit {code}, out {out!r}, err {err!r})")
    cur = write(root, "cur_c_missing.json",
                snapshot(ycsb_e=10.0, fwd100=2.0, no_ycsb_c=True))
    code, out, err = run("compare", base5, cur)
    check("ycsb-c missing exits 1", code == 1
          and "service-ycsb-c missing from the current run" in err
          and "service-ycsb-e" not in err,
          f"(exit {code}, stderr {err!r})")

    print("[compare best-of-N samples]")
    # Several current snapshots gate each metric on its BEST sample: a
    # noisy-low run is forgiven if any sample clears the floor, and the
    # metrics may peak in different samples.
    lo1 = write(root, "cur_bo_lo1.json", snapshot(ycsb_e=5.0, fwd100=1.9))
    lo2 = write(root, "cur_bo_lo2.json", snapshot(ycsb_e=9.0, fwd100=0.5))
    code, out, err = run("compare", base, lo1, lo2)
    check("per-metric best across samples exits 0", code == 0,
          f"(exit {code}, out {out!r}, err {err!r})")
    check("best sample is reported", "best of 2 samples" in out
          and "service-ycsb-e: current 9.0000" in out
          and "fig18-fwd-100: current 1.9000" in out,
          f"(out {out!r})")
    # All samples below the floor still fails.
    code, out, err = run("compare", base, lo1,
                         write(root, "cur_bo_lo3.json",
                               snapshot(ycsb_e=5.5, fwd100=1.9)))
    check("all samples low exits 1", code == 1
          and "service-ycsb-e" in err, f"(exit {code}, stderr {err!r})")
    # A metric missing from one sample gates on the samples that have it;
    # missing from ALL samples still fails.
    code, out, err = run("compare", base,
                         write(root, "cur_bo_part.json",
                               snapshot(ycsb_e=9.0, fwd100=None)),
                         write(root, "cur_bo_full.json",
                               snapshot(ycsb_e=5.0, fwd100=1.9)))
    check("partial sample coverage exits 0", code == 0,
          f"(exit {code}, out {out!r}, err {err!r})")
    code, out, err = run("compare", base,
                         write(root, "cur_bo_none1.json",
                               snapshot(ycsb_e=9.0, fwd100=None)),
                         write(root, "cur_bo_none2.json",
                               snapshot(ycsb_e=9.0, fwd100=None)))
    check("metric absent from every sample exits 1", code == 1
          and "fig18-fwd-100 missing from the current run" in err,
          f"(exit {code}, stderr {err!r})")

    print("[compare custom threshold]")
    # 10% drop passes the default 0.7 gate but fails --threshold 0.95.
    cur = write(root, "cur_tight.json", snapshot(ycsb_e=9.0, fwd100=2.0))
    code, out, err = run("compare", base, cur, "--threshold", "0.95")
    check("tight threshold catches 10% drop", code == 1
          and "limit 5.0%" in err, f"(exit {code}, stderr {err!r})")

print()
if FAILURES:
    print(f"test_bench_regress: {len(FAILURES)} FAILED: {', '.join(FAILURES)}")
    sys.exit(1)
print("test_bench_regress: all cases passed")
