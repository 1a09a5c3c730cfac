"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--out FILE]

For every workload of ``BENCHMARK.json``, set A runs seeds 1..10 and set B
seeds 11..20, one ``run.py`` process at a time, each with ``run_seconds``
from ``BENCHMARK.json``.  For every end-to-end metric it reports each set's
median and quartiles (``statistics.quantiles(n=4)``), the spread
``(q3 - q1) / median`` against the metric's bound, and how far set B's median
moved from set A's.  It then runs one traced run per set on the same seed
and confirms that every per-layer count is identical.  Exit status 1 when a
spread or a median move (either way) exceeds the bound, a count differs, an
operation failed or a run was not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEEDS = 10  # runs per set and workload


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True,
                         timeout=600).stdout.decode()
    res = json.loads(out.strip().splitlines()[-1])
    print(f"  {workload} seed={seed} trace={trace}: "
          + ", ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()
                      if not trace or m["unit"] != "count")
          + f"  ({res['attempted']} attempted, {res['failed']} failed, "
          + f"correct={res['correct']})", flush=True)
    return res


def environment():
    """numpy version, active SIMD features, core count and load average."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_dispatch_active": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="also write the report as JSON to this file")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = {"A": range(1, SEEDS + 1), "B": range(SEEDS + 1, 2 * SEEDS + 1)}

    report = {"run_seconds": seconds, "environment": environment(), "workloads": {}}
    print(f"environment: {report['environment']}", flush=True)
    ok = True
    for wl in names:
        runs = {}
        for tag, seeds in sets.items():
            print(f"{wl}: set {tag}, seeds {seeds.start}..{seeds.stop - 1}", flush=True)
            runs[tag] = [one_run(wl, s, seconds, 0) for s in seeds]
        entry = {"metrics": {}}
        print(f"{wl}:")
        for metric, bound in bounds.items():
            row = {"bound": bound}
            for tag in sets:
                q1, med, q3 = quartiles([r["metrics"][metric]["value"] for r in runs[tag]])
                row[tag] = {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med}
            row["median_move"] = row["B"]["median"] / row["A"]["median"] - 1.0
            row["ok"] = (all(row[t]["spread"] <= bound for t in sets)
                         and abs(row["median_move"]) <= bound)
            row["steady"] = all(row[t]["spread"] <= bound / 3 for t in sets)
            ok &= row["ok"]
            entry["metrics"][metric] = row
            print(f"  {metric:12s} bound {bound:<5g} "
                  + "  ".join(f"{t}: median {row[t]['median']:.5g} "
                              f"[{row[t]['q1']:.5g}, {row[t]['q3']:.5g}] "
                              f"spread {row[t]['spread']:.3f}" for t in sets)
                  + f"  move {row['median_move']:+.3f}"
                  + ("" if row["ok"] else "  OUT OF BOUND")
                  + ("  (steady)" if row["steady"] else ""))
        shares = {t: sum(r["failed"] for r in runs[t]) / sum(r["attempted"] for r in runs[t])
                  for t in sets}
        entry["failed_share"] = shares
        entry["correct"] = all(r["correct"] for t in sets for r in runs[t])
        ok &= shares["A"] == shares["B"] == 0 and entry["correct"]
        print(f"  failed share A {shares['A']:.6g}, B {shares['B']:.6g}; "
              f"all correct: {entry['correct']}")

        traced = [one_run(wl, 1, seconds, 1) for _ in sets]
        counts = [{k: m["value"] for k, m in t["metrics"].items() if m["unit"] == "count"}
                  for t in traced]
        entry["counts"] = counts[0]
        entry["counts_identical"] = counts[0] == counts[1]
        ok &= entry["counts_identical"]
        print(f"  per-layer counts identical between sets: {entry['counts_identical']}")
        report["workloads"][wl] = entry

    report["loadavg_after"] = os.getloadavg()
    report["ok"] = ok
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    print("steady: " + ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
