"""Alternating end-to-end benchmark runs of two checkouts of this repository.

    python3 scripts/paired_runs.py PARENT CHANGE --pairs N --seed S --out FILE

Runs ``perfbench/run.py --workload all`` N times in each checkout, for the
``run_seconds`` of CHANGE's ``BENCHMARK.json``, at seeds S, S+1, ...,
S+N-1, one seed per pair.  Within a pair both checkouts run the same seed;
the first pair starts with PARENT, and the side that goes first flips with
every pair, so that a drift of the machine's speed falls on both alike.
Each run uses the checkout's own ``perfbench/`` and ``src/``; no bytecode
or other file is written into either checkout.

For each workload and each end-to-end metric that CHANGE's
``BENCHMARK.json`` names, it prints each side's median and quartiles
(``statistics.quantiles(n=4)``), the pairs the change won (ties count for
neither) and whether that is a gain: at least nine tenths of the pairs won,
and the medians apart by more than the parent's interquartile range.  It
writes the same, with every run and the ``failed``, ``attempted`` and
``correct`` fields, as JSON to FILE.  Exits 1 if a run failed an operation
or was not correct, else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_all(checkout, seed, seconds):
    """The per-workload results of one ``run.py --workload all`` run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "all",
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, env=env, stdout=subprocess.PIPE, check=True, timeout=3600,
    ).stdout
    return json.loads(out.decode().strip().splitlines()[-1])


def summary(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(parent, change, better):
    """The change's wins over the paired runs, and whether they make a gain."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0 for p, c in zip(parent["runs"], change["runs"]))
    gap = sign * (parent["median"] - change["median"])
    gain = won >= 0.9 * len(parent["runs"]) and gap > parent["q3"] - parent["q1"]
    return {"change_won": won, "gain": gain}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="write the runs here as JSON")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    roots = dict(zip(SIDES, (os.path.abspath(args.parent), os.path.abspath(args.change))))
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    seeds = [args.seed + i for i in range(args.pairs)]
    first = [SIDES[i % 2] for i in range(args.pairs)]
    results = {side: [] for side in SIDES}
    for seed, lead in zip(seeds, first):
        for side in (lead, SIDES[1 - SIDES.index(lead)]):
            results[side].append(run_all(roots[side], seed, bench["run_seconds"]))
            walls = ", ".join(f"{wl} {res['metrics']['wall_s']['value']:.4f}"
                              for wl, res in results[side][-1].items())
            print(f"# seed {seed} {side}: wall_s {walls}", flush=True)

    report, ok = {}, True
    for wl in results["parent"][0]:
        row = {"seeds": seeds, "pairs": args.pairs, "first": first}
        for field in ("failed", "attempted"):
            row[field] = {side: [r[wl][field] for r in results[side]] for side in SIDES}
        row["correct"] = all(r[wl]["correct"] for side in SIDES for r in results[side])
        ok = ok and row["correct"] and not any(sum(row["failed"][s]) for s in SIDES)
        for name, better in metrics.items():
            sides = {side: summary([r[wl]["metrics"][name]["value"] for r in results[side]])
                     for side in SIDES}
            row[name] = dict(sides, **compare(sides["parent"], sides["change"], better))
            p, c = sides["parent"], sides["change"]
            print(f"{wl:8s} {name:12s} parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}]"
                  f"  change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}]"
                  f"  won {row[name]['change_won']}/{args.pairs}"
                  f"  gain {row[name]['gain']}")
        print(f"{wl:8s} failed parent {sum(row['failed']['parent'])} "
              f"change {sum(row['failed']['change'])}, correct {row['correct']}")
        report[wl] = row
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
