"""Interleaved benchmark rounds of two checkouts of this repository.

    python3 scripts/ab_rounds.py PARENT CHANGE WORKLOAD N [SEED]

Starts one long-lived child process per checkout.  Each child loads that
checkout's ``perfbench/run.py`` by path, which fixes glibc's malloc
thresholds and the BLAS thread count, imports the checkout's ``src/`` with
it, and loads the checkout's ``perfbench/workloads.py`` by path; nothing is
written to either checkout.  One warm-up round runs in each child, and then
N rounds in each, alternately, with the order flipped every round, so that
a drift of the machine's speed falls on both alike.  A round builds the
workload's inputs at SEED (default 1, ``run.py``'s) untimed and times the
calls as ``run.py`` does.

Prints every round, then the median seconds per round of each checkout,
their ratio (change / parent), the median and the interquartile range of
the per-round ratios (an A/A run, a checkout against a copy of itself,
shows how wide that range is by chance), the rounds the change was faster
in, the median minor page faults per round, each child's peak resident memory
(``ru_maxrss``) after the warm-up and at the end, next to the size of its
compiled tapes' arena then (``loctrace.fields._ARENA.buf.nbytes``) and the
number of row view sets the arena caches (``len(fields._ARENA.views)``),
each ``n/a`` for a checkout without it, whether the child has imported
``numpy.polynomial`` by the end, how many objects ``gc.collect()`` frees
in the child after its last round (garbage that only the cyclic collector
reclaims), and the failed operations.
Exits 1 if an operation failed, else 0.  Standard library only.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

# argv: the checkout, the workload, the seed; one round per line on stdin
CHILD = """
import gc, importlib.util, json, os, resource, sys, types
root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
def load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(root, "perfbench", name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod
run = load("run")
run.import_loctrace()
from loctrace import fields
build = load("workloads").WORKLOADS[workload]
watch = types.SimpleNamespace(unconverged=0)
for _ in sys.stdin:
    ops = build(seed)
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    wall, outcomes = run.run_round(ops, watch)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    failed = [f"{name}: {why}" for name, _, why in outcomes if why is not None]
    arena = getattr(fields, "_ARENA", None)
    buf, views = getattr(arena, "buf", None), getattr(arena, "views", None)
    print(json.dumps({"wall": wall, "minflt": usage.ru_minflt - f0,
                      "maxrss_kb": usage.ru_maxrss, "failed": failed,
                      "arena_bytes": None if buf is None else buf.nbytes,
                      "view_sets": None if views is None else len(views),
                      "polynomial": "numpy.polynomial" in sys.modules}), flush=True)
print(json.dumps({"garbage": gc.collect()}), flush=True)
"""


def _mib(nbytes):
    return "n/a" if nbytes is None else f"{nbytes / 2**20:.2f} MiB"


class Child:
    def __init__(self, checkout, workload, seed):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, checkout, workload, str(seed)],
            cwd=checkout, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        )

    def round(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"child exited with status {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        """Ends the child; the objects its last gc.collect() freed, or None."""
        self.proc.stdin.close()
        line = self.proc.stdout.readline()
        self.proc.wait()
        return json.loads(line)["garbage"] if line else None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (4, 5):
        sys.stderr.write(__doc__)
        return 2
    parent, change = (os.path.abspath(p) for p in argv[:2])
    workload, n = argv[2], int(argv[3])
    seed = int(argv[4]) if len(argv) == 5 else 1
    kids = {"parent": Child(parent, workload, seed), "change": Child(change, workload, seed)}
    got = {"parent": [], "change": []}
    warm, garbage = {}, {}
    try:
        for name, kid in kids.items():
            warm[name] = kid.round()  # warm-up
        for i in range(n):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in order:
                got[name].append(kids[name].round())
            a, b = got["parent"][-1]["wall"], got["change"][-1]["wall"]
            print(f"round {i + 1:3d} ({order[0]} first): parent {a:.3f} s  change {b:.3f} s")
    finally:
        for name, kid in kids.items():
            garbage[name] = kid.close()
    med = {k: statistics.median(r["wall"] for r in v) for k, v in got.items()}
    wins = sum(c["wall"] < p["wall"] for p, c in zip(got["parent"], got["change"]))
    ratios = [c["wall"] / p["wall"] for p, c in zip(got["parent"], got["change"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4) if n > 1 else (ratios[0],) * 3
    print(f"{workload} seed {seed}, {n} rounds each")
    print(f"median wall: parent {med['parent']:.3f} s, change {med['change']:.3f} s, "
          f"ratio {med['change'] / med['parent']:.3f}; per-round ratios: median "
          f"{statistics.median(ratios):.3f}, IQR {q3 - q1:.3f}; change faster in {wins} of {n}")
    for k, v in got.items():
        faults = statistics.median(r["minflt"] for r in v)
        failed = sorted({f for r in v for f in r["failed"]})
        rss = f"{warm[k]['maxrss_kb'] / 1024:.2f} -> {v[-1]['maxrss_kb'] / 1024:.2f} MB"
        arena = " -> ".join(_mib(r["arena_bytes"]) for r in (warm[k], v[-1]))
        views = " -> ".join("n/a" if r["view_sets"] is None else str(r["view_sets"])
                            for r in (warm[k], v[-1]))
        poly = "yes" if v[-1]["polynomial"] else "no"
        print(f"{k}: median minor faults per round {faults:.0f}; "
              f"peak RSS after warm-up -> at end {rss} (tape arena {arena}, "
              f"{views} view sets); numpy.polynomial imported: {poly}; "
              f"gc.collect() after the last round frees {garbage[k]} objects; "
              f"failed ops {len(failed)}")
        for f in failed:
            print(f"  {f}")
    return 1 if any(r["failed"] for v in got.values() for r in v) else 0


if __name__ == "__main__":
    sys.exit(main())
