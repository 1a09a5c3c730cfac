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
(``ru_maxrss``) after the warm-up, after round N/2 and at the end (a peak
that still rises after round N/2 grows with the number of rounds run), the
size of its compiled tapes' arena after the warm-up and at the end
(``loctrace.fields._ARENA.buf.nbytes``) and the number of row view sets the
arena caches then (``len(fields._ARENA.views)``), the rows of the widest
tape in the tape cache (``fields._TAPES``) at the end and how many of its
tapes run in blocks below ``fields._TAPE_BLOCK``, and the seconds the
warm-up round spent recording tapes (in ``fields._Tape.__init__``), the
tape cache's footprint at the end (the bytes of its keys, of its tapes'
``code`` and of the table ``fields._CODE`` that shares equal instructions,
by deep ``sys.getsizeof`` with each object counted once and the small ints
every process shares left out) and the number of distinct instruction
tuples its tapes hold, each ``n/a`` for a checkout without it, whether the
child has imported ``numpy.polynomial`` by the end, how many objects
``gc.collect()`` frees in the child after its last round (garbage that only
the cyclic collector reclaims), and the failed operations.
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
import gc, importlib.util, json, os, resource, sys, time, types
from functools import partial
root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
def deep(v, seen):
    # v's bytes with the containers, strings, numbers and partials it holds
    if (id(v) in seen or not isinstance(v, (tuple, list, dict, bytes, str, int, float, complex, partial))
            or type(v) is int and -5 <= v <= 256):
        return 0
    seen.add(id(v))
    held = ([*v.keys(), *v.values()] if isinstance(v, dict) else v.args if isinstance(v, partial)
            else v if isinstance(v, (tuple, list)) else ())
    return sys.getsizeof(v) + sum(deep(x, seen) for x in held)
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
recording = None
if hasattr(fields, "_Tape"):  # time each tape's recording
    recording, record = [0.0], fields._Tape.__init__
    def timed(self, *args):
        t0 = time.perf_counter()
        record(self, *args)
        recording[0] += time.perf_counter() - t0
    fields._Tape.__init__ = timed
for _ in sys.stdin:
    ops = build(seed)
    if recording is not None:
        recording[0] = 0.0
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    wall, outcomes = run.run_round(ops, watch)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    failed = [f"{name}: {why}" for name, _, why in outcomes if why is not None]
    arena = getattr(fields, "_ARENA", None)
    buf, views = getattr(arena, "buf", None), getattr(arena, "views", None)
    tapes, whole = getattr(fields, "_TAPES", None), getattr(fields, "_TAPE_BLOCK", None)
    try:
        widest = max((t.nrows for t in tapes.values()), default=0)
        split = sum(t.block < whole for t in tapes.values())
    except (AttributeError, TypeError):
        widest = split = None
    print(json.dumps({"wall": wall, "minflt": usage.ru_minflt - f0,
                      "maxrss_kb": usage.ru_maxrss, "failed": failed,
                      "arena_bytes": None if buf is None else buf.nbytes,
                      "view_sets": None if views is None else len(views),
                      "widest": widest, "split": split,
                      "record_s": None if recording is None else recording[0],
                      "polynomial": "numpy.polynomial" in sys.modules}), flush=True)
garbage = gc.collect()
# after the last round, so that the walk's own memory is in no round's peak
tapes, seen, table = getattr(fields, "_TAPES", None), set(), getattr(fields, "_CODE", None)
try:
    cache = {"keys": sum(deep(k, seen) for k in tapes),
             "code": sum(deep(t.code, seen) for t in tapes.values()),
             "table": None if table is None else deep(table, seen),
             "tuples": len({id(i) for t in tapes.values() for i in t.code})}
except (AttributeError, TypeError):
    cache = None
print(json.dumps({"garbage": garbage, "cache": cache}), flush=True)
"""


def _mib(nbytes):
    return "n/a" if nbytes is None else f"{nbytes / 2**20:.2f} MiB"


def _or_na(value):
    return "n/a" if value is None else str(value)


def _kb(nbytes):
    return "n/a" if nbytes is None else f"{nbytes / 1000:.1f} KB"


def _cache(got):
    """The tape cache's footprint as the child measured it."""
    got = got or dict.fromkeys(("keys", "code", "table", "tuples"))
    return (f"tape cache keys {_kb(got['keys'])}, code {_kb(got['code'])}, "
            f"shared table {_kb(got['table'])}, "
            f"{_or_na(got['tuples'])} distinct instruction tuples")


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
        """Ends the child; the objects its last gc.collect() freed and its
        tape cache's footprint, each None if it did not report them."""
        self.proc.stdin.close()
        line = self.proc.stdout.readline()
        self.proc.wait()
        return json.loads(line) if line else {"garbage": None, "cache": None}


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
    warm, last = {}, {}
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
            last[name] = kid.close()
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
        rss = " -> ".join(f"{r['maxrss_kb'] / 1024:.2f}"
                          for r in (warm[k], v[max(n // 2 - 1, 0)], v[-1]))
        arena = " -> ".join(_mib(r["arena_bytes"]) for r in (warm[k], v[-1]))
        views = " -> ".join(_or_na(r["view_sets"]) for r in (warm[k], v[-1]))
        poly = "yes" if v[-1]["polynomial"] else "no"
        widest, split = (_or_na(v[-1].get(key)) for key in ("widest", "split"))
        record = warm[k].get("record_s")
        record = "n/a" if record is None else f"{record:.3f} s"
        print(f"{k}: median minor faults per round {faults:.0f}; "
              f"peak RSS after warm-up -> round {max(n // 2, 1)} -> at end {rss} MB "
              f"(tape arena {arena}, "
              f"{views} view sets); widest cached tape {widest} rows, "
              f"{split} of them in blocks below _TAPE_BLOCK, warm-up recording {record}; "
              f"{_cache(last[k]['cache'])}; "
              f"numpy.polynomial imported: {poly}; "
              f"gc.collect() after the last round frees {last[k]['garbage']} objects; "
              f"failed ops {len(failed)}")
        for f in failed:
            print(f"  {f}")
    return 1 if any(r["failed"] for v in got.values() for r in v) else 0


if __name__ == "__main__":
    sys.exit(main())
