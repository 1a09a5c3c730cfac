"""Compare the CLI reports of two checkouts of this repository.

    python3 scripts/compare_reports.py PARENT CHANGE
    python3 scripts/compare_reports.py --ops SEED[,SEED...] PARENT CHANGE

Runs the seven golden fixture commands and ``verify --seed 3`` and
``--seed 7`` with the ``loctrace`` package of each checkout's ``src/``, on
that checkout's fixtures.  The ``timings`` of every report are dropped.
Every field that differs is printed, floats with their absolute and
relative change.  Exits 1 if a field other than a float differs (a changed
string, count, flag, key set or list length), else 0.  Standard library
only.

With ``--ops SEEDS`` it runs instead every operation of the three benchmark
workloads at each of the comma-separated seeds (``--ops 3,5,7,11,61``): each
checkout's ``perfbench/workloads.py`` is loaded by path, with that checkout's
``loctrace``, and nothing is written to the checkout.  Every operation whose
values differ by ``repr`` is printed, then one summary line per seed, and
the exit status is 1 if any operation differs, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

# The one list of golden runs: scripts/regen_goldens.py, scripts/reach.py and
# tests/test_cli.py all read it, so a new fixture needs one edit here.
RUNS = [
    ("trace", "dilation2.json"),
    ("automorphisms", "dilation2.json"),
    ("pair-even", "bott.json"),
    ("pair-odd", "odd.json"),
    ("anomaly", "anomaly.json"),
    ("dist-check", "dist.json"),
    ("todd", "todd.json"),
    ("verify", "--seed=3"),
    ("verify", "--seed=7"),
]


def golden_name(command, arg):
    """File name of a run's golden report under fixtures/golden."""
    if arg.startswith("--seed="):
        return f"{command}-seed{arg.split('=', 1)[1]}.json"
    return f"{os.path.splitext(arg)[0]}.{command}.json"


def report(checkout, command, arg):
    """One CLI report of the checkout, without its timings."""
    if not arg.startswith("--"):
        arg = os.path.join(checkout, "fixtures", arg)
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        proc = subprocess.run(
            [sys.executable, "-m", "loctrace.cli", command, arg, "--out", out],
            env=env, cwd=checkout, stderr=subprocess.PIPE, text=True,
        )
        if not os.path.exists(out):
            return {"exit": proc.returncode, "stderr": proc.stderr.strip()}
        with open(out, encoding="utf-8") as fh:
            got = json.load(fh)
    got.pop("timings", None)
    got["exit"] = proc.returncode
    return got


# run in a fresh interpreter: argv is the workloads file and the seed
OPS_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
out = []
for name, build in workloads.WORKLOADS.items():
    for op in build(int(sys.argv[2])):
        try:
            got = repr(op.call())
        except Exception as exc:
            got = f"raised {type(exc).__name__}: {exc}"
        out.append([name, op.name, got])
print(json.dumps(out))
"""


def op_values(checkout, seed):
    """[workload, op name, repr of its values] for every benchmark operation."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    path = os.path.join(checkout, "perfbench", "workloads.py")
    out = subprocess.run([sys.executable, "-c", OPS_CHILD, path, str(seed)],
                         env=env, cwd=checkout, stdout=subprocess.PIPE, check=True).stdout
    return json.loads(out)


def compare_ops(seed, parent, change):
    a, b = op_values(parent, seed), op_values(change, seed)
    differ = 0
    for x, y in zip(a, b):
        if x != y:
            differ += 1
            print(f"{x[0]} {x[1]}:\n  {x[2]}\n  {y[2]}")
    if len(a) != len(b):
        differ += 1
        print(f"operations: {len(a)} -> {len(b)}")
    print(f"seed {seed}: {len(a)} operations, {differ} differ")
    return 1 if differ else 0


def diffs(a, b, path="$"):
    """(path, old, new) for every field where a and b differ; a changed key
    set or list length is given at the path with " keys" or " length"."""
    if isinstance(a, float) and isinstance(b, float):
        if a != b and not (a != a and b != b):
            yield path, a, b
    elif type(a) is not type(b):
        yield path, a, b
    elif isinstance(a, dict):
        if a.keys() != b.keys():
            yield f"{path} keys", sorted(a), sorted(b)
        for k in sorted(a.keys() & b.keys()):
            yield from diffs(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list):
        if len(a) != len(b):
            yield f"{path} length", len(a), len(b)
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diffs(x, y, f"{path}[{i}]")
    elif a != b:
        yield path, a, b


def is_float(old, new):
    return isinstance(old, float) and isinstance(new, float)


def describe(old, new):
    """old -> new, and for two floats their absolute and relative change."""
    text = f"{old!r} -> {new!r}"
    if is_float(old, new):
        scale = max(abs(old), abs(new))
        rel = abs(old - new) / scale if scale else 0.0
        text += f" (absolute {abs(old - new):.2g}, relative {rel:.3g})"
    return text


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 4 and argv[0] == "--ops":
        parent, change = (os.path.abspath(p) for p in argv[2:])
        return max(compare_ops(int(s), parent, change) for s in argv[1].split(","))
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    parent, change = (os.path.abspath(p) for p in argv)
    hard = 0
    for command, arg in RUNS:
        found = list(diffs(report(parent, command, arg), report(change, command, arg)))
        print(f"{command} {arg}: {'==' if not found else f'{len(found)} field(s) differ'}")
        for path, old, new in found:
            print(f"  {path}: {describe(old, new)}")
            hard += not is_float(old, new)
    return 1 if hard else 0


if __name__ == "__main__":
    sys.exit(main())
