"""Benchmark of the loctrace library: one workload per process.

    python3 perfbench/run.py --workload cocycle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  The workload's operations (``workloads.py``)
run in whole rounds until the next round would end after ``--seconds``; at
least one round always runs.  Every round builds its inputs afresh from the
seed, untimed, so each round does the same work from scratch.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics:

* ``wall_s``: median over rounds of the time spent inside the round's calls
  into loctrace; the checks' own reference computations are not timed;
* ``setup_s``: median over ``SETUP_SAMPLES`` fresh processes of the time from
  process start to the end of ``import loctrace`` and input building, i.e.
  to the point where the first timed call would begin.  The samples are
  taken between rounds, spread evenly over the run, so that a drift of the
  machine's speed during the run is averaged out as it is for ``wall_s``;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` rounds alternate untraced and traced (``tracing.py``),
and the JSON carries the per-layer metrics, medians over the traced rounds,
plus ``bench.trace_overhead_s``: the median traced round minus the median
untraced one.

An operation fails when it raises, when any quadrature inside it reports
``converged=False``, or when its check rejects its output.  ``correct`` is
false when an operation that did not fail gave different numbers in two
rounds, or, traced, when a per-layer count changed between rounds.
"""

from __future__ import annotations

import ctypes
import os

# one BLAS thread: numpy's OpenBLAS would otherwise start a pool per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def fix_malloc_thresholds():
    """Turn off glibc's adaptive mmap and trim thresholds.

    glibc raises both thresholds as a process frees large blocks, so the
    page faults of one round depend on the process's allocation history: the
    same ``cocycle`` round took 2.1 M to 3.9 M faults (10 s to 16 s) with
    nothing changed but the size of the environment.  Fixed at glibc's
    initial 128 KiB, every temporary above that size is fresh memory in every
    round, and the fault count follows the program's allocations alone."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return  # not glibc
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_trim_threshold, 128 * 1024)
    mallopt(m_mmap_threshold, 128 * 1024)


fix_malloc_thresholds()

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 15
WORKLOADS = ("cocycle", "trace", "pairing")


def import_loctrace():
    """Import loctrace from this checkout's ``src``; exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "loctrace", "__init__.py")):
        sys.stderr.write(f"run.py: no loctrace package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import loctrace

    if os.path.dirname(os.path.dirname(os.path.abspath(loctrace.__file__))) != SRC:
        sys.stderr.write(f"run.py: loctrace came from {loctrace.__file__}, not {SRC}\n")
        sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or 'all' for each in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, print the monotonic clock, exit")
    return ap.parse_args(argv)


class SetupSampler:
    """Setup times of fresh processes, measured on the monotonic clock that
    parent and child share.  Sample ``i`` is due once the rounds have run for
    ``i / SETUP_SAMPLES`` of ``seconds``."""

    def __init__(self, workload, seed, seconds):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
                    "--workload", workload, "--seed", str(seed)]
        self.seconds = seconds
        self.samples = []

    def sample(self):
        t0 = time.monotonic()
        out = subprocess.run(self.cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             check=True, timeout=120).stdout
        self.samples.append(float(out.decode().split()[-1]) - t0)

    def take_due(self, rounds_elapsed):
        while len(self.samples) < min(SETUP_SAMPLES,
                                      1 + SETUP_SAMPLES * rounds_elapsed / self.seconds):
            self.sample()

    def median(self):
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


def run_round(ops, watch):
    """Run every op once; returns (seconds in calls, per-op outcomes)."""
    wall = 0.0
    outcomes = []
    for op in ops:
        before = watch.unconverged
        t0 = time.perf_counter()
        try:
            values = op.call()
        except Exception as exc:
            wall += time.perf_counter() - t0
            outcomes.append((op.name, None, f"{type(exc).__name__}: {exc}"))
            continue
        wall += time.perf_counter() - t0
        if watch.unconverged != before:
            why = f"{watch.unconverged - before} quadrature result(s) not converged"
        else:
            why = op.check(values)
        outcomes.append((op.name, values, why))
    return wall, outcomes


def run_phase(build, seed, seconds, watch, tracer=None, sampler=None):
    """Whole rounds until the next one would overrun ``seconds``.

    A sampler takes its due setup samples before each round; the time they
    take does not count towards ``seconds``.

    With a tracer, rounds alternate untraced and traced, in pairs, so that a
    drift of the machine's speed during the run falls on both alike.
    Returns the untraced and traced round times, every round's outcomes and
    the traced rounds' per-layer metrics."""
    walls = {False: [], True: []}
    rounds, layers = [], []
    end = time.monotonic() + seconds
    traced = False
    while True:
        if sampler is not None:
            t0 = time.monotonic()
            sampler.take_due(seconds - (end - t0))
            end += time.monotonic() - t0
        ops = build(seed)
        if traced:
            tracer.take()
            tracer.install()
        try:
            wall, outcomes = run_round(ops, watch)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        rounds.append(outcomes)
        if traced:
            layers.append(tracer.take())
        if tracer is not None:
            traced = not traced
        if traced:
            continue  # finish the pair
        step = statistics.median(walls[False] + walls[True]) * (1 if tracer is None else 2)
        if time.monotonic() + step > end:
            return walls[False], walls[True], rounds, layers


def tally(rounds):
    """(attempted, failed, repeatable): failures go to stderr once per op."""
    attempted = failed = 0
    repeatable = True
    first = {}
    reported = set()
    for outcomes in rounds:
        for name, values, why in outcomes:
            attempted += 1
            if values is None or why is not None:
                failed += 1
                if name not in reported:
                    reported.add(name)
                    sys.stderr.write(f"FAILED {name}: {why}\n")
                continue
            if first.setdefault(name, values) != values:
                repeatable = False
                sys.stderr.write(f"NOT REPEATABLE {name}: {first[name]} != {values}\n")
    return attempted, failed, repeatable


def run_all(args):
    """Each workload in its own process; one summary line each, and a JSON
    object keyed by workload last."""
    results = {}
    for wl in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", wl,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=900,
        ).stdout
        res = results[wl] = json.loads(out.decode().strip().splitlines()[-1])
        print(f"# {wl}: {res['attempted']} attempted, {res['failed']} failed, "
              f"correct={res['correct']}; "
              + ", ".join(f"{k} = {m['value']:.6g} {m['unit']}"
                          for k, m in res["metrics"].items()))
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_loctrace()
    sys.path.insert(0, HERE)
    import workloads

    build = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        build(args.seed)
        print(repr(time.monotonic()))
        return 0

    import tracing

    watch = tracing.ConvergenceWatch()
    watch.install()
    metrics = {}
    if args.trace:
        plain, traced, rounds, layers = run_phase(
            build, args.seed, args.seconds, watch, tracing.Tracer()
        )
        counts = [k for k, unit in tracing.PER_LAYER.items() if unit == "count"]
        steady_counts = all(lay[k] == layers[0][k] for lay in layers for k in counts)
        for name, unit in tracing.PER_LAYER.items():
            if name == "bench.trace_overhead_s":
                value = statistics.median(traced) - statistics.median(plain)
            elif unit == "count":
                value = layers[0][name]
            else:
                value = statistics.median(lay[name] for lay in layers)
            metrics[name] = {"value": value, "unit": unit}
    else:
        steady_counts = True
        sampler = SetupSampler(args.workload, args.seed, args.seconds)
        walls, _, rounds, _ = run_phase(build, args.seed, args.seconds, watch, sampler=sampler)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["wall_s"] = {"value": statistics.median(walls), "unit": "s"}
        metrics["setup_s"] = {"value": sampler.median(), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    watch.uninstall()

    attempted, failed, repeatable = tally(rounds)
    per_round = len(rounds[0])
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds x {per_round} ops, "
          f"{attempted} attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": repeatable and steady_counts,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
