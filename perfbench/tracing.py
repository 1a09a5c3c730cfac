"""Spans and counters around the public functions of each loctrace layer.

Each wrapper replaces a function under the name its caller looks it up by:
``cocycles``, ``pairing`` and ``dist`` import ``integrate_box``,
``fixed_points``, ``automorphism_order`` and ``lift_idempotent`` by name, so
the wrapper goes into the calling module, not only into the defining one.
A layer's time is self time: the span's duration minus the time covered by
spans of other wrapped calls made inside it.  Spans are summed in memory per
round and reported when the run ends.

``ConvergenceWatch`` is lighter and always on: it counts quadrature results
that report ``converged=False``, which the trace and pairing routes of the
library drop on the way to their callers.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from loctrace import algebra, cocycles, dist, fields, pairing, tensoralg

# (module, attribute) pairs through which the library reaches the quadrature
QUADRATURE_SITES = (
    (cocycles, "integrate_box"),
    (pairing, "integrate_box"),
    (dist, "integrate_box"),
    (dist, "integrate_rect"),
)


class _Patches:
    def __init__(self):
        self._saved = []

    def put(self, owner, name, fn):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, fn)

    def restore(self):
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()


class ConvergenceWatch:
    """Counts unconverged quadrature results while installed."""

    def __init__(self):
        self.unconverged = 0
        self._patches = _Patches()

    def install(self):
        for owner, name in QUADRATURE_SITES:
            self._patches.put(owner, name, self._wrap(getattr(owner, name)))

    def uninstall(self):
        self._patches.restore()

    def _wrap(self, fn):
        def watched(*args, **kwargs):
            res = fn(*args, **kwargs)
            if not res.converged:
                self.unconverged += 1
            return res

        return watched


def _eval_points(args, kwargs, out):
    return {"fields.eval_points": int(np.size(args[1]))}


def _fixed_points_found(args, kwargs, out):
    return {"groupoid.fixed_points_found": len(out)}


def _lift_words(args, kwargs, out):
    return {"tensoralg.lift_words": len(out.terms)}


def _mul_calls(args, kwargs, out):
    return {"algebra.mul_calls": 1}


_DIFFS = ("diff_partial", "diff_partial_bar", "diff_d", "diff_delta", "diff_nabla", "diff_D")

# (owner, attribute, span group, counter)
_SITES = (
    [(fields, "eval_field", "fields.eval", _eval_points),
     (fields, "jet2_at", "fields.jet", None),
     (fields, "plateau_safe", "fields.jet", None),
     (algebra.CrossedForm, "mul", "algebra.mul", _mul_calls),
     (algebra.WordCrossedForm, "mul", "algebra.mul", _mul_calls)]
    + [(algebra, nm, "algebra.diff", None) for nm in _DIFFS]
    + [(cocycles, nm, "algebra.diff", None) for nm in ("diff_d", "diff_delta", "diff_nabla")]
    + [(pairing, "diff_nabla", "algebra.diff", None)]
    + [(mod, "fixed_points", "groupoid.fixed_points", _fixed_points_found)
       for mod in (cocycles, pairing)]
    + [(mod, "automorphism_order", "groupoid.automorphism", None)
       for mod in (cocycles, pairing)]
    + [(cocycles, "phi_trace", "cocycles.phi_trace", None),
       (cocycles, "phi_trace_words", "cocycles.phi_trace", None),
       (pairing, "phi_trace_words", "cocycles.phi_trace", None),
       (cocycles, "integrate_units", "cocycles.integrate_units", None),
       (cocycles, "integrate_units_words", "cocycles.integrate_units", None),
       (pairing, "integrate_units", "cocycles.integrate_units", None),
       (pairing, "integrate_units_words", "cocycles.integrate_units", None),
       (tensoralg, "lift_idempotent", "tensoralg.lift", _lift_words),
       (pairing, "lift_idempotent", "tensoralg.lift", _lift_words),
       (tensoralg, "crossed_max_abs", "tensoralg.max_abs", None),
       (pairing, "pair_even", "pairing.pair_even", None),
       (pairing, "anomaly_delta0", "pairing.anomaly", None),
       (pairing, "anomaly_delta1", "pairing.anomaly", None),
       (dist, "pair_kernel", "dist.pair_kernel", None),
       (dist, "check_dolbeault", "dist.pair_kernel", None),
       (dist, "check_covariance", "dist.pair_kernel", None)]
)

# reported per-layer metrics: name -> unit; times are self seconds per round
PER_LAYER = {
    "fields.eval_s": "s",
    "fields.eval_points": "count",
    "fields.eval_ns_per_point": "ns",
    "fields.jet_s": "s",
    "quadrature.calls": "count",
    "quadrature.cells": "count",
    "quadrature.points": "count",
    "quadrature.self_s": "s",
    "quadrature.unconverged": "count",
    "algebra.mul_s": "s",
    "algebra.mul_calls": "count",
    "algebra.diff_s": "s",
    "groupoid.fixed_points_s": "s",
    "groupoid.fixed_points_found": "count",
    "groupoid.automorphism_s": "s",
    "cocycles.phi_trace_s": "s",
    "cocycles.integrate_units_s": "s",
    "tensoralg.lift_s": "s",
    "tensoralg.lift_words": "count",
    "tensoralg.max_abs_s": "s",
    "pairing.pair_even_s": "s",
    "pairing.anomaly_s": "s",
    "dist.pair_kernel_s": "s",
    "bench.trace_overhead_s": "s",
}


class Tracer:
    """Self time per span group and counters, summed until ``take()``."""

    def __init__(self):
        self._patches = _Patches()
        self._stack = []
        self._self = defaultdict(float)
        self._counts = defaultdict(int)

    def install(self):
        for owner, name, group, counter in _SITES:
            self._patches.put(owner, name, self._span(getattr(owner, name), group, counter))
        for owner, name in QUADRATURE_SITES:
            self._patches.put(owner, name, self._quadrature(getattr(owner, name)))

    def uninstall(self):
        self._patches.restore()

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, group, t0):
        dur = time.perf_counter() - t0
        inner = self._stack.pop()
        self._self[group] += dur - inner
        if self._stack:
            self._stack[-1] += dur

    def _span(self, fn, group, counter):
        def traced(*args, **kwargs):
            t0 = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._leave(group, t0)
            if counter is not None:
                for key, n in counter(args, kwargs, out).items():
                    self._counts[key] += n
            return out

        return traced

    def _quadrature(self, fn):
        counts = self._counts

        def traced(f, rect, *args, **kwargs):
            def counted(*xs):
                counts["quadrature.points"] += int(np.size(xs[0]))
                return f(*xs)

            t0 = self._enter()
            try:
                res = fn(counted, rect, *args, **kwargs)
            finally:
                self._leave("quadrature", t0)
            counts["quadrature.calls"] += 1
            counts["quadrature.cells"] += int(getattr(res, "cells", 0))
            counts["quadrature.unconverged"] += int(not res.converged)
            return res

        return traced

    def take(self):
        """Per-layer metrics of the calls since the last take, and reset."""
        s, c = self._self, self._counts
        out = {
            "fields.eval_s": s["fields.eval"],
            "fields.eval_points": c["fields.eval_points"],
            "fields.eval_ns_per_point": (
                1e9 * s["fields.eval"] / c["fields.eval_points"]
                if c["fields.eval_points"] else 0.0
            ),
            "fields.jet_s": s["fields.jet"],
            "quadrature.self_s": s["quadrature"],
        }
        for key in ("quadrature.calls", "quadrature.cells", "quadrature.points",
                    "quadrature.unconverged", "algebra.mul_calls",
                    "groupoid.fixed_points_found", "tensoralg.lift_words"):
            out[key] = c[key]
        for group in ("algebra.mul", "algebra.diff", "groupoid.fixed_points",
                      "groupoid.automorphism", "cocycles.phi_trace",
                      "cocycles.integrate_units", "tensoralg.lift",
                      "tensoralg.max_abs", "pairing.pair_even", "pairing.anomaly",
                      "dist.pair_kernel"):
            out[group + "_s"] = s[group]
        self._self = defaultdict(float)
        self._counts = defaultdict(int)
        return out
