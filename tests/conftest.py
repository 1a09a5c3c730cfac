"""Shared builders for the test suite.

Everything here constructs package objects; the independent oracles the
tests compare against live in the test modules themselves.
"""

import numpy as np
import pytest

from loctrace import fields as F
from loctrace import groupoid as G
from loctrace.algebra import CrossedForm, FormCoefficient
from loctrace.pairing import bott_projector  # noqa: F401  (shared with the CLI)


def rand_poly(rng, scale=1.0):
    """Low-degree polynomial in z, zbar with random complex coefficients."""
    cs = (rng.normal(size=5) + 1j * rng.normal(size=5)) * scale
    return F.fadd(
        F.fconst(cs[0]),
        F.fscale(F.fz(), cs[1]),
        F.fscale(F.fzbar(), cs[2]),
        F.fscale(F.fmul(F.fz(), F.fz()), cs[3]),
        F.fscale(F.fmul(F.fz(), F.fzbar()), cs[4]),
    )


def rand_coeff(rng, center=0.0, r_pl=0.25, r_sup=0.45):
    """Random smooth compactly supported field, flat near the center."""
    return F.bumped(rand_poly(rng), center, r_pl, r_sup)


def rand_form(rng, degrees=((0, 0),), center=0.0, r_pl=0.25, r_sup=0.45):
    comps = {}
    for pq in degrees:
        comps[tuple(pq)] = rand_coeff(rng, center, r_pl, r_sup)
    return FormCoefficient(comps)


def dilation_action(lam, radius=0.75):
    return G.MatrixMobiusAction([("a", [[lam, 0.0], [0.0, 1.0]])], F.Disk(0.0, radius))


def std_mobius_action(radius=0.5):
    return G.MatrixMobiusAction(
        [("a", [[2.0, 0.0], [0.0, 1.0]]), ("b", [[1.0, 0.0], [1.0, 1.0]])],
        F.Disk(0.0, radius),
    )


def kappa_action(radius=0.5):
    # parabolic pair; v.c.c is the identity germ, so products of these
    # labels can land on the unit while every factor has c != 0
    return G.MatrixMobiusAction(
        [("c", [[1.0, 0.0], [0.4, 1.0]]), ("v", [[1.0, 0.0], [-0.8, 1.0]])],
        F.Disk(0.0, radius),
    )


def rand_crossed(rng, action, names, size=1, degrees=((0, 0),)):
    """Random crossed element supported on the given label names."""
    x = CrossedForm(action, size)
    for nm in names:
        lab = action.unit if nm in ("1", "unit") else action.by_name(nm)
        mat = [
            [rand_form(rng, degrees) for _ in range(size)]
            for _ in range(size)
        ]
        x = x.add(CrossedForm.single(action, lab, mat, size=size))
    return x


def eval_at(f, z):
    return F.eval_field(f, z)


@pytest.fixture
def batches_never_interpreted(monkeypatch):
    """Fail any batch of points that reaches the interpreter, as a
    quadrature integrand's blocks would were it not taped from its first."""
    jet_batch = F._jet_batch

    def guarded(expr, z, *args, **kwargs):
        assert not np.ndim(z), "a batch of points went to the interpreter"
        return jet_batch(expr, z, *args, **kwargs)

    monkeypatch.setattr(F, "_jet_batch", guarded)


def grid_points(rng, n, radius=0.35):
    """Random sample points well inside the standard supports."""
    r = radius * np.sqrt(rng.uniform(0, 1, size=n))
    th = rng.uniform(0, 2 * np.pi, size=n)
    return r * np.exp(1j * th)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per numbered acceptance criterion."""
    rows = {}
    for outcome, status in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "::test_criterion_" not in nodeid:
                continue
            name = nodeid.split("::test_criterion_", 1)[1]
            if status == "FAIL" or name not in rows:
                rows[name] = status
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(rows):
            num, _, rest = name.partition("_")
            label = rest.replace("_", " ")
            terminalreporter.write_line(
                f"criterion {num} {rows[name]}  ({label})"
            )
