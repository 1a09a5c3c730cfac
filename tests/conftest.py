"""Shared builders for the test suite.

The seeded builders that ``verify`` uses too live in
:mod:`loctrace.scenarios`, and those the tests import are re-exported here;
the builders defined below are used by the tests only.  Everything here
constructs package objects; the independent oracles the tests compare
against live in the test modules themselves.
"""

import numpy as np
import pytest

from loctrace import fields as F
from loctrace import groupoid as G
from loctrace.algebra import CrossedForm, WordCrossedForm, fc_field
from loctrace.scenarios import (  # noqa: F401  (re-exported)
    bott_projector,
    kappa_action,
    rand_coeff,
    rand_crossed,
    std_mobius_action,
)
from loctrace.tensoralg import GroupCocycle1, universal_d


def dilation_action(lam, radius=0.75):
    return G.MatrixMobiusAction([("a", [[lam, 0.0], [0.0, 1.0]])], F.Disk(0.0, radius))


def single0(action, lab, f):
    """One term, scalar 1x1 matrix, degree (0, 0) coefficient."""
    return CrossedForm.single(action, lab, [[fc_field(f)]])


def poly_action(coeffs, radius=0.6):
    """Free action generated by one polynomial germ."""
    act = G.FreeGeneratorsAction([("g", G.PolyMap(coeffs))], F.Disk(0.0, radius))
    return act, act.generator("g")


def smooth_phi(center=0.0, r_pl=0.3, r_sup=0.6, cs=(1.0, 0.7 - 0.2j, 0.4j, 0.25)):
    poly = F.fadd(
        F.fconst(cs[0]),
        F.fscale(F.fz(), cs[1]),
        F.fscale(F.fzbar(), cs[2]),
        F.fscale(F.fmul(F.fz(), F.fz()), cs[3]),
    )
    return F.bumped(poly, center, r_pl, r_sup)


def kappa_one_form(seed=0):
    """One-form word element over the parabolic pair with unit-word content."""
    act = kappa_action()
    x = rand_crossed(np.random.default_rng(seed), act, ("c", "v"))
    w = WordCrossedForm.from_crossed(x, cap=3)
    return act, universal_d(w.mul(w).add(w))


def nilpotent_elem(act, seed=0):
    """Strictly upper triangular single-label element; squares to zero."""
    rng = np.random.default_rng(seed)
    mat = [
        [fc_field(F.fzero()), fc_field(rand_coeff(rng))],
        [fc_field(F.fzero()), fc_field(F.fzero())],
    ]
    return CrossedForm.single(act, act.by_name("a"), mat, size=2)


def odd_scenario(t=1.0):
    """1 + t f U_s over a free dilation action, with the pairing weight 1."""
    act = G.FreeGeneratorsAction([("s", G.AffineMap(2.0, 0.0))], F.Disk(0.0, 1.0))
    f = F.bumped(F.fadd(F.fconst(0.8 + 0.1j), F.fscale(F.fz(), 0.3)), 0.3, 0.02, 0.04)
    u = CrossedForm.unit(act, 1).add(
        CrossedForm.single(act, act.generator("s"), [[fc_field(F.fscale(f, t))]])
    )
    return act, u, GroupCocycle1(weights={"s": 1.0})


def odd_blocks(seed):
    """Invertibles 1 + f_i U_s, i = 1, 2, with random small-support f_i, on
    odd_scenario's action; their block diagonal; and the pairing weight 1.3."""
    act = G.FreeGeneratorsAction([("s", G.AffineMap(2.0, 0.0))], F.Disk(0.0, 1.0))
    s = act.generator("s")
    rng = np.random.default_rng(seed)
    f1 = rand_coeff(rng, 0.25, 0.03, 0.05)
    f2 = rand_coeff(rng, -0.2, 0.03, 0.05)
    zero = fc_field(F.fzero())
    u1 = CrossedForm.unit(act, 1).add(single0(act, s, f1))
    u2 = CrossedForm.unit(act, 1).add(single0(act, s, f2))
    ublock = CrossedForm.unit(act, 2).add(
        CrossedForm.single(act, s, [[fc_field(f1), zero], [zero, fc_field(f2)]])
    )
    return u1, u2, ublock, GroupCocycle1(weights={"s": 1.3})


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
