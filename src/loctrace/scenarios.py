"""Seeded builders of the inputs that ``verify`` and the test suite check.

Every builder that draws takes a numpy ``Generator``, so a seed fixes the
data.  The package's ``__init__`` does not import this module: only the CLI
and the tests build these inputs.
"""

from . import fields as F
from . import groupoid as G
from .algebra import CrossedForm, FormCoefficient, fc_field


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
    """Random form coefficient: one random field per (p, q) degree."""
    return FormCoefficient({tuple(pq): rand_coeff(rng, center, r_pl, r_sup) for pq in degrees})


def std_mobius_action(radius=0.5):
    """The dilation a: z -> 2z and the parabolic b: z -> z / (z + 1)."""
    return G.MatrixMobiusAction(
        [("a", [[2.0, 0.0], [0.0, 1.0]]), ("b", [[1.0, 0.0], [1.0, 1.0]])],
        F.Disk(0.0, radius),
    )


def kappa_action(radius=0.5):
    """Parabolic pair; v.c.c is the identity germ, so products of these
    labels can land on the unit while every factor has c != 0."""
    return G.MatrixMobiusAction(
        [("c", [[1.0, 0.0], [0.4, 1.0]]), ("v", [[1.0, 0.0], [-0.8, 1.0]])],
        F.Disk(0.0, radius),
    )


def rand_crossed(rng, action, names, size=1, degrees=((0, 0),)):
    """Random crossed element supported on the given label names."""
    x = CrossedForm(action, size)
    for nm in names:
        lab = action.unit if nm in ("1", "unit") else action.by_name(nm)
        mat = [[rand_form(rng, degrees) for _ in range(size)] for _ in range(size)]
        x = x.add(CrossedForm.single(action, lab, mat, size=size))
    return x


def bott_projector():
    """Rank-one projector built from a radial window; exactly idempotent.
    It carries the Bott class: its even pairing is -1."""
    act = G.trivial_action(F.Disk(0.0, 2.5))
    B = F.bump_field(0.0, 1.0, 2.0)
    R = F.frecip(F.fadd(F.fmul(B, B), F.fmul(F.fz(), F.fzbar())))
    e11 = F.fmul(R, F.fmul(B, B))
    e12 = F.fmul(R, F.fmul(B, F.fzbar()))
    e21 = F.fmul(R, F.fmul(B, F.fz()))
    e22 = F.fneg(F.fmul(R, F.fmul(B, B)))
    for f in (e11, e12, e21, e22):
        f.support = F.Disk(0.0, 2.0)
    mat = [[fc_field(e11), fc_field(e12)], [fc_field(e21), fc_field(e22)]]
    e = CrossedForm(act, 2, {act.unit: mat}, [[0.0, 0.0], [0.0, 1.0]])
    return act, e
