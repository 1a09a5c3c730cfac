"""The three benchmark workloads: inputs drawn from a seed, and checked calls.

A workload is a function ``build(seed) -> list[Op]``.  Building draws every
input from ``numpy.random.default_rng(seed)``; nothing else is random.  Each
``Op`` makes one fixed set of calls into ``loctrace`` and returns a tuple of
numbers; its ``check`` compares those numbers against a property the method
must have, or against a closed form worked out here from the drawn inputs.
No check compares against stored output of the program.

Calls go through module attributes (``C.todd``, not a name imported from
``loctrace.cocycles``) so that the per-layer tracer in ``tracing.py`` sees
every call it wraps.

Random coefficients have unit modulus and random phase: their size then does
not depend on the seed, so neither does the number of quadrature cells an
integrand needs, and the work in a round stays nearly the same from seed to
seed.
"""

from __future__ import annotations

import numpy as np

from loctrace import algebra as A
from loctrace import cocycles as C
from loctrace import dist as D
from loctrace import fields as F
from loctrace import groupoid as G
from loctrace import pairing as P
from loctrace import tensoralg as T

# the library's default quadrature settings
TOL = 1e-6
DEPTH = 12
# criterion 11 of the acceptance suite runs the kernels tighter
DIST_KW = dict(tol=1e-8, max_depth=14)


class Op:
    """One checked operation: ``call()`` is timed, ``check(values)`` is not
    and returns ``None`` or the reason the values are wrong."""

    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name = name
        self.call = call
        self.check = check


# ---------------------------------------------------------------------------
# input builders


def phases(rng, n):
    return np.exp(2j * np.pi * rng.uniform(size=n))


def poly(cs):
    """c0 + c1 z + c2 zbar + c3 z^2 + c4 z zbar."""
    return F.fadd(
        F.fconst(cs[0]),
        F.fscale(F.fz(), cs[1]),
        F.fscale(F.fzbar(), cs[2]),
        F.fscale(F.fmul(F.fz(), F.fz()), cs[3]),
        F.fscale(F.fmul(F.fz(), F.fzbar()), cs[4]),
    )


def coeff(rng, center=0.0, r_pl=0.25, r_sup=0.45):
    """Random polynomial times a cutoff that is 1 on the plateau disk."""
    return F.bumped(poly(phases(rng, 5)), center, r_pl, r_sup)


def single(act, lab, f):
    return A.CrossedForm.single(act, lab, [[A.fc_field(f)]])


def rand_crossed(rng, act, names, degrees=((0, 0),)):
    x = A.CrossedForm(act, 1)
    for nm in names:
        lab = act.unit if nm == "1" else act.by_name(nm)
        fc = A.FormCoefficient({pq: coeff(rng) for pq in degrees})
        x = x.add(A.CrossedForm.single(act, lab, [[fc]]))
    return x


def kappa_action():
    # parabolic pair; v.c.c is the identity germ, so products of these labels
    # land on the unit while every factor has c != 0
    return G.MatrixMobiusAction(
        [("c", [[1.0, 0.0], [0.4, 1.0]]), ("v", [[1.0, 0.0], [-0.8, 1.0]])],
        F.Disk(0.0, 0.5),
    )


def mobius_action():
    # a is loxodromic (simple fixed point), b is parabolic (double one)
    return G.MatrixMobiusAction(
        [("a", [[2.0, 0.0], [0.0, 1.0]]), ("b", [[1.0, 0.0], [1.0, 1.0]])],
        F.Disk(0.0, 0.5),
    )


def poly_germ(coeffs):
    act = G.FreeGeneratorsAction([("g", G.PolyMap(coeffs))], F.Disk(0.0, 0.6))
    return act, act.generator("g")


def bott_projector():
    """Rank-one projector from a radial window; exactly idempotent, and its
    even pairing is the integer -1."""
    act = G.trivial_action(F.Disk(0.0, 2.5))
    B = F.bump_field(0.0, 1.0, 2.0)
    R = F.frecip(F.fadd(F.fmul(B, B), F.fmul(F.fz(), F.fzbar())))
    ents = [
        F.fmul(R, F.fmul(B, B)),
        F.fmul(R, F.fmul(B, F.fzbar())),
        F.fmul(R, F.fmul(B, F.fz())),
        F.fneg(F.fmul(R, F.fmul(B, B))),
    ]
    for f in ents:
        f.support = F.Disk(0.0, 2.0)
    mat = [[A.fc_field(ents[0]), A.fc_field(ents[1])],
           [A.fc_field(ents[2]), A.fc_field(ents[3])]]
    return A.CrossedForm(act, 2, {act.unit: mat}, [[0.0, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# checks


def at_most(limit, what):
    """Check that every value is a number no larger than ``limit``."""

    def check(values):
        worst = max(abs(v) for v in values)
        if not worst <= limit:
            return f"{what} {worst:.3g} > {limit:g}"
        return None

    return check


def first_failure(*conds):
    for ok, msg in conds:
        if not ok:
            return msg
    return None


# ---------------------------------------------------------------------------
# cocycle: unit-space integrals of the three degree-two cocycles


def cocycle(seed):
    """todd_dual_defect, hochschild_b and cyclic_defect for the fundamental,
    curvature and Todd cocycles on one parabolic triple c, c, v (plus a unit
    coefficient for the Hochschild coboundary)."""
    rng = np.random.default_rng(seed)
    act = kappa_action()
    a0 = single(act, act.by_name("c"), coeff(rng))
    a1 = single(act, act.by_name("c"), coeff(rng))
    a2 = single(act, act.by_name("v"), coeff(rng))
    a3 = single(act, act.unit, coeff(rng))
    kw = dict(tol=TOL, max_depth=DEPTH)

    def dual():
        defect, direct, _, c1 = C.todd_dual_defect(a0, a1, a2, **kw)
        return defect, direct.value, c1.value

    def check_dual(v):
        defect, direct, c1 = v
        return first_failure(
            (defect <= 2 * TOL, f"dual-path defect {defect:.3g} > {2 * TOL:g}"),
            (abs(direct) > 1e-6, f"|todd| {abs(direct):.3g} <= 1e-6"),
            (abs(c1) > 1e-8, f"|chern1| {abs(c1):.3g} <= 1e-8"),
        )

    ops = [Op("todd-dual-path", dual, check_dual)]
    for name in ("fundamental_class", "chern1", "todd"):

        def phi(*xs, name=name):
            return getattr(C, name)(*xs, **kw)

        ops.append(Op(
            f"{name}-hochschild",
            lambda phi=phi: (C.hochschild_b(phi, [a0, a1, a2, a3]),),
            at_most(4 * TOL, "Hochschild defect"),
        ))
        ops.append(Op(
            f"{name}-cyclic",
            lambda phi=phi: (C.cyclic_defect(phi, [a0, a1, a2]),),
            at_most(4 * TOL, "cyclic defect"),
        ))
    return ops


# ---------------------------------------------------------------------------
# trace: localized fixed-point traces and the differential calculus


def _dilation_op(rng, k):
    # |lambda| in [0.3, 0.7] or [1.5, 3] keeps 1 - lambda away from 0
    r = rng.uniform(0.3, 0.7) if k % 2 else rng.uniform(1.5, 3.0)
    lam = complex(r * np.exp(2j * np.pi * rng.uniform()))
    cs = phases(rng, 5)
    act = G.MatrixMobiusAction([("a", [[lam, 0.0], [0.0, 1.0]])], F.Disk(0.0, 0.75))
    x = single(act, act.by_name("a"), F.bumped(poly(cs), 0.0, 0.25, 0.45))
    # f(0) is the constant coefficient: the cutoff is 1 on its plateau
    want = cs[0] / (1.0 - lam)
    return Op(
        f"dilation[{k}]",
        lambda: (C.phi_trace(x).value,),
        lambda v: at_most(1e-9, "dilation trace error")([v[0] - want]),
    )


def _germ_coeff(d):
    """d0 + d1 z + d2 z^2 + d3 z zbar; the trace only sees the z-part."""
    return F.bumped(
        F.fadd(
            F.fconst(d[0]),
            F.fscale(F.fz(), d[1]),
            F.fscale(F.fmul(F.fz(), F.fz()), d[2]),
            F.fscale(F.fmul(F.fz(), F.fzbar()), d[3]),
        ),
        0.0, 0.2, 0.35,
    )


def _order2_op(rng):
    # g = z + a z^2: (z^2 / (g - z)) = 1/a, so the value is -d1/a
    a = complex(rng.uniform(0.5, 2.0) * phases(rng, 1)[0])
    d = phases(rng, 4)
    act, g = poly_germ([0.0, 1.0, a])
    x = single(act, g, _germ_coeff(d))
    want = -d[1] / a
    return Op(
        "germ-order2",
        lambda: (C.phi_trace(x).value,),
        lambda v: at_most(1e-9, "order-2 trace error")([v[0] - want]),
    )


def _order3_op(rng, k):
    # g = z + b z^3 + eps z^4: z^3 / (g - z) = (1/b)(1 - t z + t^2 z^2 - ...)
    # with t = eps/b, so the value is -(d2 - t d1 + t^2 d0)/b.  |t| <= 0.3
    # keeps the other fixed point -1/t outside the disk of radius 0.6.
    b = complex(rng.uniform(0.5, 2.0) * phases(rng, 1)[0])
    t = complex(rng.uniform(0.0, 0.3) * phases(rng, 1)[0])
    d = phases(rng, 4)
    act, g = poly_germ([0.0, 1.0, 0.0, b, t * b])
    x = single(act, g, _germ_coeff(d))
    want = -(d[2] - t * d[1] + t * t * d[0]) / b
    return Op(
        f"germ-order3[{k}]",
        lambda: (C.phi_trace(x).value,),
        lambda v: at_most(1e-9, "order-3 trace error")([v[0] - want]),
    )


def _padding_op(rng, coeffs):
    act, g = poly_germ(coeffs)
    x = single(act, g, coeff(rng, 0.0, 0.2, 0.35))

    def call():
        return tuple(C.phi_trace(x, pad=pad).value for pad in (0, 1, 2))

    def check(v):
        return first_failure(
            (abs(v[0]) > 1e-3, f"|trace| {abs(v[0]):.3g} <= 1e-3"),
            (max(abs(v[1] - v[0]), abs(v[2] - v[0])) < 1e-10,
             f"padding moved the trace by {max(abs(v[1] - v[0]), abs(v[2] - v[0])):.3g}"),
        )

    return Op(f"padding{coeffs}", call, check)


def _commutator_op(rng, act, k, pairs=10):
    xs = [
        (rand_crossed(rng, act, ["a", "b"]), rand_crossed(rng, act, ["a", "b"]))
        for _ in range(pairs)
    ]

    def call():
        out = []
        for a, b in xs:
            out.append(C.phi_trace(a.mul(b)).value)
            out.append(C.phi_trace(b.mul(a)).value)
        return tuple(out)

    def check(v):
        gap = max(abs(v[i] - v[i + 1]) for i in range(0, len(v), 2))
        seen = max(abs(x) for x in v)
        return first_failure(
            (seen > 1e-3, f"largest |trace| {seen:.3g} <= 1e-3"),
            (gap < 1e-9, f"|phi(ab) - phi(ba)| {gap:.3g} >= 1e-9"),
        )

    return Op(f"trace-commutator[{k}]", call, check)


def _transport_op(rng, act, moves=6):
    x = rand_crossed(rng, act, ["a", "b"])
    hs = [
        G.MobiusMap(np.eye(2) + 0.12 * (rng.standard_normal((2, 2))
                                        + 1j * rng.standard_normal((2, 2))))
        for _ in range(moves)
    ]

    def call():
        base = C.phi_trace(x).value
        return (base,) + tuple(
            C.phi_trace(C.transport_coordinates(x, h)[1]).value for h in hs
        )

    def check(v):
        gap = max(abs(m - v[0]) for m in v[1:])
        return first_failure(
            (abs(v[0]) > 1e-3, f"|trace| {abs(v[0]):.3g} <= 1e-3"),
            (gap < 1e-9, f"transport moved the trace by {gap:.3g}"),
        )

    return Op("transport", call, check)


_SQUARES = ("diff_partial", "diff_partial_bar", "diff_d", "diff_delta", "diff_nabla")
# (derivation, graded): d and delta obey the graded Leibniz rule, D the plain one
_LEIBNIZ = (("diff_d", True), ("diff_delta", True), ("diff_D", False))


def _differential_op(rng, act, k):
    deg = ((0, 0), (1, 0), (0, 1))[k % 3]
    x = rand_crossed(rng, act, ["c", "v", "1"], degrees=[deg])
    y = rand_crossed(rng, act, ["v", "c"])

    def call():
        out = [T.crossed_max_abs(x)]
        for name in _SQUARES:
            op = getattr(A, name)
            out.append(T.crossed_max_abs(op(op(x))))
        for name, graded in _LEIBNIZ:
            dop = getattr(A, name)
            sign = (-1) ** sum(deg) if graded else 1
            lhs = dop(x.mul(y))
            rhs = dop(x).mul(y).add(x.mul(dop(y)).scale(sign))
            out.append(T.crossed_max_abs(lhs.sub(rhs)))
        return tuple(out)

    def check(v):
        return first_failure(
            (v[0] > 1e-3, f"|x| {v[0]:.3g} <= 1e-3"),
            (max(v[1:]) < 1e-9, f"differential law residual {max(v[1:]):.3g} >= 1e-9"),
        )

    return Op(f"differential-laws[{k}]", call, check)


def trace(seed):
    """Closed-form traces at dilations and polynomial germs of order 2 and 3,
    padding, the trace property, transport and the differential laws."""
    rng = np.random.default_rng(seed)
    ops = [_dilation_op(rng, k) for k in range(3)]
    ops.append(_order2_op(rng))
    ops += [_order3_op(rng, k) for k in range(2)]
    for coeffs in ([0.0, 2.0], [0.0, 1.0, 1.0], [0.0, 1.0, 0.5, 0.25],
                   [0.0, 1.0, 0.0, 1.0, 0.3]):
        ops.append(_padding_op(rng, coeffs))
    mob = mobius_action()
    ops += [_commutator_op(rng, mob, k) for k in range(2)]
    ops.append(_transport_op(rng, mob))
    kap = kappa_action()
    ops += [_differential_op(rng, kap, k) for k in range(6)]
    return ops


# ---------------------------------------------------------------------------
# pairing: capped liftings, even pairing, anomalies, renormalized kernels


def _bott_op(e, cap):
    def call():
        res = P.pair_even(e, cap, tol=TOL, max_depth=DEPTH)
        return (complex(res.collapsed), res.breakdown["dropped"])

    return Op(
        f"bott-pair-even[cap={cap}]",
        call,
        lambda v: at_most(1e-4, "distance of the Bott value from -1")([v[0] + 1.0]),
    )


def _delta0_op(rng):
    act = kappa_action()
    x = A.CrossedForm(act, 1)
    for nm in ("c", "v"):
        x = x.add(single(act, act.by_name(nm), coeff(rng)))
    w = A.WordCrossedForm.from_crossed(x, 3)
    om = T.universal_d(w.mul(w).add(w))

    def call():
        d0 = P.anomaly_delta0(om, region=act.domain)
        ref = {}
        for key, v in C.phi_trace_words(om, act.domain).items():
            nk = T.nat_key(key)
            ref[nk] = ref.get(nk, 0j) + v
        gap = 0.0
        for nk in set(d0.terms) | set(ref):
            got = complex(d0.terms[nk][0][0]) if nk in d0.terms else 0j
            gap = max(gap, abs(got - ref.get(nk, 0j)))
        return (len(set(d0.terms) | set(ref)), gap, max(map(abs, ref.values()), default=0.0))

    def check(v):
        n, gap, mag = v
        return first_failure(
            (n > 0, "no words to compare"),
            (mag > 1e-12, f"largest |delta0| {mag:.3g} <= 1e-12"),
            (gap == 0.0, f"delta0 routes differ by {gap:.3g}"),
        )

    return Op("anomaly-delta0", call, check)


def _delta1_op(rng, kind):
    cap = 3
    if kind == "affine":
        act = G.FreeGeneratorsAction([("s", G.AffineMap(2.0, 0.0))], F.Disk(0.0, 1.0))
        s = act.generator("s")
        Aw = A.WordCrossedForm.from_crossed(
            A.CrossedForm.single(act, s, [[A.FormCoefficient({(0, 1): coeff(rng)})]]),
            cap,
        )
        om = T.universal_d(A.WordCrossedForm.from_crossed(
            single(act, act.inverse(s), coeff(rng)), cap
        ))
    else:
        act = kappa_action()
        c, v = act.by_name("c"), act.by_name("v")
        Aw = A.WordCrossedForm.from_crossed(
            A.CrossedForm.single(act, c, [[A.FormCoefficient({(0, 1): coeff(rng)})]]),
            cap,
        )
        # the word (c, v) joined with the left letter c closes up to the
        # identity germ, which is what the localized route selects
        om = T.universal_d(A.WordCrossedForm(
            act, 1, cap, terms={(c, v): [[A.fc_field(coeff(rng))]]}
        ))

    def call():
        res = P.anomaly_delta1(Aw, om, tol=TOL, max_depth=DEPTH)
        mags = [max((abs(complex(m[0][0])) for m in r.terms.values()), default=0.0)
                for r in (res.explicit, res.intrinsic)]
        return (res.defect, mags[0], mags[1])

    def check(v):
        defect, m_exp, m_int = v
        return first_failure(
            (m_exp > 1e-10 and m_int > 1e-10,
             f"delta1 magnitudes {m_exp:.3g}, {m_int:.3g} <= 1e-10"),
            (defect <= 2 * TOL, f"delta1 routes differ by {defect:.3g} > {2 * TOL:g}"),
        )

    return Op(f"anomaly-delta1[{kind}]", call, check)


def _dist_ops(rng):
    phi = coeff(rng, 0.0, 0.3, 0.6)
    # criterion 11's own test function: this check sets the workload's peak
    # memory, which a random test function would move by 10% from seed to seed
    phi_small = F.bumped(poly([1.0, 0.7 - 0.2j, 0.4j, 0.25, 0.0]), 0.0, 0.2, 0.4)
    z_dol = complex(0.1 * rng.uniform() * phases(rng, 1)[0])
    z_cov = complex(0.03 * rng.uniform() * phases(rng, 1)[0])
    z_shift = complex(0.1 * rng.uniform() * phases(rng, 1)[0])
    c_shift = complex(rng.uniform(0.5, 1.5) * phases(rng, 1)[0])

    def dolbeault():
        _, rhs, defect = D.check_dolbeault(z_dol, phi, **DIST_KW)
        return (rhs, defect)

    def shift():
        base = D.pair_kernel(D.RenormKernel(2, z_shift), phi, **DIST_KW)
        moved = D.pair_kernel(D.RenormKernel(2, z_shift, shift=c_shift), phi, **DIST_KW)
        return (moved - base - c_shift * complex(F.eval_field(phi, z_shift)),)

    return [
        Op(
            "kernel-dolbeault",
            dolbeault,
            lambda v: first_failure(
                (abs(v[0]) > 0.1, f"|phi(z0)| {abs(v[0]):.3g} <= 0.1"),
                (v[1] < 1e-5, f"Dolbeault defect {v[1]:.3g} >= 1e-5"),
            ),
        ),
        Op(
            "kernel-covariance[affine,n=2]",
            lambda: (D.check_covariance(2, G.AffineMap(2.0, 0.0), 0.0, phi, **DIST_KW),),
            at_most(1e-5, "covariance defect"),
        ),
        Op(
            "kernel-covariance[mobius,n=3]",
            lambda: (D.check_covariance(
                3, G.MobiusMap([[1.0, 0.0], [1.0, 1.0]]), z_cov, phi_small, **DIST_KW
            ),),
            at_most(1e-4, "covariance defect"),
        ),
        Op("kernel-shift", shift, at_most(1e-8, "shift defect")),
    ]


def pairing(seed):
    """Bott pairing at caps 2, 3 and 4, both anomaly components by two routes
    each, and the renormalized-kernel identities."""
    rng = np.random.default_rng(seed)
    e = bott_projector()
    ops = [_bott_op(e, cap) for cap in (2, 3, 4)]
    ops.append(_delta0_op(rng))
    ops += [_delta1_op(rng, kind) for kind in ("affine", "kappa")]
    ops += _dist_ops(rng)
    return ops


WORKLOADS = {"cocycle": cocycle, "trace": trace, "pairing": pairing}
