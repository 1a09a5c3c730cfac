"""Acceptance suite: thirteen numbered end-to-end checks.

One test per criterion, run in order by pytest; the terminal summary hook in
conftest prints a PASS/FAIL line per criterion at the end of the run.  Each
test pins its tolerances inline and, where a wall-clock budget applies,
enforces it.  Oracles are kept independent of the code paths they certify:
closed forms are typed out by hand, the curvature and degree integrals for
the window projector are rebuilt on a plain numpy grid with an unrelated
cutoff profile, and nothing below reuses intermediate results from the
library routes under test.
"""

import time

import numpy as np

from loctrace import fields as F
from loctrace import groupoid as G
from loctrace.algebra import (
    CrossedForm,
    FormCoefficient,
    WordCrossedForm,
    diff_D,
    diff_d,
    diff_delta,
    diff_nabla,
    diff_partial,
    diff_partial_bar,
    fc_field,
)
from loctrace.cocycles import (
    chern1,
    cyclic_defect,
    fundamental_class,
    hochschild_b,
    phi_trace,
    phi_trace_words,
    todd,
    todd_dual_defect,
    transport_coordinates,
)
from loctrace.dist import RenormKernel, check_covariance, check_dolbeault, pair_kernel
from loctrace.pairing import anomaly_delta0, anomaly_delta1, pair_even, pair_odd
from loctrace.tensoralg import (
    crossed_max_abs,
    lift_idempotent,
    lift_invertible,
    nat_key,
    universal_d,
)

from conftest import (
    bott_projector,
    dilation_action,
    kappa_action,
    kappa_one_form,
    nilpotent_elem,
    odd_blocks,
    odd_scenario,
    poly_action,
    rand_coeff,
    rand_crossed,
    single0,
    smooth_phi,
    std_mobius_action,
)


class budget:
    """Context manager asserting the block finished inside its allowance."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.seconds, (
                f"took {elapsed:.2f}s, budget {self.seconds:g}s"
            )


# ---------------------------------------------------------------------------
# 1-2: fixed point values against hand-written closed forms


def test_criterion_01_dilation_trace_values():
    with budget(1.0):
        f = F.bumped(
            F.fadd(F.fconst(0.7 - 0.2j), F.fz(), F.fscale(F.fzbar(), 0.3)),
            0.0, 0.25, 0.45,
        )
        for lam in (2.0, 1j, 0.5 + 0.5j):
            act = dilation_action(lam)
            got = phi_trace(single0(act, act.by_name("a"), f)).value
            want = F.eval_field(f, 0.0) / (1.0 - lam)
            assert abs(got - want) < 1e-9, lam


def test_criterion_02_higher_order_closed_forms():
    with budget(1.0):
        # quadratic germ z + z^2: the value is minus the z-derivative at 0
        act, g = poly_action([0.0, 1.0, 1.0])
        c0, c1, c2 = 0.3 + 0.1j, 1.7 - 0.4j, 0.25 + 0.0j
        f = F.bumped(
            F.fadd(
                F.fconst(c0),
                F.fscale(F.fz(), c1),
                F.fscale(F.fmul(F.fz(), F.fz()), c2),
            ),
            0.0, 0.2, 0.35,
        )
        got = phi_trace(single0(act, g, f)).value
        assert abs(got - (-c1)) < 1e-9

        # cubic germ with quartic correction z + z^3 + eps z^4: dividing
        # z^3 by g - z gives 1 - eps z + eps^2 z^2, so the value is
        # -(f''(0)/2 - eps f'(0) + eps^2 f(0))
        for eps in (0.0, 0.3, -0.2 + 0.1j):
            act3, g3 = poly_action([0.0, 1.0, 0.0, 1.0, eps])
            d0, d1, d2 = 0.4 - 0.2j, 1.1 + 0.6j, -0.8 + 0.3j
            f3 = F.bumped(
                F.fadd(
                    F.fconst(d0),
                    F.fscale(F.fz(), d1),
                    F.fscale(F.fmul(F.fz(), F.fz()), d2),
                ),
                0.0, 0.2, 0.35,
            )
            got3 = phi_trace(single0(act3, g3, f3)).value
            want3 = -(d2 - eps * d1 + eps * eps * d0)
            assert abs(got3 - want3) < 1e-9, eps


# ---------------------------------------------------------------------------
# 3-5: trace laws


def test_criterion_03_trace_property_100_pairs():
    with budget(30.0):
        # generator a is loxodromic (simple fixed point), b is parabolic
        # (double fixed point); products mix both orders
        act = std_mobius_action()
        rng = np.random.default_rng(303)
        seen = 0.0
        for k in range(100):
            a = rand_crossed(rng, act, ["a", "b"], size=1)
            b = rand_crossed(rng, act, ["a", "b"], size=1)
            va = phi_trace(a.mul(b)).value
            vb = phi_trace(b.mul(a)).value
            seen = max(seen, abs(va))
            assert abs(va - vb) < 1e-9, k
        assert seen > 1e-3  # the pairs carry actual content


def test_criterion_04_coordinate_invariance():
    with budget(30.0):
        act = std_mobius_action()
        rng = np.random.default_rng(404)
        x = rand_crossed(rng, act, ["a", "b"], size=1)
        base = phi_trace(x).value
        assert abs(base) > 1e-3
        for k in range(20):
            m = np.eye(2) + 0.12 * (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            )
            _, moved = transport_coordinates(x, G.MobiusMap(m))
            assert abs(phi_trace(moved).value - base) < 1e-9, k


def test_criterion_05_order_padding_invariance():
    rng = np.random.default_rng(505)
    germs = [
        [0.0, 2.0],                  # simple fixed point
        [0.0, 1.0, 1.0],             # order two
        [0.0, 1.0, 0.5, 0.25],       # order two, messy tail
        [0.0, 1.0, 0.0, 1.0, 0.3],   # order three
    ]
    for coeffs in germs:
        act, g = poly_action(coeffs)
        x = single0(act, g, rand_coeff(rng, 0.0, 0.2, 0.35))
        base = phi_trace(x).value
        for pad in (1, 2):
            assert abs(phi_trace(x, pad=pad).value - base) < 1e-10, (coeffs, pad)


# ---------------------------------------------------------------------------
# 6-7: cochain laws for the three integral cocycles

QUAD_TOL = 1e-6
COC_KW = dict(tol=QUAD_TOL, max_depth=12)


def _cocycle_args(rng, act):
    # c twice and v once: v.c.c composes to the identity germ, so the
    # integrands land on the unit space and every route is non-vacuous
    a0 = single0(act, act.by_name("c"), rand_coeff(rng))
    a1 = single0(act, act.by_name("c"), rand_coeff(rng))
    a2 = single0(act, act.by_name("v"), rand_coeff(rng))
    a3 = single0(act, act.unit, rand_coeff(rng))
    return a0, a1, a2, a3


def test_criterion_06_cocycle_laws():
    with budget(300.0):
        act = kappa_action()
        rng = np.random.default_rng(606)
        routes = [
            ("volume", lambda *xs: fundamental_class(*xs, **COC_KW)),
            ("curvature", lambda *xs: chern1(*xs, **COC_KW)),
            ("twisted", lambda *xs: todd(*xs, **COC_KW)),
        ]
        bound = 4.0 * QUAD_TOL
        for k in range(20):
            a0, a1, a2, a3 = _cocycle_args(rng, act)
            for name, phi in routes:
                assert abs(hochschild_b(phi, [a0, a1, a2, a3])) < bound, (k, name)
                assert abs(cyclic_defect(phi, [a0, a1, a2])) < bound, (k, name)


def test_criterion_07_todd_dual_path():
    act = kappa_action()
    rng = np.random.default_rng(606)  # same triples as the cochain-law check
    for k in range(20):
        a0, a1, a2, _ = _cocycle_args(rng, act)
        defect, direct, fc, c1 = todd_dual_defect(a0, a1, a2, **COC_KW)
        assert abs(direct.value) > 1e-6  # both routes see real content
        assert abs(c1.value) > 1e-8
        assert defect < 2.0 * QUAD_TOL, k


# ---------------------------------------------------------------------------
# 8: even pairing against two grid oracles


def _smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    def sigma(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    t = np.clip(t, 0.0, 1.0)
    return sigma(t) / (sigma(t) + sigma(1.0 - t))


def _oracle_profile(r):
    # radial cutoff, 1 inside radius 1, 0 outside radius 2; deliberately a
    # different smooth interpolant from the library's window builder
    return _smooth_step((2.0 - np.asarray(r, dtype=float)) / 1.0)


def _oracle_projector(x, y):
    z = x + 1j * y
    B = _oracle_profile(np.abs(z))
    den = B * B + np.abs(z) ** 2
    E = np.empty(x.shape + (2, 2), dtype=complex)
    E[..., 0, 0] = B * B / den
    E[..., 0, 1] = B * np.conj(z) / den
    E[..., 1, 0] = B * z / den
    E[..., 1, 1] = np.abs(z) ** 2 / den
    return E


def _oracle_sphere_chart(x, y):
    z = x + 1j * y
    B = _oracle_profile(np.abs(z))
    den = B * B + np.abs(z) ** 2
    w = B * np.conj(z)
    return np.stack(
        [2.0 * w.real, 2.0 * w.imag, np.abs(z) ** 2 - B * B], axis=-1
    ) / den[..., None]


def _bott_grid_oracles(n=700, half=2.3, h=1e-5):
    """Curvature integral and mapping degree for the rank-one window family.

    Central finite differences on a uniform grid; the integrands decay to
    zero outside radius 2 so the box [-half, half]^2 captures everything.
    """
    xs = np.linspace(-half, half, n)
    cell = (xs[1] - xs[0]) ** 2
    X, Y = np.meshgrid(xs, xs, indexing="ij")

    E = _oracle_projector(X, Y)
    Ex = (_oracle_projector(X + h, Y) - _oracle_projector(X - h, Y)) / (2 * h)
    Ey = (_oracle_projector(X, Y + h) - _oracle_projector(X, Y - h)) / (2 * h)
    comm = Ex @ Ey - Ey @ Ex
    curv = -np.trace(E @ comm, axis1=-2, axis2=-1).sum() * cell / (2j * np.pi)

    nvec = _oracle_sphere_chart(X, Y)
    nx = (_oracle_sphere_chart(X + h, Y) - _oracle_sphere_chart(X - h, Y)) / (2 * h)
    ny = (_oracle_sphere_chart(X, Y + h) - _oracle_sphere_chart(X, Y - h)) / (2 * h)
    deg = np.einsum("ijk,ijk->ij", nvec, np.cross(nx, ny)).sum() * cell / (4 * np.pi)
    return curv, float(deg)


def test_criterion_08_bott_pairing_integrality():
    with budget(120.0):
        act, e = bott_projector()
        res = pair_even(e, cap=2, tol=1e-6, max_depth=12)
        collapsed = complex(res.collapsed)

        curv, deg = _bott_grid_oracles()

        # the pairing lands on an integer of magnitude one
        nearest = round(collapsed.real)
        assert abs(nearest) == 1
        assert abs(collapsed - nearest) < 1e-4

        # independent curvature-integral route reproduces the value
        assert abs(collapsed - curv) < 1e-4

        # sign pins to the mapping degree of the sphere chart
        assert round(deg) == -nearest
        assert abs(collapsed + deg) < 1e-4

        # constant idempotents carry no curvature: exact zero, no quadrature
        tact = G.trivial_action(F.Disk(0.0, 2.0))
        const = CrossedForm(tact, 2, scalar=np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert pair_even(const, cap=2, tol=1e-7).collapsed == 0.0


# ---------------------------------------------------------------------------
# 9: odd pairing


def test_criterion_09_odd_pairing_properties():
    kw = dict(cap=3, certificate={"kind": "nilpotent"}, tol=1e-7)

    # the unit itself pairs to zero with no numerical noise at all
    act, u0, psi = odd_scenario(t=0.0)
    assert pair_odd(u0, psi=psi, **kw).collapsed == 0.0

    # deforming 1 + t a cannot move the value: four samples along the path
    for t in (0.25, 0.5, 1.0):
        act, ut, psi = odd_scenario(t=t)
        assert abs(pair_odd(ut, psi=psi, **kw).collapsed) < 1e-6, t

    # a block diagonal pairs to the sum of its blocks, wordwise
    u1, u2, ublock, psi = odd_blocks(909)
    a = pair_odd(u1, psi=psi, **kw)
    b = pair_odd(u2, psi=psi, **kw)
    c = pair_odd(ublock, psi=psi, **kw)
    # exact up to the single rounding in the final trace accumulation
    assert abs(c.collapsed - (a.collapsed + b.collapsed)) < 1e-12
    for key in set(a.truncated.terms) | set(b.truncated.terms):
        sa = _table_trace(a.truncated.terms.get(key))
        sb = _table_trace(b.truncated.terms.get(key))
        sc = _table_trace(c.truncated.terms.get(key))
        assert abs(sc - (sa + sb)) < 1e-12, key


def _table_trace(mat):
    if mat is None:
        return 0j
    return complex(np.trace(np.atleast_2d(mat)))


# ---------------------------------------------------------------------------
# 10: boundary terms by two routes


def _delta1_scenario(k):
    rng = np.random.default_rng(1000 + k)
    cap = 3
    if k % 2 == 0:
        act = G.FreeGeneratorsAction([("s", G.AffineMap(2.0, 0.0))], F.Disk(0.0, 1.0))
        s = act.generator("s")
        A = WordCrossedForm.from_crossed(
            CrossedForm.single(act, s, [[FormCoefficient({(0, 1): rand_coeff(rng)})]]),
            cap,
        )
        om = universal_d(
            WordCrossedForm.from_crossed(
                CrossedForm.single(act, act.inverse(s), [[fc_field(rand_coeff(rng))]]),
                cap,
            )
        )
    else:
        act = kappa_action()
        c, v = act.by_name("c"), act.by_name("v")
        A = WordCrossedForm.from_crossed(
            CrossedForm.single(act, c, [[FormCoefficient({(0, 1): rand_coeff(rng)})]]),
            cap,
        )
        # the word (c, v) joined with the left letter c closes up to the
        # identity germ, which is what the localized route selects
        om = universal_d(
            WordCrossedForm(act, 1, cap, terms={(c, v): [[fc_field(rand_coeff(rng))]]})
        )
    return anomaly_delta1(A, om, tol=QUAD_TOL, max_depth=12)


def test_criterion_10_anomaly_dual_paths():
    # degree-zero boundary: localized route equals the word-trace reference
    # with zero defect
    for seed in (5, 6, 7):
        act, om = kappa_one_form(seed)
        d0 = anomaly_delta0(om, region=act.domain)
        ref = {}
        for key, v in phi_trace_words(om, act.domain).items():
            nk = nat_key(key)
            ref[nk] = ref.get(nk, 0j) + v
        keys = set(d0.terms) | set(ref)
        assert keys, seed
        assert any(abs(v) > 1e-12 for v in ref.values()), seed
        for nk in keys:
            got = complex(d0.terms[nk][0][0]) if nk in d0.terms else 0j
            assert got == ref.get(nk, 0j), (seed, nk)

    # degree-one boundary: hand-written integrand versus the connection
    # route, ten randomized scenarios alternating between the two actions
    for k in range(10):
        res = _delta1_scenario(k)
        mags = [abs(complex(m[0][0])) for m in res.explicit.terms.values()]
        assert mags and max(mags) > 1e-10, k
        assert res.defect <= 2.0 * QUAD_TOL, k


# ---------------------------------------------------------------------------
# 11: renormalized kernels

DIST_KW = dict(tol=1e-8, max_depth=14)


def test_criterion_11_distribution_identities():
    # derivative identity at the anchor
    phi = smooth_phi()
    lhs, rhs, defect = check_dolbeault(0.05, phi, **DIST_KW)
    assert abs(rhs) > 0.1  # non-vacuous
    assert defect < 1e-5

    # conformal covariance: affine map at order two, fractional linear at
    # order three
    assert check_covariance(2, G.AffineMap(2.0, 0.0), 0.0, phi, **DIST_KW) < 1e-5
    assert (
        check_covariance(
            3,
            G.MobiusMap([[1.0, 0.0], [1.0, 1.0]]),
            0.02,
            smooth_phi(center=0.0, r_pl=0.2, r_sup=0.4),
            tol=1e-8,
            max_depth=14,
        )
        < 1e-4
    )

    # the order-two extension freedom is exactly a point mass at the anchor
    z0 = 0.05 + 0.1j
    c = 0.37 - 1.21j
    base = pair_kernel(RenormKernel(2, z0), phi, **DIST_KW)
    moved = pair_kernel(RenormKernel(2, z0, shift=c), phi, **DIST_KW)
    assert abs((moved - base) - c * F.eval_field(phi, z0)) < 1e-8


# ---------------------------------------------------------------------------
# 12: capped liftings are exact


def test_criterion_12_lifting_exactness():
    with budget(10.0):
        act = std_mobius_action()
        for cap in (2, 3, 4):
            u = CrossedForm.unit(act, 2).add(nilpotent_elem(act, seed=cap))
            uh, ui = lift_invertible(u, cap, {"kind": "nilpotent"})
            one = WordCrossedForm.unit(act, 2, cap)
            for w in (uh.mul(ui).sub(one), ui.mul(uh).sub(one)):
                # residual has no words at all, not merely small ones
                assert not w.terms
                assert crossed_max_abs(w) == 0.0

            e = CrossedForm(
                act, 2, scalar=np.array([[1.0, 0.0], [0.0, 0.0]])
            ).add(nilpotent_elem(act, seed=cap + 10))
            eh = lift_idempotent(e, cap)
            assert eh.dropped == 0
            r = eh.mul(eh).sub(eh)
            assert not r.terms
            assert crossed_max_abs(r) == 0.0


# ---------------------------------------------------------------------------
# 13: differential calculus on random elements


def test_criterion_13_differential_suite():
    act = kappa_action()
    rng = np.random.default_rng(1313)
    squares = [diff_partial, diff_partial_bar, diff_d, diff_delta, diff_nabla]
    degrees = [(0, 0), (1, 0), (0, 1)]
    rules = ((diff_d, True), (diff_delta, True), (diff_D, False))
    seen = 0.0
    for k in range(50):
        deg = degrees[k % 3]
        x = rand_crossed(rng, act, ["c", "v", "1"], size=1, degrees=[deg])
        seen = max(seen, crossed_max_abs(x))
        for op in squares:
            assert crossed_max_abs(op(op(x))) < 1e-9, (k, op.__name__)
        y = rand_crossed(rng, act, ["v", "c"], size=1, degrees=[(0, 0)])
        for dop, graded in rules:
            sign = (-1) ** sum(deg) if graded else 1
            lhs = dop(x.mul(y))
            rhs = dop(x).mul(y).add(x.mul(dop(y)).scale(sign))
            assert crossed_max_abs(lhs.sub(rhs)) < 1e-9, (k, dop.__name__)
    assert seen > 1e-3
