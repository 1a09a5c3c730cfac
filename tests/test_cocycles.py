"""Localized trace: closed forms, trace property, transport, coboundaries."""

import gc
from collections import Counter

import numpy as np
import pytest
import sympy as sp
from scipy import integrate as si

from loctrace import fields as F
from loctrace import groupoid as G
from loctrace.algebra import CrossedForm, WordCrossedForm, diff_nabla
from loctrace.cocycles import (
    ConjugatedAction,
    PlateauError,
    _diag_sum,
    chern1,
    cyclic_defect,
    fundamental_class,
    hochschild_b,
    integrate_units,
    phi_trace,
    phi_trace_words,
    todd,
    todd_dual_defect,
    transport_coordinates,
)
from loctrace.quadrature import NonConvergenceError

from conftest import (
    dilation_action,
    kappa_action,
    poly_action,
    rand_coeff,
    rand_crossed,
    single0,
    std_mobius_action,
)


class TestSimpleFixedPoints:
    @pytest.mark.parametrize("lam", [2.0, 1j, 0.5 + 0.5j])
    def test_dilation_closed_form(self, lam):
        act = dilation_action(lam)
        a = act.by_name("a")
        f = F.bumped(
            F.fadd(F.fconst(0.7 - 0.2j), F.fz(), F.fscale(F.fzbar(), 0.3)),
            0.0, 0.25, 0.45,
        )
        got = phi_trace(single0(act, a, f))
        want = F.eval_field(f, 0.0) / (1 - lam)
        assert abs(got.value - want) < 1e-9

    def test_breakdown_sums_to_value(self):
        act = dilation_action(2.0)
        a = act.by_name("a")
        f = rand_coeff(np.random.default_rng(1))
        got = phi_trace(single0(act, a, f))
        assert len(got.breakdown) == 1
        tag, z0, order, c = got.breakdown[0]
        assert order == 1
        assert abs(z0) < 1e-10
        assert abs(c - got.value) < 1e-14

    def test_no_fixed_point_means_zero(self):
        act = G.FreeGeneratorsAction(
            [("t", G.AffineMap(1.0, 0.3))], F.Disk(0.0, 1.0)
        )
        t = act.generator("t")
        f = rand_coeff(np.random.default_rng(2))
        got = phi_trace(single0(act, t, f))
        assert got.value == 0.0

    def test_unit_label_contributes_nothing(self):
        act = dilation_action(2.0)
        f = rand_coeff(np.random.default_rng(3))
        x = single0(act, act.unit, f)
        assert phi_trace(x).value == 0.0

    def test_multiple_fixed_points_sum(self):
        # 0.5 z + z^2 fixes 0 (multiplier 0.5) and 0.5 (multiplier 1.5)
        act, g = poly_action([0.0, 0.5, 1.0], radius=0.8)
        f = F.fadd(
            F.bumped(F.fconst(1.0), 0.0, 0.1, 0.2),
            F.bumped(F.fconst(2.0), 0.5, 0.1, 0.2),
        )
        got = phi_trace(single0(act, g, f))
        want = 1.0 / (1 - 0.5) + 2.0 / (1 - 1.5)
        assert abs(got.value - want) < 1e-9
        assert len(got.breakdown) == 2


class TestHigherOrder:
    def test_order_two_closed_form(self):
        # g = z + z^2 at 0: the functional returns -f'(0)
        act, g = poly_action([0.0, 1.0, 1.0])
        poly = F.fadd(
            F.fconst(0.3 + 0.1j),
            F.fscale(F.fz(), 1.7 - 0.4j),
            F.fscale(F.fmul(F.fz(), F.fz()), 0.25),
        )
        f = F.bumped(poly, 0.0, 0.2, 0.35)
        got = phi_trace(single0(act, g, f))
        assert abs(got.value - (-(1.7 - 0.4j))) < 1e-9

    @pytest.mark.parametrize("eps", [0.0, 0.3, -0.2 + 0.1j])
    def test_order_three_closed_form(self, eps):
        # g = z + z^3 + eps z^4: series dividing z^3 by (g - z) gives
        # 1 - eps z + eps^2 z^2, so the value is
        # -(f''(0)/2 - eps f'(0) + eps^2 f(0))
        act, g = poly_action([0.0, 1.0, 0.0, 1.0, eps])
        c0, c1, c2 = 0.4 - 0.2j, 1.1 + 0.6j, -0.8 + 0.3j
        poly = F.fadd(
            F.fconst(c0),
            F.fscale(F.fz(), c1),
            F.fscale(F.fmul(F.fz(), F.fz()), c2),
        )
        f = F.bumped(poly, 0.0, 0.2, 0.35)
        got = phi_trace(single0(act, g, f))
        want = -(c2 - eps * c1 + eps * eps * c0)
        assert abs(got.value - want) < 1e-9

    def test_sympy_series_oracle_random_germ(self):
        # independent route for a germ of order 2 with messy higher terms
        Z = sp.symbols("z")
        coeffs = [0.0, 1.0, 0.7, -0.3, 0.12]
        act, g = poly_action(coeffs)
        cs = [0.9 - 0.1j, 0.2 + 0.4j, -0.5j, 0.3]
        poly = F.fadd(
            F.fconst(cs[0]),
            F.fscale(F.fz(), cs[1]),
            F.fscale(F.fmul(F.fz(), F.fz()), cs[2]),
            F.fscale(F.fmul(F.fmul(F.fz(), F.fz()), F.fz()), cs[3]),
        )
        f = F.bumped(poly, 0.0, 0.2, 0.35)
        gm = sum(c * Z**k for k, c in enumerate(coeffs))
        n = 2
        ser = sp.series(Z**n / sp.expand(gm - Z), Z, 0, n).removeO()
        H = [complex(sp.expand(ser).coeff(Z, k)) for k in range(n)]
        want = -sum(H[j] * cs[n - 1 - j] for j in range(n))
        got = phi_trace(single0(act, g, f))
        assert abs(got.value - want) < 1e-9

    def test_short_jets_and_large_pads_never_truncate(self):
        # g = z + z^3 + z^4 has order n = 3 at 0, where the closed form above
        # gives -(0.25 - 0.3 + 0.7).  The kernel reads the jet of g(z) - z up
        # to index 2n - 1 = 5 whatever the padding, and refuses a shorter jet.
        act, g = poly_action([0.0, 1.0, 0.0, 1.0, 1.0])
        poly = F.fadd(
            F.fconst(0.7),
            F.fscale(F.fz(), 0.3),
            F.fscale(F.fmul(F.fz(), F.fz()), 0.25),
        )
        x = single0(act, g, F.bumped(poly, 0.0, 0.2, 0.35))
        for jet_order in range(5, 17):
            for pad in range(21):
                got = phi_trace(x, jet_order=jet_order, pad=pad).value
                assert abs(got - (-0.65)) < 1e-14, (jet_order, pad, got)
        for jet_order in range(5):
            with pytest.raises(F.UnsupportedOrderError, match="jet order"):
                phi_trace(x, jet_order=jet_order)

    def test_padding_invariance(self):
        act, g = poly_action([0.0, 1.0, 0.5, 0.25])
        f = rand_coeff(np.random.default_rng(7), 0.0, 0.2, 0.35)
        x = single0(act, g, f)
        base = phi_trace(x).value
        for pad in (1, 2):
            assert abs(phi_trace(x, pad=pad).value - base) < 1e-10

    def test_fixed_points_and_jets_found_once_per_map(self, monkeypatch):
        def element():
            act, g = poly_action([0.0, 1.0, 0.5, 0.25])
            f = rand_coeff(np.random.default_rng(7), 0.0, 0.2, 0.35)
            return single0(act, g, f).add(single0(act, act.compose(g, g), f))

        # each pad on an element of its own, whose maps have cached nothing
        want = [phi_trace(element(), pad=pad).value for pad in (0, 1, 2)]
        searches, jets = Counter(), Counter()
        find, jet_at = G._find_fixed_points, G.ConformalMap.jet_at

        def counted_find(g, region):
            searches[id(g), repr(region)] += 1
            return find(g, region)

        def counted_jet_at(g, z0, order):
            jets[id(g), complex(z0), order] += 1
            return jet_at(g, z0, order)

        monkeypatch.setattr(G, "_find_fixed_points", counted_find)
        monkeypatch.setattr(G.ConformalMap, "jet_at", counted_jet_at)
        x = element()
        assert [phi_trace(x, pad=pad).value for pad in (0, 1, 2)] == want
        assert len(searches) == 2 and set(searches.values()) == {1}
        assert jets and set(jets.values()) == {1}

    def test_plateau_error_when_not_flat(self):
        act, g = poly_action([0.0, 2.0])
        # transition annulus of the window crosses the fixed point at 0
        bad = F.bumped(F.fconst(1.0), 0.05, 0.01, 0.1)
        with pytest.raises(PlateauError):
            phi_trace(single0(act, g, bad))

    def test_plateau_error_through_compose(self):
        # the cutoff sits on its plateau at the fixed point 0, but the
        # pullback by z + 0.3 evaluates it at 0.3, inside its transition
        act, g = poly_action([0.0, 2.0])
        window = F.bumped(F.fz(), 0.0, 0.2, 0.4)
        assert F.plateau_safe(window, 0.0)
        bad = F.fpullback(F.fderiv(window, 1, 0), G.AffineMap(1.0, 0.3))
        assert isinstance(bad.expr, F.Compose)
        with pytest.raises(PlateauError):
            phi_trace(single0(act, g, bad))

    def test_plateau_error_through_deriv(self):
        act, g = poly_action([0.0, 2.0])
        flat = F.bumped(F.fconst(1.0), 0.0, 0.25, 0.45)
        bad = F.fmul(flat, F.fderiv(F.bumped(F.fz(), 0.05, 0.01, 0.1), 0, 1))
        with pytest.raises(PlateauError):
            phi_trace(single0(act, g, bad))


def _quadratic_window(cs):
    """bump(0, 0.3, 0.45) (c0 + c1 z + c2 z^2)."""
    poly = F.fadd(
        F.fconst(cs[0]),
        F.fscale(F.fz(), cs[1]),
        F.fscale(F.fmul(F.fz(), F.fz()), cs[2]),
    )
    return F.bumped(poly, 0.0, 0.3, 0.45)


def _single_fixed_point(g, region, order):
    pts = G.fixed_points(g, region)
    assert len(pts) == 1, pts
    assert G.automorphism_order(g, pts[0]).order == order
    return pts[0]


class TestSplitMultipleFixedPoints:
    """Rounding splits a fixed point of order n >= 2 into nearby candidates;
    each such point must come back once, with its true order."""

    @pytest.mark.parametrize("z1", [0.1 + 0.05j, 0.1])
    def test_double_root_off_origin(self, z1):
        # g = z + (z - z1)^2: the value is -a'(z1) = -c1
        act, g = poly_action([z1 * z1, 1.0 - 2.0 * z1, 1.0])
        z0 = _single_fixed_point(g.cmap, act.domain, 2)
        assert abs(z0 - z1) < 1e-9
        got = phi_trace(single0(act, g, _quadratic_window((0.7 - 0.2j, 1.3, 0.0))))
        assert abs(got.value - (-1.3)) < 1e-9

    def test_triple_root(self):
        # g = z + (z - z1)^3: the value is -a''(z1)/2 = -c2
        z1 = 0.1 + 0.05j
        act, g = poly_action([-(z1**3), 1.0 + 3.0 * z1 * z1, -3.0 * z1, 1.0])
        z0 = _single_fixed_point(g.cmap, act.domain, 3)
        assert abs(z0 - z1) < 1e-9
        cs = (0.4 - 0.2j, 1.1 + 0.6j, -0.8 + 0.3j)
        got = phi_trace(single0(act, g, _quadratic_window(cs)))
        assert abs(got.value - (0.8 - 0.3j)) < 1e-9

    def test_composed_map(self):
        # m o p with p = z + z^2/2, m = z/(0.3 z + 1): g - z = 0.2 z^2 (1 - 1.05 z
        # + ...), so z^2/(g - z) = 5 + 5.25 z + ... and the value is
        # -(5 c1 + 5.25 c0)
        act = G.FreeGeneratorsAction(
            {"p": G.PolyMap([0.0, 1.0, 0.5]), "m": G.MobiusMap([[1.0, 0.0], [0.3, 1.0]])},
            F.Disk(0.0, 0.6),
        )
        mp = act.compose(act.generator("m"), act.generator("p"))
        assert isinstance(mp.cmap, G.ChainMap)
        z0 = _single_fixed_point(mp.cmap, act.domain, 2)
        assert abs(z0) < 1e-9
        c0, c1 = 0.7 - 0.2j, 1.3
        got = phi_trace(single0(act, mp, _quadratic_window((c0, c1, 0.0))))
        assert abs(got.value - (-(5.0 * c1 + 5.25 * c0))) < 1e-9


def _fixed_roots_action(roots):
    """Polynomial germ with g(z) - z = prod (z - r) over the roots."""
    c = np.polynomial.polynomial.polyfromroots(roots).astype(complex)
    c[1] += 1.0
    return poly_action(list(c))


def _chain_action():
    """m o p with m = z / (1e-9 z + 1) and p = z + z^4."""
    act = G.FreeGeneratorsAction(
        {"p": G.PolyMap([0.0, 1.0, 0.0, 0.0, 1.0]),
         "m": G.MobiusMap([[1.0, 0.0], [1e-9, 1.0]])},
        F.Disk(0.0, 0.6),
    )
    mp = act.compose(act.generator("m"), act.generator("p"))
    assert isinstance(mp.cmap, G.ChainMap)
    return act, mp


class TestUnmergedClusterRaises:
    """Candidates that stay apart inside one cluster are too close for the
    simple-point formula: the trace refuses them instead of summing them."""

    @pytest.mark.parametrize("make, coeff", [
        (lambda: _fixed_roots_action([0.1, 0.1, 0.1005]),
         _quadratic_window((0.7 - 0.2j, 1.3, 0.4 + 0.1j))),
        (lambda: _fixed_roots_action([0.1, 0.1, 0.1005]), _quadratic_window((1.0, 0.0, 0.0))),
        (_chain_action, _quadratic_window((1.0, 0.0, 0.0))),
        (lambda: _fixed_roots_action([0.1, 0.1001, -0.2]), _quadratic_window((1.0, 0.0, 0.0))),
    ], ids=["double-and-simple", "double-and-simple-bump", "chain", "close-simple-roots"])
    def test_phi_trace_raises(self, make, coeff):
        act, g = make()
        with pytest.raises(G.FixedPointClusterError, match="do not merge"):
            phi_trace(single0(act, g, coeff))


class TestTraceProperty:
    def test_commutator_sample(self):
        act = std_mobius_action()
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rand_crossed(rng, act, ["a", "1"], size=2)
            y = rand_crossed(rng, act, ["b", "a"], size=2)
            fxy = phi_trace(x.mul(y)).value
            fyx = phi_trace(y.mul(x)).value
            assert abs(fxy - fyx) < 1e-9

    def test_linearity(self):
        act = std_mobius_action()
        rng = np.random.default_rng(12)
        x = rand_crossed(rng, act, ["a"], size=1)
        y = rand_crossed(rng, act, ["b"], size=1)
        s = 0.7 - 0.3j
        lhs = phi_trace(x.scale(s).add(y)).value
        assert abs(lhs - (s * phi_trace(x).value + phi_trace(y).value)) < 1e-10


class TestTransport:
    def test_conjugated_action_maps(self):
        act = std_mobius_action()
        h = G.MobiusMap([[1.0, 0.1], [0.05, 1.0]])
        conj = ConjugatedAction(act, h)
        a2 = conj.wrap(act.by_name("a"))
        z = 0.1 + 0.05j
        ga = act.by_name("a").cmap
        want = h.apply(ga.apply(h.inverse().apply(z)))
        assert abs(a2.cmap.apply(z) - want) < 1e-11

    def test_trace_invariant_under_transport(self):
        act = std_mobius_action()
        rng = np.random.default_rng(13)
        x = rand_crossed(rng, act, ["a", "b"], size=1)
        base = phi_trace(x).value
        for mat in ([[1.0, 0.1], [0.0, 1.0]], [[1.05, 0.02], [0.03, 0.98]]):
            h = G.MobiusMap(mat)
            _, moved = transport_coordinates(x, h)
            assert abs(phi_trace(moved).value - base) < 1e-9


class TestWordsVariant:
    def test_word_values_sum_to_collapsed_trace(self):
        act = std_mobius_action()
        rng = np.random.default_rng(14)
        x = rand_crossed(rng, act, ["a", "b"], size=1)
        w = WordCrossedForm.from_crossed(x, cap=4)
        prod = w.mul(w)
        per_word = phi_trace_words(prod)
        collapsed = phi_trace(prod.mu_image())
        assert abs(sum(per_word.values()) - collapsed.value) < 1e-10


class TestUnitIntegrals:
    def test_against_scipy(self):
        from loctrace.algebra import FormCoefficient

        act = kappa_action()
        f = rand_coeff(np.random.default_rng(15))
        x = CrossedForm.single(act, act.unit, [[FormCoefficient({(1, 1): f})]])
        got = integrate_units(x, tol=1e-9, max_depth=14)

        def re_im(fun):
            r, _ = si.dblquad(lambda y, xx: fun(xx + 1j * y).real, -0.5, 0.5, -0.5, 0.5, epsabs=1e-11)
            i, _ = si.dblquad(lambda y, xx: fun(xx + 1j * y).imag, -0.5, 0.5, -0.5, 0.5, epsabs=1e-11)
            return r + 1j * i

        # dz wedge dzbar carries the measure -2i dx dy
        want = -2j * re_im(lambda z: F.eval_field(f, z))
        assert abs(got.value - want) < 1e-7

    def test_blocks_are_all_taped(self, batches_never_interpreted):
        from loctrace.algebra import FormCoefficient

        act = kappa_action()
        f = rand_coeff(np.random.default_rng(18))
        x = CrossedForm.single(act, act.unit, [[FormCoefficient({(1, 1): f})]])
        assert integrate_units(x, tol=1e-8).value != 0

    def test_non_unit_labels_ignored(self):
        act = kappa_action()
        from loctrace.algebra import FormCoefficient

        f = rand_coeff(np.random.default_rng(16))
        base = CrossedForm.single(act, act.unit, [[FormCoefficient({(1, 1): f})]])
        extra = CrossedForm.single(
            act, act.by_name("c"), [[FormCoefficient({(1, 1): f})]]
        )
        a = integrate_units(base, tol=1e-8)
        b = integrate_units(base.add(extra), tol=1e-8)
        assert abs(a.value - b.value) < 1e-12

    def test_lower_degrees_contribute_nothing(self):
        act = kappa_action()
        from loctrace.algebra import FormCoefficient

        f = rand_coeff(np.random.default_rng(17))
        x = CrossedForm.single(act, act.unit, [[FormCoefficient({(1, 0): f})]])
        assert integrate_units(x, tol=1e-8).value == 0.0

    def test_nonconvergence_raises(self):
        from loctrace.algebra import FormCoefficient

        act = kappa_action()
        f = rand_coeff(np.random.default_rng(15))
        x = CrossedForm.single(act, act.unit, [[FormCoefficient({(1, 1): f})]])
        with pytest.raises(NonConvergenceError, match="unit integral"):
            integrate_units(x, tol=1e-12, max_depth=1)


def test_recording_a_todd_tape_leaves_no_garbage():
    # a Todd integrand over 2x2 matrix coefficients, larger than the
    # benchmark's: its tape's recorder and registers, and the walk that makes
    # its cache key, form no reference cycle, so all of it is freed at once
    # and nothing waits for the collector
    act = kappa_action()
    rng = np.random.default_rng(3)
    a0, a1, a2 = (rand_crossed(rng, act, n, size=2) for n in "ccv")
    x = a0.mul(diff_nabla(a1)).mul(diff_nabla(a2))
    (key,) = [k for k in x.terms if x.label_of(k).cmap.is_identity_germ()]
    expr = _diag_sum(x.terms[key], 1, 1).expr
    gc.collect()
    gc.disable()
    try:
        tape, structure = F._Tape(expr), F._structure(expr)
        assert len(tape.code) > 150 and len(structure) > 100
        del tape, structure
        assert gc.collect() == 0
        assert not any(isinstance(o, F._Reg) for o in gc.get_objects())
    finally:
        gc.enable()


def test_actions_leave_no_garbage():
    # labels refer to their action weakly, so an action with its labels,
    # maps, trees and fixed-point caches is freed by reference counting
    rng = np.random.default_rng(4)
    gc.collect()
    gc.disable()
    try:
        act = kappa_action()
        c, v = act.by_name("c"), act.by_name("v")
        x = single0(act, c, rand_coeff(rng)).mul(single0(act, v, rand_coeff(rng)))
        assert x.label_of(next(iter(x.terms))) is act.compose(c, v)
        phi_trace(x)
        mob = std_mobius_action()
        a, b = mob.by_name("a"), mob.by_name("b")
        ab = mob.compose(a, mob.compose(b, mob.inverse(a)))
        assert mob.compose(mob.compose(a, b), mob.inverse(a)) is ab
        free = G.FreeGeneratorsAction(
            {"s": G.MobiusMap([[1.0, 0.2], [0.3, 1.06]]), "t": G.AffineMap(0.5)},
            F.Disk(0.0, 0.6),
        )
        g = free.generator("s")
        word = free.compose(g, free.compose(free.generator("t"), free.inverse(g)))
        assert word.name == "s*t*s^-1" and free.compose(word, g).key[-1] == ("t", 1)
        phi_trace(single0(free, word, rand_coeff(rng)))
        h = G.MobiusMap([[1.0, 0.1], [0.05, 1.0]])
        act2, moved = transport_coordinates(single0(mob, ab, rand_coeff(rng)), h)
        assert isinstance(act2, ConjugatedAction) and moved.action is act2
        phi_trace(moved)
        del act, c, v, x, mob, a, b, ab, free, g, word, h, act2, moved
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestCoboundaryCombinators:
    class Toy:
        """Tiny matrix algebra so the combinators can be hand-checked."""

        def __init__(self, m):
            self.m = np.asarray(m, dtype=complex)

        def mul(self, other):
            return TestCoboundaryCombinators.Toy(self.m @ other.m)

    def test_hochschild_b_matches_hand_expansion(self):
        rng = np.random.default_rng(18)
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        mk = lambda: self.Toy(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        x, y, w = mk(), mk(), mk()

        def phi(p, q):
            return np.trace(p.m @ M @ q.m)

        got = hochschild_b(phi, [x, y, w])
        want = phi(x.mul(y), w) - phi(x, y.mul(w)) + phi(w.mul(x), y)
        assert abs(got - want) < 1e-12

    def test_hochschild_b_of_trace_is_zero(self):
        rng = np.random.default_rng(19)
        mk = lambda: self.Toy(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))

        def tau(p):
            return np.trace(p.m)

        assert abs(hochschild_b(tau, [mk(), mk()])) < 1e-12

    def test_cyclic_defect_sign(self):
        rng = np.random.default_rng(20)
        mk = lambda: self.Toy(rng.normal(size=(2, 2)))
        x, y = mk(), mk()

        def phi(p, q):
            return np.trace(p.m @ q.m) + 2.0 * np.trace(p.m) * np.trace(q.m)

        got = cyclic_defect(phi, [x, y])
        want = phi(x, y) - (-1.0) * phi(y, x)
        assert abs(got - want) < 1e-12


class TestDualRoutes:
    def setup_args(self, seed):
        act = kappa_action()
        rng = np.random.default_rng(seed)
        a0 = single0(act, act.by_name("c"), rand_coeff(rng))
        a1 = single0(act, act.by_name("c"), rand_coeff(rng))
        a2 = single0(act, act.by_name("v"), rand_coeff(rng))
        return act, a0, a1, a2

    def test_components_are_nonzero(self):
        _, a0, a1, a2 = self.setup_args(21)
        kw = dict(tol=1e-7, max_depth=12)
        fc = fundamental_class(a0, a1, a2, **kw)
        c1 = chern1(a0, a1, a2, **kw)
        td = todd(a0, a1, a2, **kw)
        assert abs(fc.value) > 1e-6
        assert abs(c1.value) > 1e-8
        assert abs(td.value) > 1e-6

    def test_dual_route_defect_small(self):
        _, a0, a1, a2 = self.setup_args(22)
        defect, direct, fc, c1 = todd_dual_defect(a0, a1, a2, tol=1e-7, max_depth=12)
        assert abs(c1.value) > 1e-9  # the second route is not vacuous
        assert defect < 2e-7

    def test_fundamental_class_cyclic(self):
        _, a0, a1, a2 = self.setup_args(23)
        kw = dict(tol=1e-7, max_depth=12)

        def phi(x, y, w):
            return fundamental_class(x, y, w, **kw)

        assert abs(cyclic_defect(phi, [a0, a1, a2])) < 4e-6

    def test_fundamental_class_hochschild_closed(self):
        act, a0, a1, a2 = self.setup_args(24)
        rng = np.random.default_rng(25)
        a3 = single0(act, act.unit, rand_coeff(rng))
        kw = dict(tol=1e-7, max_depth=12)

        def phi(x, y, w):
            return fundamental_class(x, y, w, **kw)

        assert abs(hochschild_b(phi, [a0, a1, a2, a3])) < 4e-6
