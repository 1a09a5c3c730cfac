"""Conformal germs, fixed points, local orders, and group actions."""

from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from loctrace import fields as F
from loctrace import groupoid as G
from loctrace.jets import Jet1

from conftest import kappa_action, std_mobius_action

Z = sp.symbols("z")


class TestMaps:
    def test_affine_apply_inverse(self):
        g = G.AffineMap(2.0 - 1j, 0.5)
        z = 0.3 + 0.7j
        w = g.apply(z)
        assert abs(w - ((2 - 1j) * z + 0.5)) < 1e-15
        assert abs(g.inverse().apply(w) - z) < 1e-14

    def test_mobius_apply_inverse_pole(self):
        g = G.MobiusMap([[1.0, 0.5], [1.0, 2.0]])
        z = 0.1 - 0.2j
        w = g.apply(z)
        assert abs(w - (z + 0.5) / (z + 2)) < 1e-15
        assert abs(g.inverse().apply(w) - z) < 1e-13
        assert abs(g.pole() - (-2.0)) < 1e-12

    def test_polymap_apply(self):
        g = G.PolyMap([0.0, 1.0, 0.0, 1.0])  # z + z^3
        z = 0.2 + 0.1j
        assert abs(g.apply(z) - (z + z**3)) < 1e-15

    def test_compose_maps(self):
        a = G.MobiusMap([[2.0, 0.0], [0.0, 1.0]])
        b = G.MobiusMap([[1.0, 0.0], [1.0, 1.0]])
        c = G.compose_maps(a, b)  # a after b
        z = 0.15 - 0.05j
        assert abs(c.apply(z) - a.apply(b.apply(z))) < 1e-14

    def test_composed_polymaps_have_polymul_bits(self):
        # Horner with numpy.polynomial's polymul is the reference: every
        # coefficient bit for bit, trailing zeros of either sign included
        from numpy.polynomial.polynomial import polymul

        def reference(g, h):
            comp = np.zeros(1, dtype=complex)
            for c in g.coeffs[::-1]:
                comp = polymul(comp, h.coeffs)
                comp[0] += c
            return comp

        rng = np.random.default_rng(17)
        zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        for k in range(40):
            maps = []
            for _ in range(2):
                n = rng.integers(2, 6)
                c = rng.normal(size=n) + 1j * rng.normal(size=n)
                c[rng.random(len(c)) < 0.3] = 0.0  # zeros inside too
                c[1] = c[1] or 1.0
                tail = [zeros[i] for i in rng.integers(0, 4, size=k % 4)]
                maps.append(G.PolyMap(np.concatenate([c, tail])))
            got = G.compose_maps(*maps).coeffs
            want = reference(*maps)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_identity_map(self):
        e = G.IdentityMap()
        assert e.apply(0.3j) == 0.3j
        assert e.is_identity_germ()

    def test_is_identity_germ_quotient(self):
        # -I gives the same map as I
        m = G.MobiusMap([[-1.0, 0.0], [0.0, -1.0]])
        assert m.is_identity_germ()

    def test_jet_at_matches_sympy(self):
        g = G.MobiusMap([[1.0, 0.2], [0.5, 1.0]])
        z0 = 0.1 + 0.05j
        j = g.jet_at(z0, 5)
        expr = (Z + sp.Rational(1, 5)) / (Z / 2 + 1)
        for k in range(6):
            want = complex(sp.diff(expr, Z, k).subs(Z, z0)) / float(sp.factorial(k))
            assert abs(j.coeff(k) - want) < 1e-12, k

    def test_g_prime_tree(self):
        g = G.MobiusMap([[1.0, 0.0], [1.0, 1.0]])  # z/(z+1), g' = 1/(z+1)^2
        t = F.ScalarField(g.g_prime_tree(), None)
        z = 0.2 - 0.1j
        assert abs(F.eval_field(t, z) - 1 / (z + 1) ** 2) < 1e-13

    def test_log_deriv_tree_closed_form(self):
        # g''/g' for z/(cz+1) is -2c/(cz+1)
        c = 0.4
        g = G.MobiusMap([[1.0, 0.0], [c, 1.0]])
        t = F.ScalarField(g.log_deriv_tree(), None)
        for z in (0.1, -0.2j, 0.05 + 0.15j):
            assert abs(F.eval_field(t, z) - (-2 * c) / (c * z + 1)) < 1e-12

    def test_log_deriv_cocycle_identity(self):
        # kappa(g2 o g1) = (kappa(g2) o g1) g1' + kappa(g1)
        rng = np.random.default_rng(2)
        for _ in range(5):
            m1 = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
            m2 = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
            g1 = G.MobiusMap(m1.tolist())
            g2 = G.MobiusMap(m2.tolist())
            comp = G.compose_maps(g2, g1)
            z = 0.07 - 0.03j
            ev = lambda t, w: F.eval_field(F.ScalarField(t, None), w)
            k1 = ev(g1.log_deriv_tree(), z)
            k2 = ev(g2.log_deriv_tree(), g1.apply(z))
            g1p = ev(g1.g_prime_tree(), z)
            lhs = ev(comp.log_deriv_tree(), z)
            assert abs(lhs - (k2 * g1p + k1)) < 1e-10

    def test_preimage_region(self):
        g = G.AffineMap(2.0, 0.0)
        r = g.preimage_region(F.Disk(0.0, 1.0))
        assert r.contains(0.4)
        assert not r.contains(0.6)


def _ev(tree, z):
    return F.eval_field(F.ScalarField(tree, None), z)


def _chain_parts():
    """A Mobius map m and a polynomial p; compose_maps keeps m o p a chain."""
    return G.MobiusMap([[1.0, 0.0], [0.3, 1.0]]), G.PolyMap([0.0, 1.0, 0.5])


def _sym_maps():
    """(map, sympy expression) pairs, one per map class."""
    m, p = _chain_parts()
    w = Z + Z**2 / 2
    return [
        (G.IdentityMap(), Z),
        (G.AffineMap(2.0 - 1j, 0.5), (2 - sp.I) * Z + sp.Rational(1, 2)),
        (G.MobiusMap([[1.0, 0.2], [0.5, 1.0]]), (Z + sp.Rational(1, 5)) / (Z / 2 + 1)),
        (G.PolyMap([0.1, 1.0, 0.5, 0.25]),
         sp.Rational(1, 10) + Z + Z**2 / 2 + Z**3 / 4),
        (G.ChainMap([m, p]), w / (sp.Rational(3, 10) * w + 1)),
    ]


@pytest.mark.parametrize(
    "g,expr", _sym_maps(), ids=["identity", "affine", "mobius", "poly", "chain"]
)
def test_jet_at_from_tree_matches_sympy_series(g, expr):
    # order 16 is the trace's jet order; it runs every term of the reciprocal
    z0 = 0.1 + 0.05j
    z0s = sp.Rational(1, 10) + sp.I / 20
    t = sp.symbols("t")
    ser = sp.expand(sp.series(sp.cancel(expr.subs(Z, z0s + t)), t, 0, 17).removeO())
    j = g.jet_at(z0, 16)
    assert j.order == 16
    for k in range(17):
        want = complex(ser.coeff(t, k))
        assert abs(j.coeff(k) - want) <= 1e-13 * max(1.0, abs(want)), k


class TestChainMap:
    Z_PTS = np.array([0.1 + 0.05j, -0.2 + 0.1j, 0.05 - 0.15j])

    def test_compose_maps_gives_a_chain(self):
        m, p = _chain_parts()
        g = G.compose_maps(m, p)
        assert isinstance(g, G.ChainMap)
        assert g.parts == (m, p)

    def test_apply_and_expr_tree(self):
        m, p = _chain_parts()
        g = G.ChainMap([m, p])
        z = self.Z_PTS
        w = z + 0.5 * z**2
        want = w / (0.3 * w + 1.0)
        assert np.max(np.abs(g.apply(z) - m.apply(p.apply(z)))) == 0.0
        assert np.max(np.abs(g.apply(z) - want)) < 1e-15
        assert np.max(np.abs(_ev(g.expr_tree(), z) - want)) < 1e-15

    def test_g_prime_tree_chain_rule(self):
        m, p = _chain_parts()
        g = G.ChainMap([m, p])
        z = self.Z_PTS
        w = p.apply(z)
        by_parts = _ev(m.g_prime_tree(), w) * _ev(p.g_prime_tree(), z)
        closed = (1.0 + z) / (0.3 * w + 1.0) ** 2
        got = _ev(g.g_prime_tree(), z)
        assert np.max(np.abs(got - by_parts)) < 1e-14
        assert np.max(np.abs(got - closed)) < 1e-14

    def test_log_deriv_tree_cocycle_identity(self):
        # kappa(m o p) = (kappa(m) o p) p' + kappa(p)
        m, p = _chain_parts()
        g = G.ChainMap([m, p])
        z = self.Z_PTS
        w = p.apply(z)
        want = _ev(m.log_deriv_tree(), w) * (1.0 + z) + 1.0 / (1.0 + z)
        assert np.max(np.abs(_ev(g.log_deriv_tree(), z) - want)) < 1e-13

    def test_log_abs_deriv_sq_tree(self):
        m, p = _chain_parts()
        g = G.ChainMap([m, p])
        z = self.Z_PTS
        gp = (1.0 + z) / (0.3 * p.apply(z) + 1.0) ** 2
        want = np.log(np.abs(gp) ** 2)
        assert np.max(np.abs(_ev(g.log_abs_deriv_sq_tree(), z) - want)) < 1e-13

    def test_jet_at_matches_sympy(self):
        m, p = _chain_parts()
        g = G.ChainMap([m, p])
        z0 = 0.1 + 0.05j
        j = g.jet_at(z0, 6)
        w = Z + Z**2 / 2
        expr = w / (sp.Rational(3, 10) * w + 1)
        for k in range(7):
            want = complex(sp.diff(expr, Z, k).subs(Z, z0)) / float(sp.factorial(k))
            assert abs(j.coeff(k) - want) < 1e-12, k

    def test_is_identity_germ(self):
        m, p = _chain_parts()
        assert not G.ChainMap([m, p]).is_identity_germ()
        assert not G.ChainMap([p, m]).is_identity_germ()
        assert G.ChainMap([m.inverse(), m]).is_identity_germ()
        assert G.ChainMap([m, G.IdentityMap(), m.inverse()]).is_identity_germ()


def _tree_nodes(tree):
    seen, stack = {}, [tree]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            for slot in type(n).__slots__:
                v = getattr(n, slot)
                stack.extend(c for c in (v if isinstance(v, tuple) else (v,))
                             if isinstance(c, F.Node))
    return list(seen.values())


TREE_METHODS = ("expr_tree", "g_prime_tree", "log_deriv_tree", "log_abs_deriv_sq_tree")
MAP_MAKERS = {
    "identity": lambda: G.IdentityMap(),
    "affine": lambda: G.AffineMap(2.0 - 1j, 0.5),
    "mobius": lambda: G.MobiusMap([[1.0, 0.5], [1.0, 2.0]]),
    "poly": lambda: G.PolyMap([0.1, 1.0, 0.5, 0.2]),
    "chain": lambda: G.ChainMap(list(_chain_parts())),
}


class TestTreesBuiltOnce:
    @pytest.mark.parametrize("kind", sorted(MAP_MAKERS))
    def test_every_call_returns_the_same_tree(self, kind):
        g = MAP_MAKERS[kind]()
        for name in TREE_METHODS:
            first = getattr(g, name)()
            assert getattr(g, name)() is first, name

    def test_mobius_trees_share_one_recip(self):
        g = MAP_MAKERS["mobius"]()
        recips = {
            id(n)
            for t in (g.expr_tree(), g.g_prime_tree(), g.log_deriv_tree())
            for n in _tree_nodes(t)
            if isinstance(n, F.Recip)
        }
        assert len(recips) == 1


class TestPsl2:
    def test_canonical_normalization(self):
        m = G.canonical_psl2([[2.0, 0.0], [0.0, 2.0]])
        arr = np.array(m, dtype=complex)
        assert abs(np.linalg.det(arr) - 1.0) < 1e-12

    def test_sign_quotient(self):
        # canonical form identifies m with -m
        a = G.canonical_psl2([[1.0, 0.5], [0.0, 1.0]])
        b = G.canonical_psl2([[-1.0, -0.5], [0.0, -1.0]])
        assert G.psl2_equal(a, b)
        c = G.canonical_psl2([[1.0, 0.6], [0.0, 1.0]])
        assert not G.psl2_equal(a, c)


class TestFixedPoints:
    def test_dilation(self):
        g = G.MobiusMap([[2.0, 0.0], [0.0, 1.0]])
        fps = list(G.fixed_points(g, F.Disk(0.0, 0.5)))
        assert len(fps) == 1
        assert abs(fps[0]) < 1e-12

    def test_translation_has_none(self):
        g = G.AffineMap(1.0, 0.3)
        assert list(G.fixed_points(g, F.Disk(0.0, 1.0))) == []

    def test_generic_mobius_against_quadratic_roots(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = np.eye(2) + 0.6 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            g = G.MobiusMap(m.tolist())
            region = F.Disk(0.0, 2.0)
            got = sorted(G.fixed_points(g, region), key=lambda z: (z.real, z.imag))
            a, b = m[0]
            c, d = m[1]
            roots = np.roots([c, d - a, -b]) if abs(c) > 1e-14 else (
                np.array([b / (1 - a)]) if abs(1 - a) > 1e-14 else np.array([])
            )
            want = sorted(
                (complex(r) for r in roots
                 if region.contains(complex(r)) and abs(g.apply(complex(r)) - r) < 1e-8),
                key=lambda z: (z.real, z.imag),
            )
            assert len(got) == len(want)
            for u, v in zip(got, want):
                assert abs(u - v) < 1e-8

    def test_parabolic_conjugated(self):
        # conjugating a parabolic keeps exactly one fixed point
        p = np.array([[1.0, 0.0], [0.7, 1.0]])
        h = np.array([[1.1, 0.3], [-0.2, 1.0]])
        m = h @ p @ np.linalg.inv(h)
        g = G.MobiusMap(m.tolist())
        fps = list(G.fixed_points(g, F.Disk(0.0, 3.0)))
        assert len(fps) == 1
        z0 = fps[0]
        assert abs(g.apply(z0) - z0) < 1e-9

    def test_polymap_against_roots(self):
        g = G.PolyMap([0.0, 0.5, 1.0])  # 0.5 z + z^2; g(z)=z at 0 and 0.5
        fps = sorted(G.fixed_points(g, F.Disk(0.0, 1.0)), key=lambda z: z.real)
        assert len(fps) == 2
        assert abs(fps[0] - 0.0) < 1e-10
        assert abs(fps[1] - 0.5) < 1e-10

    def test_no_lapack_to_degree_two(self, monkeypatch):
        # zero roots are stripped and linear and quadratic cores are solved
        # in closed form; only a cubic core or higher reaches numpy.roots
        def no_roots(p):
            raise AssertionError(f"numpy.roots reached with {p}")

        germs = [  # criterion 5's, with their fixed points in the disk of radius 3
            ([0.0, 2.0], 1), ([0.0, 1.0, 1.0], 1), ([0.0, 1.0, 0.5, 0.25], 2),
            ([0.0, 1.0, 0.0, 1.0, 0.3], 1),
        ]
        maps = [
            (G.MobiusMap([[1.5 + 0.5j, 0.25], [1.0, 0.5 - 0.5j]]), 2),  # loxodromic
            (G.AffineMap(2.0, 0.3), 1),
            *((G.PolyMap(c), count) for c, count in germs),
            (G.PolyMap([0.3, 1.0]), 0),  # core of degree 0
            (G.PolyMap([0.2, 0.5]), 1),  # degree 1
            (G.PolyMap([0.06, 0.5, 1.0]), 2),  # degree 2: 0.2 and 0.3
        ]
        monkeypatch.setattr(np, "roots", no_roots)
        for g, count in maps:
            fps = G.fixed_points(g, F.Disk(0.0, 3.0))
            assert len(fps) == count, g
            assert all(abs(g.apply(z) - z) < 1e-12 for z in fps), g

    def test_cubic_core_keeps_numpy_roots_bits(self, monkeypatch):
        c = np.polynomial.polynomial.polyfromroots([0.1, -0.2, 0.35]).astype(complex)
        c[1] += 1.0
        calls, roots = [], np.roots
        monkeypatch.setattr(np, "roots", lambda p: calls.append(p) or roots(p))
        got = sorted(G.fixed_points(G.PolyMap(c), F.Disk(0.0, 1.0)), key=lambda z: z.real)
        (core,) = calls
        assert len(core) == 4
        assert got == sorted(map(complex, roots(core)), key=lambda z: z.real)
        assert np.allclose(got, [-0.2, 0.1, 0.35], atol=1e-14)

    def test_discriminant_is_correctly_rounded(self):
        rng = np.random.default_rng(23)
        for i in range(2000):
            a, b, c = (complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-6, 6)
                       for _ in range(3))
            if i % 2:  # b^2 within a few ulps of 4ac: all but the last bits cancel
                r = complex(*rng.normal(size=2))
                b, c = -2.0 * a * r * (1.0 + 1e-12 * rng.normal()), a * r * r
            br, bi, ar, ai, cr, ci = map(
                Fraction, (b.real, b.imag, a.real, a.imag, c.real, c.imag)
            )
            want = complex(float(br * br - bi * bi - 4 * (ar * cr - ai * ci)),
                           float(2 * br * bi - 4 * (ar * ci + ai * cr)))
            assert G._discriminant(a, b, c) == want

    def test_closed_form_roots_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(19)

        def rel_errors(got, p):
            a, b, c = (mp.mpc(complex(e)) for e in p)
            sq = mp.sqrt(b * b - 4 * a * c)
            out = []
            for w in ((-b + sq) / (2 * a), (-b - sq) / (2 * a)):
                near = min(got, key=lambda z: abs(mp.mpc(z) - w))
                out.append(float(abs(mp.mpc(near) - w) / abs(w)))
            return out

        closed, lapack = [], []
        with mp.workdps(40):
            for i in range(500):
                z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                if i % 3 == 0:  # generic
                    m = z
                elif i % 3 == 1:  # near the identity
                    m = np.eye(2) + 10.0 ** rng.uniform(-6, -1) * z
                else:  # near a conjugated parabolic
                    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                    par = [[1.0, 0.0], [rng.normal() + 1j * rng.normal(), 1.0]]
                    m = h @ par @ np.linalg.inv(h) + 10.0 ** rng.uniform(-6, -1) * z
                g = G.MobiusMap(m)
                if abs(g.c) <= 1e-14 or abs((g.a + g.d) ** 2 - 4.0) <= G.PSL2_ATOL:
                    continue
                p = [g.c, g.d - g.a, -g.b]
                closed += rel_errors(G._roots(p), p)
                lapack += rel_errors(list(np.roots(p)), p)
        assert len(closed) > 900
        assert max(closed) <= 1e-15
        assert np.median(closed) <= np.median(lapack)
        for _ in range(200):  # linear cores, with and without zero roots
            p = rng.normal(size=2) + 1j * rng.normal(size=2)
            for q in (p, [*p, 0.0, 0.0], [0.0, *p]):
                assert G._roots(q) == [complex(r) for r in np.roots(q)]


class TestLocalOrder:
    def test_hyperbolic_order_one(self):
        g = G.MobiusMap([[2.0, 0.0], [0.0, 1.0]])
        aut = G.automorphism_order(g, 0.0)
        assert aut.order == 1
        assert abs(aut.d_jet.coeff(1) + 1 - 2.0) < 1e-12  # multiplier 2

    def test_tangent_to_identity_orders(self):
        aut = G.automorphism_order(G.PolyMap([0.0, 1.0, 1.0]), 0.0)  # z + z^2
        assert aut.order == 2
        aut3 = G.automorphism_order(G.PolyMap([0.0, 1.0, 0.0, 1.0]), 0.0)  # z + z^3
        assert aut3.order == 3

    def test_order_cap_respected(self):
        g = G.PolyMap([0.0, 1.0] + [0.0] * 8 + [1.0])  # z + z^10
        with pytest.raises(Exception):
            G.automorphism_order(g, 0.0)

    def test_trace_coefficient_padding_invariance(self):
        # a-jets of orders n - 1 to n + 1 must give the same functional
        g = G.PolyMap([0.0, 1.0, 0.3, 0.1])
        aut = G.automorphism_order(g, 0.0)
        n = aut.order
        coeffs = [0.7 - 0.2j, 0.1j, 0.25, 0.0, 0.0]
        base = aut.trace_coefficient(Jet1(0.0, coeffs[:n]))
        assert base != 0
        for pad in (1, 2):
            assert aut.trace_coefficient(Jet1(0.0, coeffs[: n + pad])) == base

    def test_trace_coefficient_simple_closed_form(self):
        # multiplier lam at the fixed point: value a(z0)/(1 - lam)
        lam = 0.5 + 0.5j
        g = G.MobiusMap([[lam, 0.0], [0.0, 1.0]])
        aut = G.automorphism_order(g, 0.0)
        a_jet = Jet1(0.0, [2.0 - 1j, 0.3, 0.1])
        got = aut.trace_coefficient(a_jet)
        assert abs(got - (2.0 - 1j) / (1 - lam)) < 1e-12

    def test_trace_coefficient_higher_order_series_oracle(self):
        # independent route: series-divide (z - z0)^m by (g(z) - z) with
        # sympy, then take -sum_j H_j a_{m-1-j}
        g = G.PolyMap([0.0, 1.0, 0.5, 0.25])
        aut = G.automorphism_order(g, 0.0)
        n = aut.order
        assert n == 2
        coeffs = [1.0 + 0.5j, -0.3, 0.2j, 0.1, 0.0]
        a_jet = Jet1(0.0, coeffs)
        expr = Z**n / (sp.Rational(1, 2) * Z**2 + sp.Rational(1, 4) * Z**3)
        ser = sp.series(expr, Z, 0, n).removeO()
        H = [complex(ser.coeff(Z, k)) for k in range(n)]
        want = -sum(H[j] * coeffs[n - 1 - j] for j in range(n))
        got = aut.trace_coefficient(a_jet)
        assert abs(got - want) < 1e-11


class TestActions:
    def test_trivial_action(self):
        act = G.trivial_action(F.Disk(0.0, 1.0))
        u = act.unit
        assert u.cmap.is_identity_germ()
        assert act.compose(u, u) == u

    def test_mobius_action_compose_inverse(self):
        act = std_mobius_action()
        a = act.by_name("a")
        b = act.by_name("b")
        ab = act.compose(a, b)  # apply b then a... fixed convention below
        z = 0.1 + 0.05j
        # whichever order compose uses, it must be consistent with cmap
        lhs = ab.cmap.apply(z)
        assert (
            abs(lhs - a.cmap.apply(b.cmap.apply(z))) < 1e-12
            or abs(lhs - b.cmap.apply(a.cmap.apply(z))) < 1e-12
        )
        ai = act.inverse(a)
        assert act.compose(a, ai) == act.unit
        assert act.compose(ai, a) == act.unit

    def test_mobius_action_dedupes_to_unit(self):
        act = kappa_action()
        c = act.by_name("c")
        v = act.by_name("v")
        prod = act.compose(act.compose(v, c), c)
        assert prod == act.unit  # v.c.c collapses to the identity germ

    def test_free_action_reduction(self):
        act = G.FreeGeneratorsAction(
            [("s", G.AffineMap(2.0, 0.0))], F.Disk(0.0, 1.0)
        )
        s = act.generator("s")
        si = act.inverse(s)
        assert act.compose(s, si) == act.unit
        ss = act.compose(s, s)
        assert ss != s
        z = 0.1
        assert abs(ss.cmap.apply(z) - 4 * z) < 1e-13

    def test_free_action_distinct_words_same_map(self):
        # two distinct words can induce equal germs yet stay distinct labels
        act = G.FreeGeneratorsAction(
            [("s", G.AffineMap(1.0, 0.1)), ("t", G.AffineMap(1.0, 0.1))],
            F.Disk(0.0, 1.0),
        )
        s, t = act.generator("s"), act.generator("t")
        assert s != t
        assert abs(s.cmap.apply(0.2) - t.cmap.apply(0.2)) < 1e-15

    def test_label_refers_to_its_action_weakly(self):
        act = kappa_action()
        c = act.by_name("c")
        assert c.action.compose(c, act.unit) is c
        del act
        with pytest.raises(ReferenceError):
            c.action.unit

    def test_cyclic_action(self):
        th = 2 * np.pi / 3
        rot = G.MobiusMap([[np.exp(1j * th), 0.0], [0.0, 1.0]])
        act = G.FiniteCyclicAction(rot, 3, F.Disk(0.0, 1.0))
        r1 = act.by_name("r1")
        r2 = act.compose(r1, r1)
        assert act.compose(r2, r1) == act.unit
        assert act.inverse(r1) == r2
        assert act.by_name("1") == act.unit
        assert len({act.by_name(n) for n in ("1", "r1", "r2")}) == 3
        with pytest.raises(KeyError):
            act.by_name("r3")


def test_dedupe_matches_pairwise_loop():
    # the 1,024 Newton candidates of a chain whose fixed points crowd together
    g = G.compose_maps(G.MobiusMap([[1.0, 0.0], [1e-9, 1.0]]), G.PolyMap([0, 1, 0, 0, 1]))
    region = F.Disk(0.0, 0.6)
    cands = [complex(p) for p in G._newton_fixed_points(g, region)
             if bool(np.all(region.contains(p)))]
    assert len(cands) == 1024
    # and with near copies of every seventh one, which must be dropped
    for pts in (cands, cands + [p + 1e-10j for p in cands[::7]]):
        want = []
        for p in sorted(pts, key=lambda w: (round(w.real, 12), round(w.imag, 12))):
            if all(abs(p - q) > G.FIXPOINT_DEDUPE for q in want):
                want.append(p)
        assert len(want) == 1024
        assert [repr(p) for p in G._dedupe(pts)] == [repr(p) for p in want]
