"""Truncated one- and two-variable series arithmetic, checked against sympy."""

import numpy as np
import pytest
import sympy as sp

from loctrace.jets import Jet1, Jet2, j_recip, valuation

Z = sp.symbols("z")


def sym_coeffs(expr, base, order):
    """Taylor coefficients of expr about base, via sympy."""
    out = []
    for k in range(order + 1):
        c = sp.diff(expr, Z, k).subs(Z, base) / sp.factorial(k)
        out.append(complex(c))
    return out


def jet_from_sym(expr, base, order):
    return Jet1(base, sym_coeffs(expr, base, order))


def assert_jets_close(a, b, tol=1e-11):
    assert a.base == b.base
    n = min(a.order, b.order)
    for k in range(n + 1):
        assert abs(a.coeff(k) - b.coeff(k)) < tol, (k, a.coeff(k), b.coeff(k))


def test_recip_against_sympy():
    rng = np.random.default_rng(7)
    ca = rng.normal(size=7) + 1j * rng.normal(size=7)
    ca[0] = 2.0 + 0.5j  # keep the constant term away from zero
    a = Jet1(0.0, list(ca))
    got = j_recip(a)
    fa = sum(complex(c) * Z ** k for k, c in enumerate(ca))
    want = jet_from_sym(1 / fa, 0.0, 6)
    assert_jets_close(got, want, tol=1e-10)
    # product with the original is the constant 1
    one = np.convolve(ca, got.coeffs)[:7]
    assert abs(one[0] - 1) < 1e-12
    for k in range(1, 7):
        assert abs(one[k]) < 1e-10


def test_recip_rejects_zero_constant():
    a = Jet1(0.0, [0.0, 1.0, 2.0])
    with pytest.raises(Exception):
        j_recip(a)


def test_valuation():
    assert valuation(Jet1(0.0, [0.0, 0.0, 3.0, 1.0])) == 2
    # leading coefficients far below the dominant scale count as zero
    assert valuation(Jet1(0.0, [1e-30, 0.0, 3.0])) == 2
    assert valuation(Jet1(0.0, [1e-3, 0.0, 3.0])) == 0
    assert valuation(Jet1(0.0, [5.0])) == 0


def test_map_jet_matches_direct_series():
    from loctrace.groupoid import MobiusMap

    g = MobiusMap([[1.0, 0.2], [0.5, 1.0]])
    z0 = 0.1 - 0.05j
    j = g.jet_at(z0, 6)
    a, b, c, d = 1.0, 0.2, 0.5, 1.0
    expr = (a * Z + b) / (c * Z + d)
    want = jet_from_sym(expr, z0, 6)
    assert_jets_close(j, want, tol=1e-10)
    # value and first derivative agree with direct evaluation
    assert abs(j.coeff(0) - g.apply(z0)) < 1e-14


class TestJet2:
    def test_coeff_layout(self):
        # f(z, zbar) = 1 + 2 z + 3 zbar + 4 z zbar about 0
        j = Jet2(0.0, 2, {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 3.0, (1, 1): 4.0})
        assert j.coeff(0, 0) == 1.0
        assert j.coeff(1, 0) == 2.0
        assert j.coeff(0, 1) == 3.0
        assert j.coeff(1, 1) == 4.0
        assert j.coeff(2, 0) == 0.0

    def test_restrict_z(self):
        j = Jet2(0.1, 2, {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 7.0, (2, 0): 5.0})
        r = j.restrict_z()
        assert isinstance(r, Jet1)
        assert r.base == 0.1
        assert r.coeff(0) == 1.0
        assert r.coeff(1) == 2.0
        assert r.coeff(2) == 5.0
