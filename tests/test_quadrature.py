"""Adaptive panel integration against closed forms and scipy."""

import numpy as np
from scipy import integrate as si

from loctrace.quadrature import integrate_box, integrate_rect

BLOCK_POINTS = 64 * 64  # 64 cells of 8 x 8 Gauss points


def ring(x, y):
    # refines to levels of several blocks on (-2, 2, -2, 2) at tol=1e-10
    return np.exp(-20 * (np.hypot(x, y) - 1) ** 2) * (x + 0.3)


def test_polynomial_closed_form():
    # int_0^1 int_0^1 (x^2 y + 3) dx dy = 1/6 + 3
    res = integrate_rect(lambda x, y: x * x * y + 3.0, (0, 1, 0, 1), tol=1e-12)
    assert res.converged
    assert abs(res.value - (1 / 6 + 3)) < 1e-12


def test_complex_integrand():
    # int over [0,1]^2 of (x + i y) dA = 1/2 + i/2
    res = integrate_rect(lambda x, y: x + 1j * y, (0, 1, 0, 1), tol=1e-12)
    assert abs(res.value - (0.5 + 0.5j)) < 1e-12


def test_gaussian_against_scipy():
    f = lambda x, y: np.exp(-3 * (x * x + y * y)) * np.cos(2 * x + y)
    res = integrate_rect(f, (-2, 2, -2, 2), tol=1e-10, max_depth=14)
    want, werr = si.dblquad(lambda y, x: f(x, y), -2, 2, -2, 2, epsabs=1e-12)
    assert res.converged
    assert abs(res.value - want) < 1e-9


def test_peaked_integrand_against_scipy():
    # sharp but smooth peak forces refinement
    f = lambda x, y: 1.0 / (1e-2 + x * x + y * y)
    res = integrate_rect(f, (-1, 1, -1, 1), tol=1e-9, max_depth=16)
    want, _ = si.dblquad(lambda y, x: f(x, y), -1, 1, -1, 1, epsabs=1e-12)
    assert res.converged
    assert abs(res.value - want) < 1e-7
    assert res.cells > 1  # refinement actually happened


def test_integrate_box_complex_variable():
    # same integral phrased over z
    res = integrate_box(lambda z: z.real**2 * z.imag + 3.0, (0, 1, 0, 1), tol=1e-12)
    assert abs(res.value - (1 / 6 + 3)) < 1e-12


def test_est_error_is_honest():
    f = lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y
    res = integrate_rect(f, (0, 2, 0, 2), tol=1e-10)
    want, _ = si.dblquad(lambda y, x: f(x, y), 0, 2, 0, 2, epsabs=1e-13)
    assert abs(res.value - want) <= max(res.est_error * 10, 1e-12)


def test_determinism():
    f = lambda x, y: np.exp(-(x * x + y * y)) / (1 + x * x)
    a = integrate_rect(f, (-1.5, 1.5, -1.5, 1.5), tol=1e-9)
    b = integrate_rect(f, (-1.5, 1.5, -1.5, 1.5), tol=1e-9)
    assert a.value == b.value
    assert a.cells == b.cells


def test_evaluation_calls_stay_within_one_block():
    # levels wider than one block are evaluated one block per call
    sizes = []

    def f(x, y):
        sizes.append(len(x))
        return ring(x, y)

    res = integrate_rect(f, (-2, 2, -2, 2), tol=1e-10)
    assert sum(sizes) == 64 * res.cells > 8 * BLOCK_POINTS
    assert max(sizes) <= BLOCK_POINTS


def test_scalar_integrand_broadcasts():
    # an integrand may return one scalar for all points of a call
    res = integrate_rect(lambda x, y: 1.0, (0, 1, 0, 1))
    assert res.converged
    assert abs(res.value - 1.0) < 1e-14


def test_nonconvergence_reported():
    # depth too small for the requested tolerance
    f = lambda x, y: 1.0 / (1e-6 + x * x + y * y)
    res = integrate_rect(f, (-1, 1, -1, 1), tol=1e-12, max_depth=2)
    assert not res.converged


def test_center_singularity_never_sampled():
    # integrand blows up only at the exact center of the box; the panel
    # rule must not place a node there
    def f(x, y):
        x, y = np.asarray(x), np.asarray(y)
        assert not np.any((x == 0.0) & (y == 0.0))
        return x * y

    res = integrate_rect(f, (-1, 1, -1, 1), tol=1e-10)
    assert abs(res.value) < 1e-12


def test_degenerate_rect_is_zero():
    res = integrate_rect(lambda x, y: 1.0, (1, 1, 0, 2), tol=1e-10)
    assert res.value == 0.0
