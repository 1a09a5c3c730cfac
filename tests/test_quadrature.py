"""Adaptive panel integration against closed forms and scipy."""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate as si

from loctrace import quadrature as Q
from loctrace.quadrature import BLOCK_POINTS, integrate_box, integrate_rect


def ring(x, y):
    # refines to levels of several blocks on (-2, 2, -2, 2) at tol=1e-10
    return np.exp(-20 * (np.hypot(x, y) - 1) ** 2) * (x + 0.3)


def test_rule_is_numpys_gauss_legendre_table():
    # the literal table is numpy's leggauss(8) to within 1 ulp on any machine
    # (equal, bit for bit, where it was written down)
    nodes, weights = np.polynomial.legendre.leggauss(Q.GL_ORDER)
    for got, want in ((Q._nodes, nodes), (Q._weights, weights)):
        assert got.dtype == np.float64 and got.shape == (Q.GL_ORDER,)
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    assert np.array_equal(Q._nodes[::-1], -Q._nodes)
    assert np.array_equal(Q._weights[::-1], Q._weights)
    assert np.all(np.diff(Q._nodes) > 0) and np.all(Q._weights > 0)


def test_rule_integrates_monomials_to_degree_15():
    # summed exactly, so the error is the table's alone: numpy's outer weight
    # is 58 ulps above the true one, which puts x^2 and x^4 off by 1.2e-15
    nodes = [Fraction(x) for x in Q._nodes.tolist()]
    weights = [Fraction(w) for w in Q._weights.tolist()]
    for k in range(2 * Q.GL_ORDER):
        exact = Fraction(2, k + 1) if k % 2 == 0 else 0
        got = sum(w * x**k for w, x in zip(weights, nodes))
        assert abs(got - exact) <= 1.5e-15, k
        assert k % 2 == 0 or got == 0


def test_integrating_imports_no_numpy_polynomial():
    # numpy imports numpy.polynomial only on first use: a process that
    # integrates never uses it, nor LAPACK, which leggauss would call
    src = Path(Q.__file__).resolve().parents[1]
    code = ("import sys, loctrace\n"
            "from loctrace import fields as F\n"
            "from loctrace.quadrature import integrate_box\n"
            "f = F.integrand(F.fmul(F.fz(), F.fzbar()))\n"
            "r = integrate_box(f, (0, 1, 0, 1), tol=1e-10)\n"
            "print(r.cells > 0, 'numpy.polynomial' in sys.modules)")
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "False"]


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


@pytest.mark.parametrize("max_depth", [0, -2])
def test_depth_below_one_raises(max_depth):
    # no level would compare two estimates, so nothing could be converged
    for integrate in (integrate_rect, integrate_box):
        with pytest.raises(ValueError, match="below 1"):
            integrate(lambda x, *y: 1.0 + 0 * x, (0, 1, 0, 1), max_depth=max_depth)


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


def _concatenated_cell_values(f_xy, cells):
    # the level's values as one join of fresh block arrays, as they were
    # computed before the level buffer
    x0, x1, y0, y1 = cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3]
    hx, hy = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
    cx, cy = 0.5 * (x1 + x0), 0.5 * (y1 + y0)
    n = Q.GL_ORDER

    def block(a):
        c = slice(a, a + Q._BLOCK_CELLS)
        X = cx[c, None, None] + hx[c, None, None] * Q._nodes[None, :, None]
        Y = cy[c, None, None] + hy[c, None, None] * Q._nodes[None, None, :]
        x = np.broadcast_to(X, (len(X), n, n)).reshape(-1)
        y = np.broadcast_to(Y, (len(X), n, n)).reshape(-1)
        return np.broadcast_to(np.asarray(f_xy(x, y), dtype=complex), x.shape)

    vals = np.concatenate([block(a) for a in range(0, len(cells), Q._BLOCK_CELLS)])
    w2 = np.outer(Q._weights, Q._weights)
    return (hx * hy) * np.einsum("nij,ij->n", vals.reshape(len(cells), n, n), w2)


@pytest.mark.parametrize("ncells", [1, 63, 64, 65, 129, 300])
def test_level_buffer_gives_the_concatenated_values(ncells):
    rng = np.random.default_rng(ncells)
    lo = rng.uniform(-2, 2, (ncells, 2))
    size = rng.uniform(1e-4, 1.0, (ncells, 2))
    cells = np.column_stack([lo[:, 0], lo[:, 0] + size[:, 0], lo[:, 1], lo[:, 1] + size[:, 1]])
    f_z = lambda z: np.exp(-z * z) / (2.5 + z)
    f_xy = lambda x, y: np.cos(3 * x) * np.exp(1j * y) + x * y
    stale = Q._Buffers()
    stale.vals = np.full(10 * 64 * ncells, np.nan + 0j)  # its old values must not show
    for bufs in (Q._Buffers(), stale):
        assert np.array_equal(Q._cell_values(f_xy, cells, bufs, False),
                              _concatenated_cell_values(f_xy, cells))
        assert np.array_equal(Q._cell_values(f_z, cells, bufs, True),
                              _concatenated_cell_values(lambda x, y: f_z(x + 1j * y), cells))
        assert np.array_equal(Q._cell_values(lambda x, y: 2.5, cells, bufs, False),
                              _concatenated_cell_values(lambda x, y: 2.5, cells))


def test_idle_buffers_hold_one_block(monkeypatch):
    # a level is reduced block by block, so no buffer grows with it
    levels = []
    cell_values = Q._cell_values
    monkeypatch.setattr(Q, "_cell_values",
                        lambda f, cells, *rest: levels.append(len(cells)) or cell_values(f, cells, *rest))
    f = lambda z: np.exp(-500 * (np.abs(z) - 1) ** 2)
    assert integrate_box(f, (-2, 2, -2, 2), tol=1e-10, max_depth=10).converged
    assert max(levels) >= 32 * Q._BLOCK_CELLS
    assert Q._IDLE
    for bufs in Q._IDLE:
        assert bufs.pts.nbytes <= BLOCK_POINTS * 16
        assert bufs.vals.nbytes <= BLOCK_POINTS * 16


def _address(a):
    return a.__array_interface__["data"][0]


def test_block_buffers_start_on_cache_lines():
    # malloc aligns to 16 bytes only, and glibc's mmap header puts a large
    # block at 16 mod 64, where every row of a block straddles cache lines
    for shape, dtype in [(1, complex), (4096, complex), (3, bool), (8193, float), ((2, 5), float)]:
        a = Q.empty_aligned(shape, dtype)
        assert a.shape == np.empty(shape).shape and a.dtype == dtype and _address(a) % 64 == 0
        a[:] = 1  # writable, and all of it
    bufs = Q._Buffers()
    assert _address(bufs.pts) % 64 == 0 and _address(bufs.vals) % 64 == 0
    assert len(bufs.pts) == len(bufs.vals) == BLOCK_POINTS


def _add_in_a_loop(total, parts):
    for p in parts:
        total += p
    return total


def _bits(x):
    return np.asarray(x, dtype=complex).reshape(1).view(np.uint64).tolist()


@pytest.mark.parametrize("seed", range(6))
def test_add_in_order_gives_the_loop_bits(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 40))
    parts = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-8, 9, (n, 2))
    # signed zeros, in the real and in the imaginary parts
    zero = rng.uniform(size=(n, 2)) < 0.3
    parts[zero] = np.where(rng.uniform(size=zero.sum()) < 0.5, -0.0, 0.0)
    parts = parts.view(complex).ravel()
    for total in (0j, complex(-0.0, -0.0), complex(-0.0, 0.0), complex(rng.normal(), -rng.normal())):
        assert _bits(Q._add_in_order(total, parts)) == _bits(_add_in_a_loop(total, parts))
        assert _bits(Q._add_in_order(total, parts[:0])) == _bits(total)
    for total in (0.0, -0.0, rng.normal()):
        got, want = Q._add_in_order(total, parts.real), _add_in_a_loop(total, parts.real)
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def test_nested_integrals_keep_their_own_buffers():
    # an integrand that itself integrates; both integrals have levels of
    # several blocks, so a shared buffer would be overwritten mid-level
    inner_f = lambda w: ring(w.real, w.imag)
    outer_f = lambda z: ring(z.real, z.imag) * (1 + 0.5j * z)
    rect = (-2, 2, -2, 2)
    inner = integrate_box(inner_f, rect, tol=1e-10)
    outer = integrate_box(outer_f, rect, tol=1e-8, max_depth=6)
    assert inner.cells > 8 * 64 and outer.cells > 4 * 64

    def nested(z):
        got = integrate_box(inner_f, rect, tol=1e-10)
        assert got.value == inner.value and got.cells == inner.cells
        return outer_f(z) * (got.value / inner.value)

    res = integrate_box(nested, rect, tol=1e-8, max_depth=6)
    assert res.value == outer.value and res.cells == outer.cells


def test_levels_allocate_no_level_sized_arrays(monkeypatch):
    # after a warm-up an integral allocates only block-sized temporaries and
    # its cells' bookkeeping (centres, sizes, children, sums: about a fifth
    # of a level's values), never a level's values
    levels = []
    cell_values = Q._cell_values
    monkeypatch.setattr(Q, "_cell_values",
                        lambda f, cells, *rest: levels.append(len(cells)) or cell_values(f, cells, *rest))
    f = lambda z: np.exp(-500 * (np.abs(z) - 1) ** 2)
    warm = integrate_box(f, (-2, 2, -2, 2), tol=1e-10, max_depth=10)
    monkeypatch.undo()
    level_bytes = max(levels) * 64 * 16
    assert level_bytes >= 32 * BLOCK_POINTS * 16
    tracemalloc.start()
    try:
        res = integrate_box(f, (-2, 2, -2, 2), tol=1e-10, max_depth=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.value == warm.value and res.cells == warm.cells
    assert peak < level_bytes / 4
