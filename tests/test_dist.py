"""Renormalized kernels against hand-rolled polar oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from loctrace import dist as D
from loctrace import fields as F
from loctrace import groupoid as G
from loctrace.dist import (
    N_MAX,
    NonConvergenceError,
    RenormKernel,
    _cauchy_pair,
    check_covariance,
    check_dolbeault,
    pair_kernel,
)
from loctrace.quadrature import integrate_box, integrate_rect

from conftest import smooth_phi

QKW = dict(tol=1e-8, max_depth=14)


def polar_n1_oracle(z0, phi, R, nr=400, nth=512):
    """(1/pi) integral of phi/(z - z0): polar measure cancels the pole."""
    xs, ws = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * R * (xs + 1.0)
    wr = 0.5 * R * ws
    th = np.linspace(0.0, 2 * np.pi, nth, endpoint=False)
    total = 0j
    for t in th:
        zs = z0 + r * np.exp(1j * t)
        vals = np.array([F.eval_field(phi, complex(z)) for z in zs])
        total += np.exp(-1j * t) * np.sum(vals * wr)
    return total * (2 * np.pi / nth) / np.pi


def polar_n2_oracle(z0, phi, R, nr=400, nth=512):
    """Principal-value route for the first derivative kernel: the angular
    average of e^(-2 i theta) phi kills the 1/r divergence termwise."""
    xs, ws = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * R * (xs + 1.0)
    wr = 0.5 * R * ws
    th = np.linspace(0.0, 2 * np.pi, nth, endpoint=False)
    radial = np.zeros_like(r, dtype=complex)
    for t in th:
        zs = z0 + r * np.exp(1j * t)
        vals = np.array([F.eval_field(phi, complex(z)) for z in zs])
        radial += np.exp(-2j * t) * vals
    radial *= 2 * np.pi / nth
    return -np.sum(radial / r * wr) / np.pi


class TestKernelObject:
    def test_ctor_validation(self):
        with pytest.raises(ValueError):
            RenormKernel(0, 0.0)
        with pytest.raises(ValueError):
            RenormKernel(N_MAX + 1, 0.0)
        k = RenormKernel(3, 0.1 + 0.2j, shift=1j)
        assert k.n == 3 and k.shift == 1j

    def test_unbounded_test_function_rejected(self):
        k = RenormKernel(1, 0.0)
        with pytest.raises(ValueError):
            pair_kernel(k, F.fmul(F.fz(), F.fz()), **QKW)

    def test_nonconvergence_raises(self):
        k = RenormKernel(1, 0.0)
        phi = smooth_phi()
        with pytest.raises(NonConvergenceError):
            pair_kernel(k, phi, tol=1e-12, max_depth=1)


def cauchy_pair_oracle(z0, psi, tol, max_depth):
    # the split pairing with fresh arrays on every block
    x0, x1, y0, y1 = psi.support.bbox()
    r_cut = 0.35 * math.hypot(x1 - x0, y1 - y0)
    r_pl = 0.5 * r_cut
    chi = F.bump_field(z0, r_pl, r_cut)
    near = F.fmul(chi, psi)
    far = F.fmul(F.fadd(F.fone(), F.fneg(chi)), psi)

    def f_polar(r, th):
        e = np.exp(1j * th)
        return np.conj(e) * F.eval_field(near, z0 + r * e)

    def f_far(z):
        vals = F.eval_field(far, z)
        den = z - z0
        safe = den.real * den.real + den.imag * den.imag > (0.5 * r_pl) * (0.5 * r_pl)
        return np.where(safe, vals / np.where(safe, den, 1.0), 0.0)

    polar = integrate_rect(f_polar, (0.0, r_cut, 0.0, 2.0 * math.pi), tol, max_depth)
    far = integrate_box(f_far, (x0, x1, y0, y1), tol, max_depth)
    return 0j + polar.value + far.value, [polar, far]


def _recorded(monkeypatch, module, name):
    """The integrands and results of every call of module.name from now on."""
    calls = []
    orig = getattr(module, name)

    def recording(f, *args):
        res = orig(f, *args)
        calls.append((f, res))
        return res

    monkeypatch.setattr(module, name, recording)
    return calls


@pytest.mark.parametrize("z0", [0.0, 0.05 - 0.1j, 0.45 + 0.2j, 1.5])
def test_cauchy_pair_gives_the_oracle_bits(z0, monkeypatch):
    psi = smooth_phi()
    want, parts = cauchy_pair_oracle(z0, psi, **QKW)
    polar = _recorded(monkeypatch, D, "integrate_rect")
    far = _recorded(monkeypatch, D, "integrate_box")
    got, _ = _cauchy_pair(z0, psi, **QKW)
    assert got == want
    if not polar:  # the near part is structurally zero and not integrated
        assert parts[0].value == 0
        parts = parts[1:]
    # each part on its own: the polar and the far integral, bit for bit
    for (_, res), oracle in zip(polar + far, parts, strict=True):
        assert (res.value, res.est_error, res.cells) == (
            oracle.value, oracle.est_error, oracle.cells)


@pytest.mark.parametrize("part", [0, 1], ids=["polar", "far"])
def test_cauchy_pair_integrands_allocate_no_block_arrays(part, monkeypatch):
    # after its first block an integrand computes in its own block scratch:
    # a 4,096-point call allocates less than a quarter of one block's values
    calls = _recorded(monkeypatch, D, ("integrate_rect", "integrate_box")[part])
    _cauchy_pair(0.05 - 0.1j, smooth_phi(), **QKW)
    (f, _), = calls
    rng = np.random.default_rng(3)
    r, th = rng.uniform(0.0, 0.5, 4096), rng.uniform(0.0, 2.0 * math.pi, 4096)
    args = (r, th) if part == 0 else (r * np.exp(1j * th),)
    want = f(*args).copy()
    tracemalloc.start()
    try:
        got = f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 4096 * 16 / 4


@pytest.mark.parametrize("part", [0, 1], ids=["polar", "far"])
def test_cauchy_pair_scratch_starts_on_a_cache_line(part, monkeypatch):
    # an integrand returns its block of values in its own scratch
    calls = _recorded(monkeypatch, D, ("integrate_rect", "integrate_box")[part])
    _cauchy_pair(0.05 - 0.1j, smooth_phi(), **QKW)
    (f, _), = calls
    r, th = np.linspace(0.0, 0.5, 999), np.linspace(0.0, 6.0, 999)
    got = f(r, th) if part == 0 else f(r * np.exp(1j * th))
    assert len(got) == 999 and got.__array_interface__["data"][0] % 64 == 0


def test_blocks_are_all_taped(batches_never_interpreted):
    # the anchor inside the support, so both the near and the far parts run
    got, _ = _cauchy_pair(0.05 - 0.1j, smooth_phi(), **QKW)
    assert got != 0


class TestOrderOne:
    def test_against_polar_oracle(self):
        z0 = 0.05 - 0.1j
        phi = smooth_phi()
        got = pair_kernel(RenormKernel(1, z0), phi, **QKW)
        want = polar_n1_oracle(z0, phi, R=0.8)
        assert abs(got - want) < 1e-7

    def test_support_far_from_anchor(self):
        # anchor outside the support: plain absolutely convergent integral
        z0 = 1.5
        phi = smooth_phi()
        got = pair_kernel(RenormKernel(1, z0), phi, **QKW)
        want = polar_n1_oracle(z0, phi, R=2.2)
        assert abs(got - want) < 1e-6

    def test_linearity(self):
        z0 = 0.02j
        p1 = smooth_phi(cs=(1.0, 0.2, 0.0, 0.0))
        p2 = smooth_phi(cs=(0.0, 0.5j, 0.3, 0.1))
        a, b = 0.7 - 0.1j, 1.2
        k = RenormKernel(1, z0)
        lhs = pair_kernel(k, F.fadd(F.fscale(p1, a), F.fscale(p2, b)), **QKW)
        rhs = a * pair_kernel(k, p1, **QKW) + b * pair_kernel(k, p2, **QKW)
        assert abs(lhs - rhs) < 1e-8


class TestOrderTwo:
    def test_against_pv_oracle(self):
        z0 = 0.0
        phi = smooth_phi()
        got = pair_kernel(RenormKernel(2, z0), phi, **QKW)
        want = polar_n2_oracle(z0, phi, R=0.65)
        assert abs(got - want) < 1e-7

    def test_even_test_function_pairs_to_zero(self):
        # kernel is odd around its anchor; radially even input must vanish
        z0 = 0.0
        phi = F.bumped(
            F.fadd(F.fconst(1.0), F.fscale(F.fmul(F.fz(), F.fzbar()), 0.6)),
            0.0, 0.3, 0.6,
        )
        got = pair_kernel(RenormKernel(1, z0), phi, **QKW)
        assert abs(got) < 1e-10

    def test_shift_adds_point_mass(self):
        z0 = 0.05 + 0.1j
        c = 0.37 - 1.21j
        phi = smooth_phi()
        base = pair_kernel(RenormKernel(2, z0), phi, **QKW)
        moved = pair_kernel(RenormKernel(2, z0, shift=c), phi, **QKW)
        want = c * F.eval_field(phi, z0)
        assert abs((moved - base) - want) < 1e-12


class TestHigherOrders:
    @pytest.mark.parametrize("n", [3, 4])
    def test_parts_against_explicit_derivative(self, n):
        # pairing must equal the order-one pairing of the flipped-parts
        # derivative of the test function
        z0 = 0.03 - 0.02j
        phi = smooth_phi()
        dphi = F.fderiv(phi, n - 1, 0)
        got = pair_kernel(RenormKernel(n, z0), phi, **QKW)
        via_parts = pair_kernel(RenormKernel(1, z0), dphi, **QKW)
        assert abs(got - (-1.0) ** (n - 1) * via_parts) < 1e-7


class TestDolbeault:
    @pytest.mark.parametrize("z0", [0.08 - 0.03j, 0.0, -0.12 + 0.09j])
    def test_identity_defect_small(self, z0):
        phi = smooth_phi()
        lhs, rhs, defect = check_dolbeault(z0, phi, **QKW)
        assert abs(rhs - F.eval_field(phi, z0)) < 1e-14
        assert defect < 1e-7

    def test_nontrivial_values(self):
        phi = smooth_phi()
        lhs, rhs, defect = check_dolbeault(0.05, phi, **QKW)
        assert abs(rhs) > 0.1  # the check is not vacuous


class TestCovariance:
    def test_affine_order_one(self):
        h = G.AffineMap(2.0, 0.1)
        z0 = 0.04 + 0.02j
        phi = smooth_phi(center=z0, r_pl=0.25, r_sup=0.5)
        d = check_covariance(1, h, z0, phi, **QKW)
        assert d < 1e-7

    def test_affine_order_two(self):
        h = G.AffineMap(2.0, 0.0)
        phi = smooth_phi()
        d = check_covariance(2, h, 0.0, phi, **QKW)
        assert d < 1e-7

    def test_mobius_order_three(self):
        h = G.MobiusMap([[1.0, 0.0], [1.0, 1.0]])
        z0 = 0.02
        phi = smooth_phi(center=0.0, r_pl=0.2, r_sup=0.4)
        d = check_covariance(3, h, z0, phi, tol=1e-8, max_depth=14)
        assert d < 1e-5

    def test_pole_inside_support_rejected(self):
        h = G.MobiusMap([[1.0, 0.0], [1.0, 1.0]])  # pole at -1
        phi = smooth_phi(center=-1.0, r_pl=0.3, r_sup=0.5)
        with pytest.raises(F.FieldDomainError):
            check_covariance(2, h, -1.1, phi, **QKW)
