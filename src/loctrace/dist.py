"""Renormalized Cauchy-kernel distributions, paired numerically.

A kernel of order n stands for the (n-1)-st z-derivative of 1/(pi (z - z0)),
extended across its singularity by parts: the pairing with a test function
moves all n-1 derivatives onto the test function, leaving the locally
integrable Cauchy factor.  The remaining 1/(z - z0) is tamed by a smooth
radial partition of unity around z0: the near part in polar coordinates,
where the measure cancels the singular factor exactly, and the far part on
the ordinary adaptive quadtree.

`check_dolbeault` and `check_covariance` evaluate the two defining identities
of these kernels against concrete test functions and report defects; both are
wired into the `dist-check` CLI subcommand.
"""

from __future__ import annotations

import math

import numpy as np

from . import fields as F
from .quadrature import (BLOCK_POINTS, DEFAULT_DEPTH, DEFAULT_TOL, NonConvergenceError,
                         empty_aligned, integrate_box, integrate_rect)

__all__ = [
    "N_MAX",
    "NonConvergenceError",
    "RenormKernel",
    "pair_kernel",
    "check_dolbeault",
    "check_covariance",
]

N_MAX = 8


class RenormKernel:
    """Order-n kernel anchored at z0.

    `shift` adds a point mass at z0: the pairing gains exactly
    shift * phi(z0).  This is the one-parameter freedom in extending the
    n >= 2 kernels; shift = 0 picks the rotationally symmetric extension.
    """

    __slots__ = ("n", "z0", "shift")

    def __init__(self, n, z0, shift=0j):
        n = int(n)
        if n < 1 or n > N_MAX:
            raise ValueError(f"kernel order must lie in 1..{N_MAX}, got {n}")
        self.n = n
        self.z0 = complex(z0)
        self.shift = complex(shift)

    def __repr__(self):
        s = f", shift={self.shift:.6g}" if self.shift != 0 else ""
        return f"RenormKernel(n={self.n}, z0={self.z0:.6g}{s})"


def _cauchy_pair(z0, psi, tol, max_depth):
    """Integral of psi(z)/(z - z0) over the plane, d^2 z measure."""
    if psi.is_structural_zero():
        return 0j, 0.0
    if psi.support is None or psi.support.bbox() is None:
        raise ValueError("cannot pair a kernel against an unbounded test field")
    x0, x1, y0, y1 = psi.support.bbox()
    diam = math.hypot(x1 - x0, y1 - y0)
    if diam == 0.0:
        return 0j, 0.0
    r_cut = 0.35 * diam
    r_pl = 0.5 * r_cut
    chi = F.bump_field(z0, r_pl, r_cut)

    value = 0j
    est = 0.0
    converged = True

    near = F.fmul(chi, psi)
    if not near.is_structural_zero():
        near_at = F.integrand(near)
        # block scratch as for f_far below; th and r are cast to complex in
        # it first, as a complex product of a float array would cast it into
        # a fresh block-sized temporary on every call
        e_b, z_b = empty_aligned(BLOCK_POINTS), empty_aligned(BLOCK_POINTS)

        # polar chart: d^2 z = r dr dtheta cancels the 1/r of the kernel
        def f_polar(r, th):
            e, z = e_b[: len(r)], z_b[: len(r)]
            np.copyto(e, th)
            np.exp(np.multiply(1j, e, out=e), out=e)
            np.copyto(z, r)
            np.add(z0, np.multiply(z, e, out=z), out=z)
            np.conj(e, out=e)  # conj(e) is exp(-1j * th), bit for bit
            return np.multiply(e, near_at(z), out=z)

        res = integrate_rect(f_polar, (0.0, r_cut, 0.0, 2.0 * math.pi), tol, max_depth)
        value += res.value
        est += res.est_error
        converged = converged and res.converged

    far = F.fmul(F.fadd(F.fone(), F.fneg(chi)), psi)
    if not far.is_structural_zero():
        guard = 0.5 * r_pl
        far_at = F.integrand(far)
        # block scratch, each array below the mmap threshold; a block's
        # values are read before the next block overwrites them
        den_b, quot_b = empty_aligned(BLOCK_POINTS), empty_aligned(BLOCK_POINTS)
        sq_b, safe_b = empty_aligned((2, BLOCK_POINTS), float), empty_aligned(BLOCK_POINTS, bool)

        def f_far(z):
            vals, n = far_at(z), len(z)
            den = np.subtract(z, z0, out=den_b[:n])
            # the far factor vanishes identically inside the plateau, so the
            # rounding of |den|^2 near the guard does not show
            r2, im2 = sq_b[:, :n]
            np.multiply(den.real, den.real, out=r2)
            np.add(r2, np.multiply(den.imag, den.imag, out=im2), out=r2)
            safe = np.greater(r2, guard * guard, out=safe_b[:n])
            quot = quot_b[:n]
            quot.fill(0.0)
            return np.divide(vals, den, out=quot, where=safe)

        res = integrate_box(f_far, (x0, x1, y0, y1), tol, max_depth)
        value += res.value
        est += res.est_error
        converged = converged and res.converged

    if not converged:
        raise NonConvergenceError(
            f"kernel pairing at {z0:.6g} did not converge (est {est:.3g})"
        )
    return value, est


def pair_kernel(K, phi, tol=DEFAULT_TOL, max_depth=DEFAULT_DEPTH):
    """Pair a renormalized kernel with a compactly supported field."""
    psi = phi if K.n == 1 else F.fderiv(phi, K.n - 1, 0)
    raw, _ = _cauchy_pair(K.z0, psi, tol, max_depth)
    sign = -1.0 if K.n % 2 == 0 else 1.0
    out = sign / math.pi * raw
    if K.shift != 0:
        out += K.shift * complex(F.eval_field(phi, K.z0))
    return out


def check_dolbeault(z0, phi, tol=DEFAULT_TOL, max_depth=DEFAULT_DEPTH):
    """zbar-derivative of the Cauchy kernel against phi, versus phi(z0).

    Returns (lhs, rhs, defect) where lhs moves the zbar-derivative onto phi
    and rhs is the point evaluation the distributional identity predicts.
    """
    raw, _ = _cauchy_pair(z0, F.fderiv(phi, 0, 1), tol, max_depth)
    lhs = -raw / math.pi
    rhs = complex(F.eval_field(phi, z0))
    return lhs, rhs, abs(lhs - rhs)


def _ratio_power(h, z0, n):
    """((z - z0)/(h(z) - h(z0)))^n as an exact pole-free field."""
    if hasattr(h, "mat"):
        # determinant is 1, so h(z) - h(z0) = (z - z0)/((c z + d)(c z0 + d))
        c, d = h.c, h.d
        base = F.fadd(F.fscale(F.fz(), c), F.fconst(d))
        return F.fscale(F.fpow(base, n), (c * z0 + d) ** n)
    return F.fconst(h.a ** (-n))


def check_covariance(n, h, z0, phi, tol=DEFAULT_TOL, max_depth=DEFAULT_DEPTH):
    """Conformal covariance defect of the order-n kernel under w = h(z).

    The left side multiplies the kernel at z0 by the smooth n-th power of the
    difference-quotient ratio; the right side is the kernel at h(z0) paired in
    the image coordinate, pulled back with the |h'|^2 area Jacobian.  Both
    sides are full quadratures; the return value is their absolute gap.
    """
    pole = getattr(h, "pole", lambda: None)()
    if pole is not None and phi.support is not None:
        bb = phi.support.bbox()
        if bb is not None:
            x0, x1, y0, y1 = bb
            pad = 1e-9 * (1.0 + math.hypot(x1 - x0, y1 - y0))
            if (x0 - pad <= pole.real <= x1 + pad) and (
                y0 - pad <= pole.imag <= y1 + pad
            ):
                raise F.FieldDomainError(
                    f"coordinate change has a pole at {pole:.6g} inside the support"
                )

    side_a = pair_kernel(
        RenormKernel(n, z0), F.fmul(_ratio_power(h, z0, n), phi), tol, max_depth
    )

    hinv = h.inverse()
    w0 = complex(h.apply(z0))
    gp = hinv.g_prime_tree()
    jac = F.ScalarField(F.Mul(gp, F.Conj(gp)), None)
    psi = F.fmul(F.fpullback(phi, hinv), jac)
    side_b = pair_kernel(RenormKernel(n, w0), psi, tol, max_depth)
    return abs(side_a - side_b)
