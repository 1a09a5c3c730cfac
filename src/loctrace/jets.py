"""Truncated Taylor coefficient arithmetic.

Jet1 holds normalized Taylor coefficients c_k = f^(k)(base)/k! of a function
of one complex variable, truncated at a fixed order.  Jet2 does the same for
smooth functions of (z, zbar): coefficients c_{p,q} with p+q <= order of the
expansion in (z - base) and conj(z - base).

The one series operation is the reciprocal, ``j_recip``.  The fixed-point
kernel (``groupoid.Automorphism``) needs no other: it divides by g(z) - z
through the reciprocal of (g(z) - z) / (z - z0)^n.

Everything here is plain complex arithmetic on short coefficient arrays; no
evaluation of expression trees happens at this level.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet1", "Jet2", "valuation", "j_recip"]

# Coefficients below tol*max(1, largest coefficient) count as zero when
# measuring valuations.  Relative with an absolute floor of 1.
VALUATION_RTOL = 1e-12


class Jet1:
    """Univariate jet: base point plus coefficients c_0..c_K."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs):
        self.base = complex(base)
        self.coeffs = np.asarray(coeffs, dtype=complex)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def coeff(self, k):
        if k < 0 or k > self.order:
            return 0j
        return complex(self.coeffs[k])

    def __repr__(self):
        return f"Jet1(base={self.base:.6g}, coeffs={np.round(self.coeffs, 10)})"


def valuation(a):
    """Index of the first nonzero coefficient, measured with a relative
    threshold; returns None for the (numerically) zero jet."""
    mags = np.abs(a.coeffs)
    tol = VALUATION_RTOL * max(1.0, float(mags.max(initial=0.0)))
    for k, m in enumerate(mags):
        if m > tol:
            return k
    return None


def j_recip(a):
    """1/f for a jet with nonzero constant term."""
    c0 = a.coeffs[0]
    if c0 == 0:
        raise ZeroDivisionError("jet reciprocal needs a nonzero constant term")
    n = a.order
    out = np.zeros(n + 1, dtype=complex)
    out[0] = 1.0 / c0
    # recursion from (f * (1/f))_k = 0 for k >= 1
    for k in range(1, n + 1):
        out[k] = -np.dot(a.coeffs[1 : k + 1], out[k - 1 :: -1][: k]) / c0
    return Jet1(a.base, out)


class Jet2:
    """Bivariate jet at a base point: coefficients c[(p, q)] of the expansion
    sum c_{p,q} (z-base)^p (conj(z-base))^q with p+q <= order.  Missing keys
    are zero.  ``flat`` is False when the jet came from a field with a cutoff
    factor that is not locally constant at the base."""

    __slots__ = ("base", "order", "coeffs", "flat")

    def __init__(self, base, order, coeffs=None, flat=True):
        self.base = complex(base)
        self.order = int(order)
        self.coeffs = dict(coeffs) if coeffs else {}
        self.flat = bool(flat)

    def coeff(self, p, q):
        return self.coeffs.get((p, q), 0j)

    def restrict_z(self):
        """Pure holomorphic part: the Jet1 with coefficients c_{p,0}."""
        c = np.array([self.coeff(p, 0) for p in range(self.order + 1)], dtype=complex)
        return Jet1(self.base, c)

    def __repr__(self):
        items = ", ".join(
            f"({p},{q}): {v:.6g}" for (p, q), v in sorted(self.coeffs.items())
        )
        return f"Jet2(base={self.base:.6g}, order={self.order}, {{{items}}})"
