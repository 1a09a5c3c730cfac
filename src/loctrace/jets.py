"""Truncated Taylor coefficient arithmetic.

Jet1 holds normalized Taylor coefficients c_k = f^(k)(base)/k! of a function
of one complex variable, truncated at a fixed order.  Jet2 does the same for
smooth functions of (z, zbar): coefficients c_{p,q} with p+q <= order of the
expansion in (z - base) and conj(z - base).

Everything here is plain complex arithmetic on short coefficient arrays; no
evaluation of expression trees happens at this level.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Jet1",
    "Jet2",
    "valuation",
    "j_mul",
    "j_div_valuation",
    "identity_jet",
    "monomial_jet",
]

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


def identity_jet(base, order):
    """Jet of the map z -> z at the given base point."""
    c = np.zeros(order + 1, dtype=complex)
    c[0] = base
    if order >= 1:
        c[1] = 1.0
    return Jet1(base, c)


def monomial_jet(base, n, order):
    """Jet of (z - base)^n at base."""
    c = np.zeros(order + 1, dtype=complex)
    if n <= order:
        c[n] = 1.0
    return Jet1(base, c)


def _check_same_base(a, b):
    if abs(a.base - b.base) > 1e-9 * max(1.0, abs(a.base)):
        raise ValueError(f"jet bases differ: {a.base} vs {b.base}")


def j_mul(a, b, order=None):
    """Cauchy product truncated to min(orders) unless a lower order is asked."""
    _check_same_base(a, b)
    n = min(a.order, b.order)
    if order is not None:
        n = min(n, order)
    out = np.zeros(n + 1, dtype=complex)
    for k in range(n + 1):
        lo = a.coeffs[: k + 1]
        hi = b.coeffs[k::-1]
        out[k] = np.dot(lo, hi[: len(lo)])
    return Jet1(a.base, out)


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


def j_div_valuation(num, den, order=None):
    """Divide jets after cancelling the common leading zero of the denominator.

    The denominator's valuation v must not exceed the numerator's; both are
    shifted down by v and then divided as ordinary power series.  The result
    has order min(orders) - v unless truncated further.
    """
    _check_same_base(num, den)
    v = valuation(den)
    if v is None:
        raise ZeroDivisionError("division by the zero jet")
    vn = valuation(num)
    if vn is not None and vn < v:
        raise ValueError(f"numerator valuation {vn} below denominator valuation {v}")
    n = min(num.order, den.order) - v
    if n < 0:
        raise ValueError("jets too short for the requested division")
    num_s = Jet1(num.base, num.coeffs[v : v + n + 1])
    den_s = Jet1(den.base, den.coeffs[v : v + n + 1])
    out = j_mul(num_s, j_recip(den_s), order)
    return out


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
