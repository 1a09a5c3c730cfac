"""Truncated tensor algebra over group labels and its canonical liftings.

Word-indexed crossed elements (``WordCrossedForm``) play the role of the
completed tensor algebra after the splitting homomorphism has been applied:
every tensor word of crossed generators is stored by its label word, with the
convolution product of the letters as coefficient.  This module adds

* canonical lifts of relative invertibles and idempotents, exact inverses
  resp. idempotents modulo words longer than the cap, built as products of
  one-letter lifts (``WordCrossedForm.from_crossed``),
* the universal differential on word-indexed elements,
* ``WordValues``, the read-only table of an evaluated class representative:
  one complex value per plain or marked word,
* collapse functionals turning a table into a number: ``tau0`` for plain
  words, ``GroupCocycle1`` for marked words.
"""

import math

import numpy as np

from . import fields as F
from .algebra import (
    CrossedForm,
    DWord,
    WordCrossedForm,
    mat_add,
    word_mu,
)


class CertificateError(Exception):
    """An invertibility certificate is missing or fails its check."""


# ---------------------------------------------------------------------------
# sampled residual checks
#
# Crossed elements cannot be inverted numerically here, so invertibility and
# idempotency are certified by sampling residuals on grids covering the
# coefficient supports: _GRID x _GRID interior points per support box.

_GRID = 4
# the largest sampled residual of an idempotent, and of an inverse or a
# nilpotency certificate
IDEMPOTENT_TOL = 1e-10
CERTIFICATE_TOL = 1e-9


def _bbox_points(bb):
    xs = np.linspace(bb[0], bb[1], _GRID + 2)[1:-1]
    ys = np.linspace(bb[2], bb[3], _GRID + 2)[1:-1]
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def _term_points(mat):
    pts = [np.array([0.0 + 0.0j])]
    found = False
    for row in mat:
        for c in row:
            bb = c.support_bbox()
            if bb is not None:
                pts.append(_bbox_points(bb))
                found = True
    if not found:
        pts.append(_bbox_points((-1.0, 1.0, -1.0, 1.0)))
    return np.concatenate(pts)


def crossed_max_abs(x):
    """Largest sampled coefficient magnitude over all labels and slots."""
    worst = 0.0
    if x.scalar is not None:
        worst = float(np.max(np.abs(x.scalar)))
    for lab, mat in x.terms.items():
        zs = _term_points(mat)
        for row in mat:
            for c in row:
                for (p, q), f in c.comps.items():
                    vals = F.eval_field(f, zs)
                    worst = max(worst, float(np.max(np.abs(vals))))
    return worst


def _require_unit_scalar(x, what):
    eye = np.eye(x.size, dtype=complex)
    if x.scalar is None or not np.allclose(x.scalar, eye, rtol=0.0, atol=1e-12):
        raise ValueError(
            f"{what} must be relative: constant part exactly the identity matrix"
        )


def check_idempotent(e):
    """Sampled residual of e*e - e; raises when it exceeds IDEMPOTENT_TOL."""
    res = e.mul(e).sub(e)
    worst = crossed_max_abs(res)
    if worst > IDEMPOTENT_TOL:
        raise ValueError(
            f"not an idempotent: sampled residual {worst:.3g} > {IDEMPOTENT_TOL:g}"
        )
    return worst


def check_inverse(u, v):
    one = CrossedForm.unit(u.action, u.size)
    worst = max(
        crossed_max_abs(u.mul(v).sub(one)), crossed_max_abs(v.mul(u).sub(one))
    )
    if worst > CERTIFICATE_TOL:
        raise CertificateError(
            f"inverse certificate fails: sampled residual {worst:.3g} > {CERTIFICATE_TOL:g}"
        )
    return worst


def check_nilpotent(a):
    sq = a.mul(a)
    if not sq.terms and sq.scalar is None:
        return 0.0
    worst = crossed_max_abs(sq)
    if worst > CERTIFICATE_TOL:
        raise CertificateError(
            f"nilpotency certificate fails: sampled residual {worst:.3g} > {CERTIFICATE_TOL:g}"
        )
    return worst


# ---------------------------------------------------------------------------
# canonical liftings


def lift_invertible(u, cap, certificate):
    """Lift a relative invertible u = 1 + a into the word algebra.

    Returns (u_hat, u_hat_inv).  u_hat is the letterwise lift; u_hat_inv is
    the series (1 + q~) * sum_n C~^n with q the compact part of the inverse
    and C~ the curvature term (lift of a*q minus the product of the lifts).
    Both products u_hat*u_hat_inv and u_hat_inv*u_hat equal 1 exactly modulo
    words longer than the cap.

    The inverse is never computed numerically: the caller must certify it,
    either with ``{"kind": "nilpotent"}`` (then u^-1 = 1 - a) or with
    ``{"kind": "inverse", "value": v}`` for an explicit v.
    """
    _require_unit_scalar(u, "an invertible")
    act, n = u.action, u.size
    a = CrossedForm(act, n, u.terms, None)

    kind = None if certificate is None else certificate.get("kind")
    if kind == "nilpotent":
        check_nilpotent(a)
        q = a.neg()
    elif kind == "inverse":
        v = certificate["value"]
        _require_unit_scalar(v, "an inverse certificate")
        check_inverse(u, v)
        q = CrossedForm(act, n, v.terms, None)
    else:
        raise CertificateError(
            "refusing to invert a crossed element without a certificate "
            "(supply kind 'nilpotent' or 'inverse')"
        )

    u_hat = WordCrossedForm.from_crossed(u, cap)
    a_til = WordCrossedForm.from_crossed(a, cap)
    q_til = WordCrossedForm.from_crossed(q, cap)
    # lift of the product minus the product of the lifts; dies under the
    # multiplication map and raises the word length by at least one
    curv = WordCrossedForm.from_crossed(a.mul(q), cap).sub(a_til.mul(q_til))

    one = WordCrossedForm.unit(act, n, cap)
    total = one
    power = one
    for _ in range(cap):
        power = power.mul(curv)
        if not power.terms and power.scalar is None:
            break
        total = total.add(power)
    u_hat_inv = one.add(q_til).mul(total)
    return u_hat, u_hat_inv


# (1+4t)^(-1/2) = sum_k (-1)^k binom(2k, k) t^k; integer coefficients
def _binom_half_inv(k):
    return (-1) ** k * math.comb(2 * k, k)


def lift_idempotent(e, cap):
    """Canonical idempotent lift 1/2 + (c - 1/2)(1 + 4q)^(-1/2), q = c^2 - c.

    The input must be idempotent (sampled check); the output squares to
    itself exactly modulo words longer than the cap.  It collapses back to e
    under the multiplication map up to contributions from dropped words,
    exactly so when the defect series terminates within the cap (check the
    ``dropped`` counter).
    """
    check_idempotent(e)
    act, n = e.action, e.size
    c_til = WordCrossedForm.from_crossed(e, cap)
    q_til = c_til.mul(c_til).sub(c_til)
    if q_til.scalar is not None:
        if float(np.max(np.abs(q_til.scalar))) > IDEMPOTENT_TOL:
            raise ValueError("constant part of the input is not idempotent")
        q_til = WordCrossedForm(act, n, cap, q_til.terms, None, q_til.dropped)

    one = WordCrossedForm.unit(act, n, cap)
    series = one.scale(_binom_half_inv(0))
    power = one
    for k in range(1, cap + 1):
        power = power.mul(q_til)
        if not power.terms and power.scalar is None:
            break
        series = series.add(power.scale(_binom_half_inv(k)))
    half = one.scale(0.5)
    return half.add(c_til.sub(half).mul(series))


# ---------------------------------------------------------------------------
# evaluated word values


class WordValues:
    """Values of a class representative evaluated wordwise, read-only.  A
    key is a plain word (a tuple of labels) or a marked word (left word,
    marked label); ``terms`` maps it to its value as a 1x1 complex matrix,
    zeros left out.  ``dropped`` counts the words left out past the cap."""

    def __init__(self, action, values, dropped=0):
        self.action = action
        self.terms = {k: np.array([[v]], dtype=complex) for k, v in values.items() if v != 0}
        self.dropped = int(dropped)

    def __repr__(self):
        return f"WordValues(words={len(self.terms)}, dropped={self.dropped})"


def nat_key(dkey):
    """Rotate a marked word to its stored quotient representative: the right
    factors move to the front, the marked letter goes last."""
    return (dkey.post + dkey.pre, dkey.mid)


def universal_d(x):
    """Universal differential of a word-indexed crossed element, by the
    Leibniz rule over tensor words.

    Each plain word splits into marked words; the coefficient stays attached
    to the whole word and the rotation is deferred until after evaluation
    (the evaluating functionals are traces, so rotation only re-keys their
    values).
    """
    terms = {}
    for key, mat in x.terms.items():
        if isinstance(key, DWord):
            raise ValueError("already a one-form word")
        for i in range(len(key)):
            dk = DWord(key[:i], key[i], key[i + 1 :])
            terms[dk] = mat if dk not in terms else mat_add(terms[dk], mat)
    return WordCrossedForm(x.action, x.size, x.cap, terms, None, x.dropped)


# ---------------------------------------------------------------------------
# collapse functionals


def tau0(table):
    """Trace collapse of a plain-word table: the sum of the values of the
    words that the multiplication map sends to an identity germ."""
    total = 0.0 + 0.0j
    for w, m in table.terms.items():
        if word_mu(table.action, w).cmap.is_identity_germ():
            total += m[0, 0]
    return complex(total)


class GroupCocycle1:
    """Additive group 1-cocycle pairing against the marked words of a
    ``WordValues`` table.

    The weight c is additive on products; it comes either from per-generator
    weights on a free action (extended by exponent sums) or from an explicit
    per-label table."""

    def __init__(self, weights=None, table=None):
        if (weights is None) == (table is None):
            raise ValueError("give exactly one of generator weights or a label table")
        self.weights = dict(weights) if weights is not None else None
        self.table = dict(table) if table is not None else None

    def value(self, label):
        if self.table is not None:
            try:
                return complex(self.table[label])
            except KeyError:
                raise ValueError(f"cocycle table has no entry for label {label.name}")
        total = 0.0 + 0.0j
        for name, exp in label.key:
            if name not in self.weights:
                raise ValueError(f"cocycle weights miss generator {name}")
            total += exp * self.weights[name]
        return complex(total)

    def of(self, x):
        total = 0.0 + 0.0j
        for (w, b), m in x.terms.items():
            lab = x.action.compose(b, word_mu(x.action, w))
            if lab.cmap.is_identity_germ():
                total += m[0, 0] * self.value(b)
        return complex(total)
