"""Cap-product index pairings and localization anomalies.

The even pairing applies the localized trace to the lifted idempotent and
subtracts the unit-space integral of e~ nabla(e~) nabla(e~) / 2 pi i; the odd
pairing pairs the lifted invertible's winding form against the same data.
Results are kept wordwise (class representatives through the cap) next to
collapsed numbers.

The collapsed numbers are computed collapse-early: the collapse functionals
factor through the multiplication map, which is an exact homomorphism onto
the crossed algebra, so running the combination there avoids the O(1) error
a word-length cap inflicts on the collapsed tail.  The naive collapse of the
truncated representative is reported as a diagnostic.
"""

import cmath
import math

from . import fields as F
from .algebra import DWord, diff_nabla, word_length, word_mu
from .cocycles import (
    PlateauError,
    integrate_units,
    integrate_units_words,
    phi_trace_words,
)
from .groupoid import DEFAULT_JET_ORDER, automorphism_order, fixed_points
from .quadrature import DEFAULT_DEPTH, DEFAULT_TOL, NonConvergenceError, integrate_box
from .tensoralg import (
    WordValues,
    lift_idempotent,
    lift_invertible,
    nat_key,
    tau0,
    universal_d,
)

TWO_PI_I = 2j * math.pi
# branch of sqrt(2 pi i) fixed once: principal, argument pi/4
SQRT_TWO_PI_I = cmath.sqrt(TWO_PI_I)


class InternalConsistencyError(Exception):
    """Two evaluation routes for the same quantity disagree."""


class PairingResult:
    """Wordwise class representative plus optional collapsed number."""

    __slots__ = ("truncated", "collapsed", "collapsed_truncated", "breakdown")

    def __init__(self, truncated, collapsed, collapsed_truncated, breakdown):
        self.truncated = truncated
        self.collapsed = collapsed
        self.collapsed_truncated = collapsed_truncated
        self.breakdown = breakdown

    def __repr__(self):
        c = "None" if self.collapsed is None else f"{self.collapsed:.6g}"
        return f"PairingResult(words={len(self.truncated.terms)}, collapsed={c})"


def pair_even(
    e,
    cap,
    tol=DEFAULT_TOL,
    max_depth=DEFAULT_DEPTH,
):
    """Even cap-product pairing of a relative idempotent.

    Wordwise value per word w:  Phi(w-part of e~)  -  (1/2 pi i) * unit-space
    integral of the w-part of e~ nabla e~ nabla e~.  The collapsed number
    pushes the same combination through the multiplication map first, where
    it is exact for an idempotent whose terms all sit over identity germs:
    there the trace part dies (the trace ignores identity germs) and the
    integral part becomes the unit-label integral over e nabla e nabla e.
    Over other germs Phi(e) need not vanish and this route leaves it out;
    whether the cap product wants it there is not settled.  The naive
    collapse of the word table, ``collapsed_truncated``, is ``tau0`` of it.
    """
    e_til = lift_idempotent(e, cap)
    nab = diff_nabla(e_til)
    prod = e_til.mul(nab).mul(nab)

    phi_part = phi_trace_words(e_til)
    int_part, est = integrate_units_words(prod, tol, max_depth)

    values = {}
    for w, v in phi_part.items():
        values[w] = values.get(w, 0.0) + v
    for w, v in int_part.items():
        values[w] = values.get(w, 0.0) - v / TWO_PI_I
    rep = WordValues(e.action, values)

    # collapse-early: mu(e~) = e exactly, so the collapsed pairing is the
    # crossed-level integral; no word is ever dropped on this route
    e_nab = diff_nabla(e)
    direct = integrate_units(e.mul(e_nab).mul(e_nab), tol, max_depth)
    collapsed = -direct.value / TWO_PI_I

    breakdown = {
        "phi_part": dict(phi_part),
        "integral_part": dict(int_part),
        "est_error": est + direct.est_error,
        "dropped": prod.dropped,
    }
    return PairingResult(rep, collapsed, tau0(rep), breakdown)


def pair_odd(
    u,
    cap,
    certificate,
    psi=None,
    tol=DEFAULT_TOL,
    max_depth=DEFAULT_DEPTH,
):
    """Odd cap-product pairing of a relative invertible (certified).

    term1 = Phi(u~^-1 d(u~)) / sqrt(2 pi i), wordwise;
    term2 = - unit-space integral of u~^-1 nabla(u~) nabla(u~^-1) d(u~)
            / (2 (2 pi i)^(3/2)).
    Marked words are rotated into quotient representatives after evaluation;
    the evaluating functionals are traces, so the rotation only re-keys.
    The collapsed number is the group 1-cocycle psi of the marked-word table.
    """
    u_hat, u_inv = lift_invertible(u, cap, certificate)
    du = universal_d(u_hat)
    omega = u_inv.mul(du)

    phi_part = phi_trace_words(omega)
    heavy = u_inv.mul(diff_nabla(u_hat)).mul(diff_nabla(u_inv)).mul(du)
    int_part, est = integrate_units_words(heavy, tol, max_depth)

    c2 = -1.0 / (2.0 * TWO_PI_I * SQRT_TWO_PI_I)
    values = {}
    for k, v in phi_part.items():
        kk = nat_key(k)
        values[kk] = values.get(kk, 0.0) + v / SQRT_TWO_PI_I
    for k, v in int_part.items():
        kk = nat_key(k)
        values[kk] = values.get(kk, 0.0) + c2 * v
    rep = WordValues(u.action, values)

    collapsed = None if psi is None else psi.of(rep)
    breakdown = {
        "phi_part": {nat_key(k): v for k, v in phi_part.items()},
        "integral_part": {nat_key(k): v for k, v in int_part.items()},
        "est_error": est,
        "dropped": heavy.dropped,
    }
    return PairingResult(rep, collapsed, None, breakdown)


# ---------------------------------------------------------------------------
# localization anomalies


def anomaly_delta0(omega, region=None, jet_order=DEFAULT_JET_ORDER):
    """Fixed-point component of the anomaly, applied wordwise to a marked
    word element.

    Deliberately a second entry point into the jet-extraction kernel: it
    walks fixed points itself and must agree exactly with the trace route.
    """
    act = omega.action
    region = region or act.domain
    values = {}
    for key in omega.sorted_keys():
        lab = word_mu(act, key)
        if lab.cmap.is_identity_germ():
            continue
        mat = omega.terms[key]
        n = len(mat)
        total = 0.0 + 0.0j
        for z0 in fixed_points(lab.cmap, region):
            aut = automorphism_order(lab.cmap, z0, jet_order)
            for i in range(n):
                f = mat[i][i].get(0, 0)
                if f.is_structural_zero():
                    continue
                a_jet = F.jet2_at(f, z0, aut.order - 1)
                if not a_jet.flat:
                    raise PlateauError(f"coefficient not flat at fixed point {z0}")
                total += aut.trace_coefficient(a_jet.restrict_z())
        if total != 0:
            nk = nat_key(key)
            values[nk] = values.get(nk, 0j) + total
    return WordValues(act, values)


class Delta1Result:
    __slots__ = ("explicit", "intrinsic", "defect")

    def __init__(self, explicit, intrinsic, defect):
        self.explicit = explicit
        self.intrinsic = intrinsic
        self.defect = float(defect)

    def __repr__(self):
        return f"Delta1Result(defect={self.defect:.3g})"


def _pair_quad(field, tol, max_depth):
    if field.is_structural_zero():
        return 0.0 + 0.0j, 0.0
    bb = None if field.support is None else field.support.bbox()
    if bb is None:
        raise ValueError("anomaly integrand needs bounded support")
    res = integrate_box(F.integrand(field), bb, tol, max_depth)
    if not res.converged:
        raise NonConvergenceError(
            f"anomaly integral did not converge (est {res.est_error:.3g})"
        )
    return res.value, res.est_error


def anomaly_delta1(
    A,
    omega,
    tol=DEFAULT_TOL,
    max_depth=DEFAULT_DEPTH,
):
    """Unit-manifold component of the anomaly, by two routes.

    Explicit route: for word pairs whose combined label is an identity germ,
    (1/pi) * integral of tr[(d/dz - (1/2) kappa_g) A_zbar(g) * w(h) o g]
    over the plane, where g is the label under the left factor and kappa its
    log-derivative cocycle.  Intrinsic route: -(1/2 pi i) * unit-space
    integral of nabla(A) * omega.  Both are returned; they must agree within
    twice the quadrature tolerance, which pins the surface convention
    dz^dzbar = -2i dx dy.  Both routes leave out word pairs joined past A's
    cap; the explicit table's ``dropped`` counts them.
    """
    act = A.action
    explicit = {}
    est = 0.0
    dropped = 0
    for ka, ma in A.terms.items():
        g = word_mu(act, ka).cmap
        kappa = None
        if not g.is_identity_germ():
            kappa = F.ScalarField(g.log_deriv_tree(), None)
        for ko, mo in omega.terms.items():
            joined = DWord(ka + ko.pre, ko.mid, ko.post)
            if word_length(joined) > A.cap:
                dropped += 1
                continue
            if not word_mu(act, joined).cmap.is_identity_germ():
                continue
            n = len(ma)
            acc = F.fzero()
            for i in range(n):
                for j in range(n):
                    a = ma[i][j].get(0, 1)
                    w = mo[j][i].get(0, 0)
                    if a.is_structural_zero() or w.is_structural_zero():
                        continue
                    t = F.fderiv(a, 1, 0)
                    if kappa is not None:
                        t = F.fadd(t, F.fscale(F.fmul(kappa, a), -0.5))
                    acc = F.fadd(acc, F.fmul(t, F.fpullback(w, g)))
            v, e = _pair_quad(acc, tol, max_depth)
            est += e
            if v != 0:
                key = nat_key(joined)
                explicit[key] = explicit.get(key, 0.0) + v / math.pi

    nabla_route = diff_nabla(A).mul(omega)
    int_part, e2 = integrate_units_words(nabla_route, tol, max_depth)
    intrinsic = {}
    for k, v in int_part.items():
        kk = nat_key(k)
        intrinsic[kk] = intrinsic.get(kk, 0.0) - v / TWO_PI_I

    defect = 0.0
    for key in set(explicit) | set(intrinsic):
        defect = max(defect, abs(explicit.get(key, 0.0) - intrinsic.get(key, 0.0)))
    result = Delta1Result(
        WordValues(act, explicit, dropped),
        WordValues(act, intrinsic),
        defect,
    )
    if defect > 2.0 * tol:
        raise InternalConsistencyError(
            f"unit-manifold anomaly routes disagree: {defect:.3g} > {2 * tol:g}"
        )
    return result
