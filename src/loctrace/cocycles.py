"""Localized trace and the degree-two cocycles built from it.

The localized trace of a crossed element sums, over isolated fixed points z0
of the maps carrying its coefficients, minus the (n-1)-st Taylor coefficient
of H * a at z0; here n is the local order, a is the holomorphic restriction
jet of the diagonal coefficient, and H, the jet of (z - z0)^n / (g(z) - z),
is one reciprocal series per fixed point.  Padding only raises the a-jet's
order past n - 1, so a padding-invariance check tests that the a-jet does
not depend on its order.  Both entry points share the extraction kernel on
purpose.

Integration over the units pairs the dz^dzbar slot of identity-germ
coefficients with the plane: the form measure is -2i dx dy.

The degree-two functionals: the fundamental one integrates a0 da1 da2, the
curvature-type one integrates a0 (da1 delta a2 + delta a1 da2), and the
Todd combination integrates a0 nabla a1 nabla a2, which equals fundamental
minus half curvature because the cross terms cancel under the unit-label
restriction.
"""

from __future__ import annotations

from . import fields as F
from .algebra import CrossedForm, diff_d, diff_delta, diff_nabla
from .groupoid import (
    DEFAULT_JET_ORDER,
    GroupAction,
    automorphism_order,
    compose_maps,
    fixed_points,
)
from .quadrature import DEFAULT_DEPTH, DEFAULT_TOL, NonConvergenceError, integrate_box

__all__ = [
    "PlateauError",
    "CocycleValue",
    "phi_trace",
    "phi_trace_words",
    "integrate_units",
    "integrate_units_words",
    "fundamental_class",
    "chern1",
    "todd",
    "hochschild_b",
    "cyclic_defect",
    "ConjugatedAction",
    "transport_coordinates",
]


class PlateauError(Exception):
    """A localized trace was requested at a point where some cutoff factor is
    not locally constant, so the finite jet would not be exact."""


class CocycleValue:
    __slots__ = ("value", "est_error", "breakdown")

    def __init__(self, value, est_error=0.0, breakdown=None):
        self.value = complex(value)
        self.est_error = float(est_error)
        self.breakdown = breakdown or []

    def __repr__(self):
        return f"CocycleValue({self.value:.12g}, est={self.est_error:.3g})"


def _diag_sum(mat, p, q):
    out = F.fzero()
    for i in range(len(mat)):
        out = F.fadd(out, mat[i][i].get(p, q))
    return out


def _phi_one_term(cmap, mat, region, jet_order, pad, tag, breakdown):
    """Trace contributions of one coefficient matrix sitting over one map."""
    total = 0j
    a_field = _diag_sum(mat, 0, 0)
    if a_field.is_structural_zero():
        return total
    for z0 in fixed_points(cmap, region):
        aut = automorphism_order(cmap, z0, jet_order)
        a_jet = F.jet2_at(a_field, z0, aut.order - 1 + pad)
        if not a_jet.flat:
            raise PlateauError(
                f"coefficient at {tag} is inside a cutoff transition at fixed point {z0}"
            )
        c = aut.trace_coefficient(a_jet.restrict_z())
        breakdown.append((tag, z0, aut.order, c))
        total += c
    return total


def _trace_values(x, keys, region, jet_order, pad, breakdown):
    """Trace contribution per key, in the given order; keys over identity
    germs contribute nothing and are left out."""
    region = region or x.action.domain
    out = {}
    for key in keys:
        lab = x.label_of(key)
        if lab.cmap.is_identity_germ():
            continue
        out[key] = _phi_one_term(
            lab.cmap, x.terms[key], region, jet_order, pad, lab.name, breakdown
        )
    return out


def phi_trace(x, region=None, jet_order=DEFAULT_JET_ORDER, pad=0):
    """Localized fixed-point trace of a crossed element.  Identity germs and
    the constant part contribute nothing; each isolated fixed point of the
    other labels contributes its extraction coefficient.  ``pad`` reads the
    coefficient jets pad orders past n - 1, which must not move the value."""
    if pad < 0:
        raise ValueError(f"negative jet padding {pad}")
    breakdown = []
    total = 0j
    for v in _trace_values(x, x.terms, region, jet_order, pad, breakdown).values():
        total += v
    return CocycleValue(total, 0.0, breakdown)


def phi_trace_words(x, region=None, jet_order=DEFAULT_JET_ORDER):
    """Wordwise localized trace of a word-indexed element: a map from word
    keys to complex numbers (zero-valued words are kept out)."""
    got = _trace_values(x, x.sorted_keys(), region, jet_order, 0, [])
    return {key: v for key, v in got.items() if v != 0}


def _unit_integral(mat, tol, max_depth, tag):
    field = _diag_sum(mat, 1, 1)
    if field.is_structural_zero():
        return 0j, 0.0
    if field.support is None:
        raise ValueError(
            f"cannot integrate the coefficient at {tag}: unbounded or unknown support"
        )
    bb = field.support.bbox()
    if bb is None:
        raise ValueError(f"cannot integrate the coefficient at {tag}: unbounded support")
    res = integrate_box(F.integrand(field), bb, tol, max_depth)
    if not res.converged:
        raise NonConvergenceError(
            f"unit integral at {tag} did not converge (est {res.est_error:.3g})"
        )
    # dz^dzbar against the plane: -2i dx dy
    return -2j * res.value, 2.0 * res.est_error


def _unit_values(x, keys, tol, max_depth):
    """Unit integral per identity-germ key, in the given order, and the sum
    of their error estimates."""
    out = {}
    est = 0.0
    for key in keys:
        if not x.label_of(key).cmap.is_identity_germ():
            continue
        out[key], e = _unit_integral(x.terms[key], tol, max_depth, key)
        est += e
    return out, est


def integrate_units(x, tol=DEFAULT_TOL, max_depth=DEFAULT_DEPTH):
    """Integrate the top-degree slot of the identity-germ coefficients over
    the plane.  Constant parts carry no top-degree slot and drop out."""
    got, est = _unit_values(x, x.terms, tol, max_depth)
    total = 0j
    for v in got.values():
        total += v
    return CocycleValue(total, est, [(lab.name, v) for lab, v in got.items()])


def integrate_units_words(x, tol=DEFAULT_TOL, max_depth=DEFAULT_DEPTH):
    """Wordwise unit integration of a word-indexed element."""
    got, est = _unit_values(x, x.sorted_keys(), tol, max_depth)
    return {key: v for key, v in got.items() if v != 0}, est


def fundamental_class(a0, a1, a2, tol=DEFAULT_TOL, max_depth=DEFAULT_DEPTH):
    """Integral of a0 da1 da2 over the units."""
    x = a0.mul(diff_d(a1)).mul(diff_d(a2))
    return integrate_units(x, tol, max_depth)


def chern1(a0, a1, a2, tol=DEFAULT_TOL, max_depth=DEFAULT_DEPTH):
    """Integral of a0 (da1 delta a2 + delta a1 da2) over the units."""
    inner = diff_d(a1).mul(diff_delta(a2)).add(diff_delta(a1).mul(diff_d(a2)))
    return integrate_units(a0.mul(inner), tol, max_depth)


def todd(a0, a1, a2, tol=DEFAULT_TOL, max_depth=DEFAULT_DEPTH):
    """Integral of a0 nabla a1 nabla a2 over the units."""
    x = a0.mul(diff_nabla(a1)).mul(diff_nabla(a2))
    return integrate_units(x, tol, max_depth)


def todd_dual_defect(a0, a1, a2, tol=DEFAULT_TOL, max_depth=DEFAULT_DEPTH):
    """Difference between the direct Todd route and fundamental - chern1/2."""
    direct = todd(a0, a1, a2, tol, max_depth)
    fc = fundamental_class(a0, a1, a2, tol, max_depth)
    c1 = chern1(a0, a1, a2, tol, max_depth)
    other = fc.value - 0.5 * c1.value
    return abs(direct.value - other), direct, fc, c1


def _cochain_value(phi, xs):
    got = phi(*xs)
    return got.value if isinstance(got, CocycleValue) else complex(got)


def hochschild_b(phi, args):
    """Hochschild coboundary of a k-cochain evaluated on k+2 elements; phi is
    any callable returning a CocycleValue or a complex number."""
    args = list(args)
    k = len(args) - 2
    if k < 0:
        raise ValueError("need at least two arguments")
    total = 0j
    for i in range(k + 1):
        merged = args[:i] + [args[i].mul(args[i + 1])] + args[i + 2 :]
        total += ((-1.0) ** i) * _cochain_value(phi, merged)
    wrap = [args[-1].mul(args[0])] + args[1:-1]
    total += ((-1.0) ** (k + 1)) * _cochain_value(phi, wrap)
    return total


def cyclic_defect(phi, args):
    """phi(a0, ..., ak) minus its cyclic rotation with the sign (-1)^k."""
    args = list(args)
    k = len(args) - 1
    rotated = [args[-1]] + args[:-1]
    return _cochain_value(phi, args) - ((-1.0) ** k) * _cochain_value(phi, rotated)


# ---------------------------------------------------------------------------
# coordinate transport


class ConjugatedAction(GroupAction):
    """The same group acting through h g h^-1; labels mirror the base action
    one to one and keep its composition table."""

    def __init__(self, base, h):
        self.base = base
        self.h = h
        self.h_inv = h.inverse()
        dom = base.domain
        if dom is not None and not isinstance(dom, F.WholePlane):
            bb = self.h_inv.preimage_region(dom)  # image of dom under h
            dom = bb if bb is not None else F.WholePlane()
        super().__init__(dom)
        self._wrap = {}
        self._unit = self.wrap(base.unit)

    def wrap(self, base_label):
        hit = self._wrap.get(base_label)
        if hit is None:
            g = base_label.cmap
            if g.is_identity_germ():
                cm = compose_maps(self.h, self.h_inv, self.domain)
            else:
                cm = compose_maps(self.h, compose_maps(g, self.h_inv), self.domain)
            # keep the base label in the key slot so composition can delegate
            hit = self._new_label(base_label, cm, base_label.name)
            self._wrap[base_label] = hit
        return hit

    @property
    def unit(self):
        return self._unit

    def compose(self, l1, l2):
        return self.wrap(self.base.compose(l1.key, l2.key))

    def inverse(self, lab):
        return self.wrap(self.base.inverse(lab.key))


def transport_coordinates(x, h):
    """Move a crossed element through a chart change h: labels become
    h g h^-1 and coefficients are pulled back through h^-1.  The localized
    trace is unchanged by this."""
    act2 = ConjugatedAction(x.action, h)
    h_inv = act2.h_inv
    terms = {}
    for lab, mat in x.terms.items():
        new_mat = [
            [mat[i][j].pullback(h_inv) for j in range(x.size)] for i in range(x.size)
        ]
        terms[act2.wrap(lab)] = new_mat
    return act2, CrossedForm(act2, x.size, terms, x.scalar)
