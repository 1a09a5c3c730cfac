"""Local conformal maps, group actions by such maps, and their germs.

A map is one of: the identity, affine z -> a z + b, a fractional linear map
kept as a determinant-1 matrix with a fixed sign convention, a polynomial, or
a composition chain.  Every map knows how to evaluate itself on point batches,
expose itself as an expression tree (so fields can be pulled back through it),
and report closed forms for g', g''/g' and log|g'|^2 as trees.  Each map
builds its trees once, on first use, with common subtrees shared between them;
every pullback through the map reuses those nodes, so field evaluation, which
memoizes on node identity, computes them once per batch.  A map's univariate
jet at a base point comes from its own tree, as the holomorphic part of the
tree's Taylor expansion there (fields.jet2_at); there is no second jet engine.

Fixed points of a map inside a search region are isolated zeros of g(z) - z;
at each one the local order n is the valuation of the jet of g(z) - z.  A root
finder splits a zero of order n >= 2 into a cluster of nearby candidates; such
a cluster comes back as one point, polished to full accuracy; a cluster that
does not merge raises FixedPointClusterError.  The identity germ is order
infinity and is kept separate from the isolated case.
"""

from __future__ import annotations

import cmath
import functools
import math
import weakref

import numpy as np

from . import fields as F
from .jets import Jet1, j_recip, valuation

__all__ = [
    "canonical_psl2",
    "psl2_equal",
    "IdentityMap",
    "AffineMap",
    "MobiusMap",
    "PolyMap",
    "ChainMap",
    "compose_maps",
    "fixed_points",
    "FixedPointClusterError",
    "automorphism_order",
    "Automorphism",
    "GroupLabel",
    "MatrixMobiusAction",
    "FiniteCyclicAction",
    "FreeGeneratorsAction",
    "trivial_action",
]

PSL2_ATOL = 1e-10
FIXPOINT_DEDUPE = 1e-9
# candidates closer than this may be one multiple fixed point split by rounding
FIXPOINT_CLUSTER = 1e-3
NEWTON_GRID = 32
NEWTON_TOL = 1e-12
NEWTON_MAXIT = 60
DEFAULT_N_MAX = 8
# order n reads the jet of g(z) - z to index 2n - 1: 16 >= 2 * DEFAULT_N_MAX - 1
DEFAULT_JET_ORDER = 16


def canonical_psl2(mat):
    """Scale a 2x2 matrix to determinant 1 and fix the overall sign so that
    the first entry larger than the tolerance (scanning a, b, c, d) has
    argument in (-pi/2, pi/2]."""
    m = np.asarray(mat, dtype=complex).reshape(2, 2)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < 1e-14:
        raise ValueError("singular matrix is not a fractional linear map")
    m = m / np.sqrt(det)
    for e in (m[0, 0], m[0, 1], m[1, 0], m[1, 1]):
        if abs(e) > PSL2_ATOL:
            if e.real < -PSL2_ATOL or (abs(e.real) <= PSL2_ATOL and e.imag < 0):
                m = -m
            break
    return m


def psl2_equal(m1, m2, atol=PSL2_ATOL):
    return bool(np.all(np.abs(m1 - m2) <= atol))


class ConformalMap:
    domain: F.Region

    def apply(self, z):
        raise NotImplementedError

    def jet_at(self, z0, order):
        """Univariate jet of g at z0: the holomorphic part of its tree's jet."""
        return F.jet2_at(F.ScalarField(self.expr_tree()), z0, order).restrict_z()

    def _build_trees(self):
        """The trees of g, g' and g''/g', built together to share subtrees."""
        raise NotImplementedError

    @functools.cached_property
    def _trees(self):
        return self._build_trees()

    @functools.cached_property
    def _log_abs_deriv_sq(self):
        gp = self.g_prime_tree()
        return F.Log(F.Mul(gp, F.Conj(gp)))

    def expr_tree(self):
        return self._trees[0]

    def g_prime_tree(self):
        return self._trees[1]

    def log_deriv_tree(self):
        """Tree of g''/g', i.e. the z-derivative of log g'."""
        return self._trees[2]

    def log_abs_deriv_sq_tree(self):
        """Tree of log(g' * conj(g')) = log|g'|^2, principal branch; the
        argument is real and positive so the branch is unambiguous."""
        return self._log_abs_deriv_sq

    def inverse(self):
        raise NotImplementedError(f"{type(self).__name__} has no closed-form inverse")

    def is_identity_germ(self):
        return False

    def preimage_region(self, region):
        """Conservative outer bound for the preimage of a support region;
        the declared domain always works as a fallback."""
        if isinstance(region, F.EmptyRegion):
            return region
        return self.domain if not isinstance(self.domain, F.WholePlane) else None


class IdentityMap(ConformalMap):
    def __init__(self, domain=None):
        self.domain = domain or F.WholePlane()

    def apply(self, z):
        return np.asarray(z, dtype=complex)

    def _build_trees(self):
        return F.VarZ(), F.Const(1.0), F.Const(0.0)

    def inverse(self):
        return self

    def is_identity_germ(self):
        return True

    def preimage_region(self, region):
        return region

    def __repr__(self):
        return "IdentityMap()"


class AffineMap(ConformalMap):
    def __init__(self, a, b=0.0, domain=None):
        if a == 0:
            raise ValueError("affine map needs a nonzero linear part")
        self.a = complex(a)
        self.b = complex(b)
        self.domain = domain or F.WholePlane()

    def apply(self, z):
        return self.a * np.asarray(z, dtype=complex) + self.b

    def _build_trees(self):
        t = F.Mul(F.Const(self.a), F.VarZ()) if self.a != 1 else F.VarZ()
        if self.b != 0:
            t = F.Add([t, F.Const(self.b)])
        return t, F.Const(self.a), F.Const(0.0)

    def inverse(self):
        return AffineMap(1.0 / self.a, -self.b / self.a, self.domain)

    def is_identity_germ(self):
        return abs(self.a - 1.0) <= 1e-12 and abs(self.b) <= 1e-12

    def preimage_region(self, region):
        if region is None:
            return super().preimage_region(region)
        if isinstance(region, F.EmptyRegion):
            return region
        if isinstance(region, F.Disk):
            return F.Disk((region.center - self.b) / self.a, region.radius / abs(self.a))
        bb = region.bbox()
        if bb is None:
            return super().preimage_region(region)
        corners = [complex(x, y) for x in bb[:2] for y in bb[2:]]
        pre = [(c - self.b) / self.a for c in corners]
        xs = [p.real for p in pre]
        ys = [p.imag for p in pre]
        return F.Box(min(xs), max(xs), min(ys), max(ys))

    def __repr__(self):
        return f"AffineMap(a={self.a:.6g}, b={self.b:.6g})"


class MobiusMap(ConformalMap):
    def __init__(self, mat, domain=None):
        self.mat = canonical_psl2(mat)
        self.a, self.b, self.c, self.d = (complex(e) for e in self.mat.ravel())
        self.domain = domain or F.WholePlane()

    def pole(self):
        if abs(self.c) <= 1e-14:
            return None
        return -self.d / self.c

    def apply(self, z):
        z = np.asarray(z, dtype=complex)
        den = self.c * z + self.d
        if np.any(np.abs(den) < 1e-13):
            raise F.FieldDomainError("fractional linear map evaluated at its pole")
        return (self.a * z + self.b) / den

    def _build_trees(self):
        z = F.VarZ()
        num = F.Add([F.Mul(F.Const(self.a), z), F.Const(self.b)])
        rden = F.Recip(F.Add([F.Mul(F.Const(self.c), z), F.Const(self.d)]))
        kappa = (
            F.Const(0.0) if abs(self.c) <= 1e-14 else F.Mul(F.Const(-2.0 * self.c), rden)
        )
        # g' = 1/(cz + d)^2: the determinant is 1 after canonicalization
        return F.Mul(num, rden), F.IntPow(rden, 2), kappa

    def inverse(self):
        return MobiusMap(np.array([[self.d, -self.b], [-self.c, self.a]]), self.domain)

    def is_identity_germ(self):
        return psl2_equal(self.mat, np.eye(2))

    def preimage_region(self, region):
        if region is None or region.bbox() is None:
            return super().preimage_region(region)
        if isinstance(region, F.EmptyRegion):
            return region
        inv = self.inverse()
        # bounded preimage iff the image of infinity stays outside the region
        if abs(self.c) > 1e-14:
            image_of_inf = self.a / self.c
            x0, x1, y0, y1 = region.bbox()
            pad = 1e-9 + 0.01 * max(x1 - x0, y1 - y0)
            if (x0 - pad <= image_of_inf.real <= x1 + pad) and (
                y0 - pad <= image_of_inf.imag <= y1 + pad
            ):
                return super().preimage_region(region)
        if isinstance(region, F.Disk):
            th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
            ring = region.center + region.radius * np.exp(1j * th)
        else:
            x0, x1, y0, y1 = region.bbox()
            ts = np.linspace(0.0, 1.0, 17)
            edges = (
                [complex(x0 + t * (x1 - x0), y0) for t in ts]
                + [complex(x0 + t * (x1 - x0), y1) for t in ts]
                + [complex(x0, y0 + t * (y1 - y0)) for t in ts]
                + [complex(x1, y0 + t * (y1 - y0)) for t in ts]
            )
            ring = np.array(edges)
        pre = inv.apply(ring)
        rx0, rx1 = pre.real.min(), pre.real.max()
        ry0, ry1 = pre.imag.min(), pre.imag.max()
        pad = 0.02 * max(rx1 - rx0, ry1 - ry0, 1e-6)
        return F.Box(rx0 - pad, rx1 + pad, ry0 - pad, ry1 + pad)

    def __repr__(self):
        return f"MobiusMap([[{self.a:.6g}, {self.b:.6g}], [{self.c:.6g}, {self.d:.6g}]])"


class PolyMap(ConformalMap):
    """Polynomial map with ascending coefficients [c0, c1, ...]."""

    def __init__(self, coeffs, domain=None):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if len(self.coeffs) < 2 or np.all(np.abs(self.coeffs[1:]) == 0):
            raise ValueError("polynomial map needs a nonconstant part")
        self.domain = domain or F.WholePlane()

    def apply(self, z):
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc

    def _build_trees(self):
        z = F.VarZ()

        def horner(coeffs):
            acc = F.Const(coeffs[-1])
            for c in coeffs[-2::-1]:
                acc = F.Add([F.Mul(acc, z), F.Const(c)])
            return acc

        d1 = self.coeffs[1:] * np.arange(1, len(self.coeffs))
        gp = horner(d1)
        if len(d1) == 1:
            return horner(self.coeffs), gp, F.Const(0.0)
        d2 = d1[1:] * np.arange(1, len(d1))
        return horner(self.coeffs), gp, F.Mul(horner(d2), F.Recip(gp))

    def is_identity_germ(self):
        c = self.coeffs
        ok = abs(c[0]) <= 1e-12 and abs(c[1] - 1.0) <= 1e-12
        return ok and np.all(np.abs(c[2:]) <= 1e-12)

    def __repr__(self):
        return f"PolyMap({list(self.coeffs)})"


class ChainMap(ConformalMap):
    """Composition parts[0] o parts[1] o ... o parts[-1]."""

    def __init__(self, parts, domain=None):
        flat = []
        for p in parts:
            if isinstance(p, ChainMap):
                flat.extend(p.parts)
            elif not isinstance(p, IdentityMap):
                flat.append(p)
        self.parts = tuple(flat)
        if domain is None:
            for p in self.parts[::-1]:
                if not isinstance(p.domain, F.WholePlane):
                    domain = p.domain
                    break
        self.domain = domain or F.WholePlane()

    def apply(self, z):
        out = np.asarray(z, dtype=complex)
        for p in self.parts[::-1]:
            out = p.apply(out)
        return out

    def _build_trees(self):
        # innermost part first: g' multiplies the parts' derivatives, and g''/g'
        # sums each part's g''/g' times the derivative of everything inside it
        inner, gp, terms = F.VarZ(), None, []
        for p in self.parts[::-1]:
            memo = {}
            conj = F.Conj(inner)
            p_expr, p_gp, p_kappa = (t.subst(inner, conj, memo) for t in p._trees)
            terms.append(p_kappa if gp is None else F.Mul(p_kappa, gp))
            gp = p_gp if gp is None else F.Mul(gp, p_gp)
            inner = p_expr
        return inner, gp, F.Add(terms)

    def inverse(self):
        return ChainMap([p.inverse() for p in self.parts[::-1]], None)

    def is_identity_germ(self):
        # best effort: probe the jet at a regular point plus a few samples
        z0 = 0.0
        bb = self.domain.bbox()
        if bb is not None:
            z0 = complex(0.5 * (bb[0] + bb[1]), 0.5 * (bb[2] + bb[3]))
        try:
            d = _fix_jet(self, z0, 8)
        except F.FieldDomainError:
            return False
        if np.max(np.abs(d.coeffs)) > 1e-10:
            return False
        probes = z0 + np.array([0.11 + 0.07j, -0.13 + 0.02j, 0.05 - 0.12j])
        return bool(np.max(np.abs(self.apply(probes) - probes)) <= 1e-10)

    def __repr__(self):
        return f"ChainMap({list(self.parts)})"


def _as_matrix(g):
    if isinstance(g, IdentityMap):
        return np.eye(2, dtype=complex)
    if isinstance(g, AffineMap):
        return np.array([[g.a, g.b], [0.0, 1.0]], dtype=complex)
    if isinstance(g, MobiusMap):
        return g.mat
    return None


def _trim(c):
    """c without its trailing zero coefficients, keeping at least one."""
    nz = np.flatnonzero(c)
    return c[: nz[-1] + 1 if len(nz) else 1]


def _polymul(a, b):
    """The product of two complex polynomials in ascending coefficients, as
    numpy.polynomial.polynomial.polymul gives it: the convolution, with
    trailing zeros trimmed from both factors and from the product."""
    return _trim(np.convolve(_trim(a), _trim(b)))


def compose_maps(g, h, domain=None):
    """g o h, collapsed to the simplest variant available."""
    if isinstance(g, IdentityMap):
        return h
    if isinstance(h, IdentityMap):
        return g
    mg, mh = _as_matrix(g), _as_matrix(h)
    if mg is not None and mh is not None:
        m = canonical_psl2(mg @ mh)
        dom = domain or h.domain
        if abs(m[1, 0]) <= 1e-14:
            return AffineMap(m[0, 0] / m[1, 1], m[0, 1] / m[1, 1], dom)
        return MobiusMap(m, dom)
    if isinstance(g, PolyMap) and isinstance(h, PolyMap):
        comp = np.zeros(1, dtype=complex)
        for c in g.coeffs[::-1]:
            comp = _polymul(comp, h.coeffs)
            comp[0] += c
        return PolyMap(comp, domain or h.domain)
    return ChainMap([g, h], domain or h.domain)


# ---------------------------------------------------------------------------
# fixed points


def _dedupe(points, tol=FIXPOINT_DEDUPE):
    """The points in sorted order, each kept if it is farther than tol from
    every point kept before it."""
    kept = np.empty(len(points), dtype=complex)
    n = 0
    for p in sorted(points, key=lambda w: (round(w.real, 12), round(w.imag, 12))):
        if np.all(np.abs(p - kept[:n]) > tol):
            kept[n] = p
            n += 1
    return [complex(p) for p in kept[:n]]


def _memo(g, name):
    """A cache kept on the map object.  Labels intern their maps, so it lives
    as long as the action that holds the label, and reference counting frees
    it with the action: labels refer to their action weakly."""
    return g.__dict__.setdefault(name, {})


class FixedPointClusterError(Exception):
    """Candidate fixed points closer than the cluster radius do not merge
    into one multiple fixed point inside the region."""


def fixed_points(g, region=None):
    """Isolated fixed points of g inside the region, as a new list.  Identity
    germs have no isolated fixed points and return the empty list.  Each map
    searches a region, told apart by its exact defining numbers, once.

    Fractional linear and polynomial maps take their candidates from the
    roots of g(z) - z (times the denominator): exact zero roots are stripped
    first, a linear or quadratic core is solved in closed form (the quadratic
    by the stable formula on a correctly rounded discriminant, within a few
    ulps of the exact roots of the rounded coefficients, near-double roots
    included), and only a core of degree 3 or more goes to the companion
    matrix's eigenvalues.  Other maps use Newton's method from a grid.

    Candidates within FIXPOINT_CLUSTER of each other are taken for one
    multiple fixed point that rounding split.  When they do not merge into one
    point of that multiplicity inside the region, the points are too close for
    the simple-point formula and FixedPointClusterError is raised."""
    region = region or g.domain
    memo = _memo(g, "_fixed_points")
    key = (type(region), *vars(region).values())
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = _find_fixed_points(g, region)
    return list(hit)


def _find_fixed_points(g, region):
    if g.is_identity_germ():
        return []
    if isinstance(g, AffineMap):
        if abs(g.a - 1.0) <= 1e-14:
            return []
        cands = [g.b / (1.0 - g.a)]
    elif isinstance(g, MobiusMap):
        if abs(g.c) <= 1e-14:
            aa, bb = g.a / g.d, g.b / g.d
            if abs(aa - 1.0) <= 1e-14:
                return []
            cands = [bb / (1.0 - aa)]
        elif abs((g.a + g.d) ** 2 - 4.0) <= PSL2_ATOL:
            # parabolic: double fixed point; the quadratic formula would split
            # it into two spurious simple roots
            cands = [(g.a - g.d) / (2.0 * g.c)]
        else:
            cands = _roots([g.c, g.d - g.a, -g.b])
    elif isinstance(g, PolyMap):
        c = g.coeffs.copy()
        c[1] -= 1.0
        cands = _roots(c[::-1])
    else:
        cands = _newton_fixed_points(g, region)
    inside = [complex(p) for p in cands if bool(np.all(region.contains(p)))]
    pts, out = _dedupe(inside), []
    while pts:
        near = [p for p in pts if abs(p - pts[0]) <= FIXPOINT_CLUSTER]
        # a lone candidate is its own point, covering only itself
        hit = (pts[0], 0.0) if len(near) < 2 else _merge_multiple(g, near)
        if hit is None or not bool(np.all(region.contains(hit[0]))):
            raise FixedPointClusterError(
                f"{len(near)} fixed points within {FIXPOINT_CLUSTER:g} of {pts[0]:.6g} "
                "do not merge into one multiple fixed point"
            )
        out.append(hit[0])
        pts = [p for p in pts if abs(p - hit[0]) > hit[1]]
    return out


def _roots(p):
    """The roots of the polynomial with descending coefficients p, as a list
    of complex numbers; none for the zero polynomial.  As numpy.roots does,
    it strips leading zeros and the exact zero roots (trailing zeros), which
    come last.  A linear core gives -p1/p0, numpy.roots' 1x1 eigenvalue bit
    for bit.  A quadratic core a z^2 + b z + c takes the stable quadratic
    formula: q = -(b + s sqrt(b^2 - 4ac))/2, with the sign s that makes the
    sum add, and the roots q/a and c/q.  Only a core of degree 3 or more goes
    to numpy.roots, whose companion-matrix eigenvalues come from LAPACK."""
    p = np.asarray(p, dtype=complex)
    nz = np.flatnonzero(p)
    if len(nz) == 0:
        return []
    core, zeros = p[nz[0] : nz[-1] + 1], [0j] * (len(p) - 1 - nz[-1])
    if len(core) == 1:
        return zeros
    if len(core) == 2:
        return [complex((-core[1:] / core[0])[0]), *zeros]
    if len(core) == 3:
        a, b, c = (complex(e) for e in core)
        sq = cmath.sqrt(_discriminant(a, b, c))
        if (b.conjugate() * sq).real < 0.0:
            sq = -sq
        q = -0.5 * (b + sq)
        return [q / a, c / q, *zeros]
    return [complex(r) for r in np.roots(core)] + zeros


def _discriminant(a, b, c):
    """b^2 - 4ac, each part correctly rounded, so a near-double root loses no
    digits to cancellation before the square root."""
    ar4, ai4 = 4.0 * a.real, 4.0 * a.imag
    re = _sum_of_products((b.real, b.real), (-b.imag, b.imag), (-ar4, c.real), (ai4, c.imag))
    im = _sum_of_products((2.0 * b.real, b.imag), (-ar4, c.imag), (-ai4, c.real))
    return complex(re, im)


def _sum_of_products(*pairs):
    """The sum of x * y over the pairs, correctly rounded: each product is
    its rounded value plus its exact error (Dekker's two-product, with
    Veltkamp's split at 2^27 + 1), and math.fsum adds the parts exactly."""
    parts = []
    for x, y in pairs:
        p = x * y
        (xh, xl), (yh, yl) = _split(x), _split(y)
        parts += (p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl)
    return math.fsum(parts)


def _split(x):
    t = 134217729.0 * x
    hi = t - (t - x)
    return hi, x - hi


def _merge_multiple(g, cluster):
    """The multiple fixed point that rounding split into the cluster, and the
    radius within which candidates are that point; or None.  On a disk 100
    times wider than the cluster, the dominant term of the jet of g(z) - z at
    the centroid counts its zeros, n; the point is the simple zero of the
    (n-1)-th derivative, by Newton's method, if g(z) - z has valuation n there."""
    z0 = complex(np.mean(cluster))
    spread = max(abs(p - z0) for p in cluster)
    d = _fix_jet(g, z0, DEFAULT_JET_ORDER).coeffs
    n = int(np.argmax(np.abs(d) * (100.0 * spread) ** np.arange(len(d))))
    if n < 2:
        return None
    for _ in range(NEWTON_MAXIT):
        d = _fix_jet(g, z0, n).coeffs
        step = d[n - 1] / (n * d[n])
        z0 -= step
        if abs(step) <= 1e-15 * max(1.0, abs(z0)):
            break
    if valuation(_fix_jet(g, z0, DEFAULT_JET_ORDER)) != n:
        return None
    return complex(z0), 10.0 * spread


def _newton_fixed_points(g, region):
    bb = region.bbox()
    if bb is None:
        raise ValueError("fixed-point search needs a bounded region for this map")
    x = np.linspace(bb[0], bb[1], NEWTON_GRID)
    y = np.linspace(bb[2], bb[3], NEWTON_GRID)
    Z = (x[None, :] + 1j * y[:, None]).ravel()
    alive = np.ones(Z.shape, dtype=bool)
    for _ in range(NEWTON_MAXIT):
        try:
            fz = g.apply(Z[alive]) - Z[alive]
            dfz = F.eval_field(F.ScalarField(g.g_prime_tree(), None), Z[alive]) - 1.0
        except F.FieldDomainError:
            break
        step = np.where(np.abs(dfz) > 1e-300, fz / dfz, 0.0)
        Z[alive] = Z[alive] - step
        done = np.abs(fz) <= NEWTON_TOL
        idx = np.where(alive)[0]
        alive[idx[done]] = False
        if not alive.any():
            break
    try:
        resid = np.abs(g.apply(Z) - Z)
    except F.FieldDomainError:
        return []
    good = Z[resid <= 10 * NEWTON_TOL]
    return list(good)


def _fix_jet(g, z0, order):
    """Jet of g(z) - z at z0, computed once per map, point and order."""
    memo = _memo(g, "_fix_jets")
    w = complex(z0)
    key = (w.real.hex(), w.imag.hex(), order)  # exact, signed zeros apart
    hit = memo.get(key)
    if hit is None:
        d = g.jet_at(z0, order).coeffs
        d[0] -= z0
        d[1:2] -= 1.0
        hit = memo[key] = Jet1(z0, d)
    return hit


class Automorphism:
    """A group label with one of its isolated fixed points, the local order n
    (valuation of the jet d of g(z) - z there), d, and 1/(d/(z - z0)^n) to n terms."""

    def __init__(self, label, cmap, z0, order_n, d_jet):
        self.label = label
        self.cmap = cmap
        self.z0 = complex(z0)
        self.order = order_n
        self.d_jet = d_jet
        if order_n != math.inf:  # an identity germ has no reciprocal
            self._recip = j_recip(Jet1(z0, d_jet.coeffs[order_n : 2 * order_n])).coeffs

    def trace_coefficient(self, a_jet):
        """Single fixed-point contribution, the residue of a/(z - g(z)) at z0:
        -sum_{i<n} r_i a_{n-1-i}, with r the reciprocal series and a the
        holomorphic restriction jet, which must reach order n - 1."""
        n = self.order
        acc = 0j
        for i in range(n):
            acc += complex(self._recip[i]) * a_jet.coeff(n - 1 - i)
        return -acc

    def __repr__(self):
        return (
            f"Automorphism(label={self.label}, z0={self.z0:.6g}, order={self.order})"
        )


def automorphism_order(g, z0, jet_order=DEFAULT_JET_ORDER, label=None):
    """Local order data of g at a fixed point z0.  Orders above DEFAULT_N_MAX,
    and jets too short for the kernel (jet_order < 2n - 1, or a zero jet off
    an identity germ), raise UnsupportedOrderError: the kernel never reads a
    truncated jet."""
    d = _fix_jet(g, z0, jet_order)
    v = valuation(d)
    if v is None:
        if g.is_identity_germ():
            return Automorphism(label, g, z0, math.inf, d)
        raise F.UnsupportedOrderError(
            f"g(z) - z vanishes to jet order {jet_order} at {z0} off an identity germ"
        )
    if v == 0:
        raise ValueError(f"{z0} is not a fixed point: g(z0) - z0 = {d.coeffs[0]}")
    if v > DEFAULT_N_MAX:
        raise F.UnsupportedOrderError(
            f"local order {v} at {z0} exceeds the bound {DEFAULT_N_MAX}"
        )
    if jet_order < 2 * v - 1:
        raise F.UnsupportedOrderError(
            f"local order {v} at {z0} needs jet order {2 * v - 1}, got {jet_order}"
        )
    return Automorphism(label, g, z0, v, d)


# ---------------------------------------------------------------------------
# group actions


class GroupLabel:
    """One interned group element: its key, its map and its name.  The label
    refers to its action weakly (a weakref.proxy), so an action and its labels
    form no reference cycle.  Code that reads .action holds the action too, as
    a CrossedForm does through its own action attribute."""

    __slots__ = ("action", "key", "cmap", "index", "name")

    def __init__(self, action, key, cmap, index, name):
        self.action = weakref.proxy(action)
        self.key = key
        self.cmap = cmap
        self.index = index
        self.name = name

    def __repr__(self):
        return f"<{self.name}>"


class GroupAction:
    """Label bookkeeping for a group acting by conformal maps.  Labels are
    interned: equal group elements always come back as the same object, so
    they can key dictionaries directly.  The action holds its labels and each
    label refers back to it weakly, so the action, its labels, their maps and
    the maps' trees are freed by reference counting once the last holder of
    the action (a CrossedForm, say) is gone; a label used after that raises
    ReferenceError on .action."""

    def __init__(self, domain):
        self.domain = domain or F.WholePlane()
        self._labels = []

    def _new_label(self, key, cmap, name):
        lab = GroupLabel(self, key, cmap, len(self._labels), name)
        self._labels.append(lab)
        return lab

    @property
    def unit(self):
        raise NotImplementedError

    def compose(self, l1, l2):
        """Label of the product l1 l2, whose underlying map is map(l1) o map(l2)."""
        raise NotImplementedError

    def inverse(self, lab):
        raise NotImplementedError

    def by_name(self, name):
        for lab in self._labels:
            if lab.name == name:
                return lab
        raise KeyError(name)


class MatrixMobiusAction(GroupAction):
    def __init__(self, generators=(), domain=None):
        super().__init__(domain)
        self._unit = self._new_label(0, IdentityMap(self.domain), "1")
        for name, mat in generators:
            self.intern_matrix(mat, name)

    @property
    def unit(self):
        return self._unit

    def intern_matrix(self, mat, name=None):
        m = canonical_psl2(mat)
        if psl2_equal(m, np.eye(2)):
            return self._unit
        for lab in self._labels:
            if lab is self._unit:
                continue
            if psl2_equal(lab.cmap.mat, m):
                return lab
        if abs(m[1, 0]) <= 1e-14:
            cmap = AffineMap(m[0, 0] / m[1, 1], m[0, 1] / m[1, 1], self.domain)
            cmap.mat = m  # keep the canonical matrix for interning
        else:
            cmap = MobiusMap(m, self.domain)
        return self._new_label(None, cmap, name or f"w{len(self._labels)}")

    def compose(self, l1, l2):
        m1 = l1.cmap.mat if hasattr(l1.cmap, "mat") else _as_matrix(l1.cmap)
        m2 = l2.cmap.mat if hasattr(l2.cmap, "mat") else _as_matrix(l2.cmap)
        return self.intern_matrix(m1 @ m2)

    def inverse(self, lab):
        m = lab.cmap.mat if hasattr(lab.cmap, "mat") else _as_matrix(lab.cmap)
        inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)
        return self.intern_matrix(inv)


class FiniteCyclicAction(GroupAction):
    """Cyclic group of order m generated by one invertible map."""

    def __init__(self, generator, modulus, domain=None):
        super().__init__(domain)
        self.modulus = int(modulus)
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        maps = [IdentityMap(self.domain)]
        for _ in range(1, self.modulus):
            maps.append(compose_maps(generator, maps[-1], self.domain))
        check = compose_maps(generator, maps[-1], self.domain)
        if not check.is_identity_germ():
            raise ValueError("generator does not have the stated finite order")
        self._by_key = {}
        for k in range(self.modulus):
            name = "1" if k == 0 else f"r{k}"
            self._by_key[k] = self._new_label(k, maps[k], name)

    @property
    def unit(self):
        return self._by_key[0]

    def compose(self, l1, l2):
        return self._by_key[(l1.key + l2.key) % self.modulus]

    def inverse(self, lab):
        return self._by_key[(-lab.key) % self.modulus]


def _free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class FreeGeneratorsAction(GroupAction):
    """Free group on named generators; labels are reduced words of
    (name, +1/-1) letters."""

    def __init__(self, generators=None, domain=None):
        super().__init__(domain)
        self.gens = dict(generators or {})
        self._by_key = {}
        self._unit = self._intern(())

    def _word_map(self, word):
        out = IdentityMap(self.domain)
        for name, sgn in word:
            g = self.gens[name]
            if sgn < 0:
                g = g.inverse()
            out = compose_maps(out, g, self.domain)
        return out

    def _intern(self, word):
        word = _free_reduce(word)
        hit = self._by_key.get(word)
        if hit is None:
            name = "1" if not word else "*".join(
                n if s > 0 else f"{n}^-1" for n, s in word
            )
            hit = self._new_label(word, self._word_map(word), name)
            self._by_key[word] = hit
        return hit

    @property
    def unit(self):
        return self._unit

    def generator(self, name, sgn=1):
        return self._intern(((name, sgn),))

    def compose(self, l1, l2):
        return self._intern(l1.key + l2.key)

    def inverse(self, lab):
        return self._intern(tuple((n, -s) for n, s in lab.key[::-1]))


def trivial_action(domain=None):
    return FreeGeneratorsAction({}, domain)
