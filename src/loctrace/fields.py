"""Scalar coefficient fields on a planar chart.

A field is a small expression tree in the variables z and zbar whose leaves
include smooth compactly supported cutoff factors.  Evaluating a field always
goes through truncated bivariate Taylor expansion (Jet2 data) at a batch of
points in one vectorized numpy pass; a plain value query is the order-0 case.

The cutoff ("bump") profile equals 1 on a closed plateau disk, 0 outside a
larger support disk, and is glued with the standard exp(-1/t) profile in the
annulus between the two radii.  On the plateau and outside the support the
factor is exactly constant, so Taylor data of any order is available there;
inside the glue annulus the order is capped (GLUE_ORDER_CAP) and higher
requests raise UnsupportedOrderError.

A single-point jet (jet2_at) also records whether it is locally exact: any
cutoff that meets its point, or the image of that point under a composition,
inside the transition annulus widened by PLATEAU_MARGIN marks the jet as not
flat.  The check rides on the jet evaluation itself; batched value queries
skip it.

Trees are immutable and shared.  The interpreter (``EvalCtx`` and each
node's jet rule) memoizes on node identity so that products built from
common subexpressions do not pay twice; it serves one-shot values and every
jet.  A quadrature integrand (``integrand``), and any field evaluated on a
batch of points a second time, runs a flat tape: the same jet rules
recorded at order 0 as numpy operations on registers, one flat tuple
(kernel, output, *inputs) per instruction, run in one arena of reused
block-sized rows that start on 64-byte cache lines.  The arena is bounded by
bytes (``_ARENA_BYTES``, 2 MiB): a tape with more rows than fit a whole
quadrature block runs in halved sub-blocks instead.  Recording makes no
reference cycle, so the recorder and its registers are freed as soon as the
tape is built.  Tapes are shared by structure: a module cache, keyed by the
tree's distinct subtrees with their classes and attributes, hands every
equal tree the tape recorded for the first.  A jet's keys depend on the tree
and the order alone, so on every batch tape and interpreter give the same
finite values, bit for bit but for the sign of a zero.
"""

from __future__ import annotations

import heapq
import math
import weakref
from functools import partial

import numpy as np

from .jets import Jet2
from .quadrature import empty_aligned

__all__ = [
    "UnsupportedOrderError",
    "FieldDomainError",
    "Region",
    "WholePlane",
    "EmptyRegion",
    "Disk",
    "Box",
    "Annulus",
    "ScalarField",
    "fconst",
    "fzero",
    "fone",
    "fz",
    "fzbar",
    "fmonomial",
    "bump_field",
    "bumped",
    "fadd",
    "fmul",
    "fneg",
    "fscale",
    "fconj",
    "fpow",
    "frecip",
    "flog",
    "fderiv",
    "fpullback",
    "eval_field",
    "integrand",
    "jet2_at",
    "plateau_safe",
    "field_to_sexp",
    "field_from_sexp",
]

GLUE_ORDER_CAP = 8
# relative widening of a cutoff's transition annulus in the flatness check
PLATEAU_MARGIN = 1e-9


class UnsupportedOrderError(Exception):
    """Raised when Taylor data is requested beyond the glue order cap inside
    a cutoff transition annulus."""


class FieldDomainError(Exception):
    """Raised when an evaluation hits a pole or a branch point."""


# ---------------------------------------------------------------------------
# regions; only used for conservative support bookkeeping


class Region:
    def bbox(self):
        """(x0, x1, y0, y1) outer bounds, or None when unbounded."""
        return None

    def contains(self, z):
        raise NotImplementedError


class WholePlane(Region):
    def contains(self, z):
        return np.ones(np.shape(z), dtype=bool)

    def __repr__(self):
        return "WholePlane()"


class EmptyRegion(Region):
    def bbox(self):
        return (0.0, 0.0, 0.0, 0.0)

    def contains(self, z):
        return np.zeros(np.shape(z), dtype=bool)

    def __repr__(self):
        return "EmptyRegion()"


class Disk(Region):
    def __init__(self, center, radius):
        self.center = complex(center)
        self.radius = float(radius)

    def bbox(self):
        c, r = self.center, self.radius
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)

    def contains(self, z):
        return np.abs(np.asarray(z, dtype=complex) - self.center) <= self.radius

    def __repr__(self):
        return f"Disk({self.center}, {self.radius})"


class Box(Region):
    def __init__(self, x0, x1, y0, y1):
        self.b = (float(x0), float(x1), float(y0), float(y1))

    def bbox(self):
        return self.b

    def contains(self, z):
        z = np.asarray(z, dtype=complex)
        x0, x1, y0, y1 = self.b
        return (z.real >= x0) & (z.real <= x1) & (z.imag >= y0) & (z.imag <= y1)

    def __repr__(self):
        return f"Box{self.b}"


class Annulus(Region):
    def __init__(self, center, r_inner, r_outer):
        self.center = complex(center)
        self.r_inner = float(r_inner)
        self.r_outer = float(r_outer)

    def bbox(self):
        c, r = self.center, self.r_outer
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)

    def contains(self, z):
        d = np.abs(np.asarray(z, dtype=complex) - self.center)
        return (d >= self.r_inner) & (d <= self.r_outer)

    def __repr__(self):
        return f"Annulus({self.center}, {self.r_inner}, {self.r_outer})"


def bbox_union(a, b):
    if a is None or b is None:
        return None
    return (min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]))


# ---------------------------------------------------------------------------
# jet dictionaries: {(p, q): ndarray}, missing keys are zero.  All arrays in
# one dictionary share a common flat shape.


def jd_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + v if k in out else v
    return out


def jd_scale(a, s):
    return {k: v * s for k, v in a.items()}


def jd_mul(a, b, order):
    out = {}
    for (p1, q1), v1 in a.items():
        if p1 + q1 > order:
            continue
        for (p2, q2), v2 in b.items():
            p, q = p1 + p2, q1 + q2
            if p + q > order:
                continue
            key = (p, q)
            prod = v1 * v2
            out[key] = out[key] + prod if key in out else prod
    return out


def jd_conj(a):
    return {(q, p): np.conj(v) for (p, q), v in a.items()}


def jd_pow(a, n, order, ctx):
    out = {(0, 0): ctx.full(1.0)}
    for _ in range(n):
        out = jd_mul(out, a, order)
    return out


def _value(a, ctx):
    """The (0, 0) entry of a jet dictionary, zero when it is missing."""
    v = a.get((0, 0))
    return ctx.full(0.0) if v is None else v


def _split_const(a, ctx):
    rest = {k: v for k, v in a.items() if k != (0, 0)}
    return _value(a, ctx), rest


def _annulus_met(annulus, K):
    """Whether a cutoff's jet takes its profile terms.  Orders 1 to the cap
    always do, as they are 0 off the annulus, so the jet's keys depend on the
    tree and the order alone; order 0 and orders past the cap take them only
    where a point lies in the transition annulus, which past the cap raises."""
    if 0 < K <= GLUE_ORDER_CAP:
        return True
    met = bool(np.any(annulus))
    if met and K:
        raise UnsupportedOrderError(
            f"jet order {K} exceeds glue cap {GLUE_ORDER_CAP} inside a cutoff annulus"
        )
    return met


def _nonvanishing(c0, message):
    # a complex value is falsy exactly when both parts are zero; NaN is truthy
    if not np.all(c0):
        raise FieldDomainError(message)


def jd_recip(a, order, ctx, where):
    """1/f as a jet dictionary; f's value must not vanish on the batch."""
    c0, rest = _split_const(a, ctx)
    ctx.nonvanishing(c0, f"reciprocal of a vanishing field ({where})")
    inv0 = 1.0 / c0
    out = {(0, 0): inv0.copy()}
    if rest:
        term = {(0, 0): ctx.full(1.0)}
        scaled = jd_scale(rest, -1.0)
        scaled = {k: v * inv0 for k, v in scaled.items()}
        for _ in range(order):
            term = jd_mul(term, scaled, order)
            if not term:
                break
            for k, v in term.items():
                out[k] = out[k] + v * inv0 if k in out else v * inv0
    return out


def jd_log(a, order, ctx, where):
    """Principal-branch log of f."""
    c0, rest = _split_const(a, ctx)
    ctx.nonvanishing(c0, f"log of a vanishing field ({where})")
    out = {(0, 0): np.log(c0)}
    if rest:
        u = {k: v / c0 for k, v in rest.items()}
        term = {(0, 0): ctx.full(1.0)}
        for m in range(1, order + 1):
            term = jd_mul(term, u, order)
            if not term:
                break
            s = ((-1.0) ** (m + 1)) / m
            for k, v in term.items():
                out[k] = out[k] + v * s if k in out else v * s
    return out


# ---------------------------------------------------------------------------
# vectorized univariate jets for the cutoff profile; a jet is a list of
# order+1 arrays of normalized Taylor coefficients.


def uv_mul(A, B):
    out = []
    for k in range(len(A)):
        acc = 0.0
        for j in range(k + 1):
            acc = acc + A[j] * B[k - j]
        out.append(acc)
    return out


def uv_recip(A):
    out = [1.0 / A[0]]
    for k in range(1, len(A)):
        acc = 0.0
        for j in range(1, k + 1):
            acc = acc + A[j] * out[k - j]
        out.append(-acc / A[0])
    return out


def uv_exp(A):
    out = [np.exp(A[0])]
    for k in range(1, len(A)):
        acc = 0.0
        for j in range(1, k + 1):
            acc = acc + j * A[j] * out[k - j]
        out.append(acc / k)
    return out


def _sqrt_jet(s0, m):
    """Jet of sqrt at strictly positive s0: binomial(1/2, k) s0^(1/2-k)."""
    out = []
    b = 1.0
    for k in range(m + 1):
        # what s0 ** (0.5 - k) computes: numpy takes the square root for 0.5
        out.append(b * (np.sqrt(s0) if k == 0 else np.power(s0, 0.5 - k)))
        b *= (0.5 - k) / (k + 1)
    return out


def bump_profile_jet(s0, m, r_pl, r_sup):
    """Univariate jet in s = |w - c|^2 of the glued cutoff, at interior
    annulus points r_pl < sqrt(s0) < r_sup."""
    R = _sqrt_jet(s0, m)
    # exp(-1/(r_sup - r)) and exp(-1/(r - r_pl)) as the exponentials of the
    # reciprocals of r - r_sup and r_pl - r: the reciprocal of a negated jet
    # is the negated reciprocal, bit for bit
    A = [R[0] - r_sup] + R[1:]
    B = [r_pl - R[0]] + [-r for r in R[1:]]
    ga = uv_exp(uv_recip(A))
    gb = uv_exp(uv_recip(B))
    return uv_mul(ga, uv_recip([a + b for a, b in zip(ga, gb)]))


def _profile_terms(F, ds, K):
    """The terms F[1] ds + ... + F[K] ds^K of the profile at s0 + ds, by
    Horner's rule; their keys depend on those of ds and on K alone."""
    acc = {(0, 0): F[K].astype(complex)}
    for k in range(K - 1, -1, -1):
        acc = jd_mul(acc, ds, K)
        if k:
            acc[(0, 0)] = acc.get((0, 0), 0) + F[k]
    return acc


def _bump_jet(node, wj, K, ctx):
    """Jet dictionary of a cutoff from the jet of its inner point.  The glue
    profile is computed on the whole batch, at points moved into the
    transition annulus where they lie off it, and kept on the annulus."""
    wc = dict(wj)
    wc[(0, 0)] = _value(wj, ctx) - node.center
    sj = jd_mul(wc, jd_conj(wc), K)
    s0 = np.real(_value(sj, ctx))
    plateau = s0 <= node.r_pl ** 2
    annulus = ~(plateau | (s0 >= node.r_sup ** 2))
    if not ctx.annulus_met(annulus, K):
        return {(0, 0): plateau.astype(complex)}
    ds = {k: v for k, v in sj.items() if k != (0, 0)}
    if K and ctx.profile_vanishes(annulus):
        # the terms' keys, from scalars; each term is 0, as add_where leaves it
        zero = np.float64(0.0)
        keys = _profile_terms([zero] * (K + 1), dict.fromkeys(ds, zero), K)
        return {(0, 0): plateau.astype(complex), **{k: ctx.full(0.0) for k in keys}}
    mid = 0.5 * (node.r_pl + node.r_sup)
    F = bump_profile_jet(ctx.where(annulus, s0, mid * mid), K, node.r_pl, node.r_sup)
    # the value is the profile on the annulus, where the plateau is 0; the
    # profile is never -0, so adding it to 0 is the same
    out = {(0, 0): ctx.where(annulus, F[0], plateau).astype(complex)}
    if K:
        for key, v in _profile_terms(F, ds, K).items():
            out[key] = ctx.add_where(ctx.full(0.0), v, annulus)
    return out


# ---------------------------------------------------------------------------
# expression nodes


class EvalCtx:
    """One interpreter evaluation on a batch of points.  Where the nodes' jet
    rules need more than arithmetic and numpy ufuncs they call the methods
    below, so that the tape recorder can run the same rules on registers."""

    __slots__ = ("memo", "npts", "keepalive", "flat")

    def __init__(self, npts, check_flat=False):
        self.memo = {}
        self.npts = npts
        self.keepalive = []
        # None: not checked; otherwise False once a cutoff was met off its plateau
        self.flat = True if check_flat else None

    def full(self, value):
        return np.full(self.npts, value, dtype=complex)

    def nonvanishing(self, c0, message):
        _nonvanishing(c0, message)

    def annulus_met(self, annulus, K):
        """Whether a cutoff jet of order K takes its profile terms: always
        for 1 <= K <= GLUE_ORDER_CAP, else where a point meets the annulus."""
        return _annulus_met(annulus, K)

    def profile_vanishes(self, annulus):
        """Whether a cutoff jet of order 1 to the cap may leave out its
        profile: no point of the batch meets the annulus."""
        return not np.any(annulus)

    def where(self, mask, a, b):
        return np.where(mask, a, b)

    def add_where(self, base, v, mask):
        return np.add(base, v, out=base.copy(), where=mask)


class Node:
    __slots__ = ()

    def jet(self, z, K, ctx):
        # the batch id is part of the key: composed subtrees are evaluated at
        # mapped points, and id reuse is prevented by the keepalive list
        key = (id(self), K, id(z))
        hit = ctx.memo.get(key)
        if hit is None:
            hit = self._jet(z, K, ctx)
            ctx.memo[key] = hit
            ctx.keepalive.append(z)
        return hit

    def subst(self, zr, zbr, memo):
        key = id(self)
        hit = memo.get(key)
        if hit is None:
            hit = self._subst(zr, zbr, memo)
            memo[key] = hit
        return hit


class Const(Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = complex(value)

    def _jet(self, z, K, ctx):
        return {(0, 0): ctx.full(self.value)}

    def _subst(self, zr, zbr, memo):
        return self


class VarZ(Node):
    __slots__ = ()

    def _jet(self, z, K, ctx):
        out = {(0, 0): z.astype(complex)}
        if K >= 1:
            out[(1, 0)] = ctx.full(1.0)
        return out

    def _subst(self, zr, zbr, memo):
        return zr


class VarZbar(Node):
    __slots__ = ()

    def _jet(self, z, K, ctx):
        out = {(0, 0): np.conj(z)}
        if K >= 1:
            out[(0, 1)] = ctx.full(1.0)
        return out

    def _subst(self, zr, zbr, memo):
        return zbr


class Add(Node):
    __slots__ = ("terms",)

    def __init__(self, terms):
        flat = []
        for t in terms:
            if isinstance(t, Add):
                flat.extend(t.terms)
            elif not (isinstance(t, Const) and t.value == 0):
                flat.append(t)
        self.terms = tuple(flat)

    def _jet(self, z, K, ctx):
        out = {}
        for t in self.terms:
            out = jd_add(out, t.jet(z, K, ctx))
        return out

    def _subst(self, zr, zbr, memo):
        return Add([t.subst(zr, zbr, memo) for t in self.terms])


class Mul(Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def _jet(self, z, K, ctx):
        return jd_mul(self.a.jet(z, K, ctx), self.b.jet(z, K, ctx), K)

    def _subst(self, zr, zbr, memo):
        return Mul(self.a.subst(zr, zbr, memo), self.b.subst(zr, zbr, memo))


class Neg(Node):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def _jet(self, z, K, ctx):
        return jd_scale(self.a.jet(z, K, ctx), -1.0)

    def _subst(self, zr, zbr, memo):
        return Neg(self.a.subst(zr, zbr, memo))


class IntPow(Node):
    __slots__ = ("a", "n")

    def __init__(self, a, n):
        if n < 0:
            raise ValueError("IntPow wants n >= 0; use Recip for inverses")
        self.a = a
        self.n = int(n)

    def _jet(self, z, K, ctx):
        return jd_pow(self.a.jet(z, K, ctx), self.n, K, ctx)

    def _subst(self, zr, zbr, memo):
        return IntPow(self.a.subst(zr, zbr, memo), self.n)


class Recip(Node):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def _jet(self, z, K, ctx):
        return jd_recip(self.a.jet(z, K, ctx), K, ctx, "Recip")

    def _subst(self, zr, zbr, memo):
        return Recip(self.a.subst(zr, zbr, memo))


class Log(Node):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def _jet(self, z, K, ctx):
        return jd_log(self.a.jet(z, K, ctx), K, ctx, "Log")

    def _subst(self, zr, zbr, memo):
        return Log(self.a.subst(zr, zbr, memo))


class Conj(Node):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def _jet(self, z, K, ctx):
        return jd_conj(self.a.jet(z, K, ctx))

    def _subst(self, zr, zbr, memo):
        return Conj(self.a.subst(zr, zbr, memo))


class Deriv(Node):
    """p z-derivatives and q zbar-derivatives of the subtree, as a field."""

    __slots__ = ("a", "p", "q")

    def __init__(self, a, p, q):
        self.a = a
        self.p = int(p)
        self.q = int(q)

    def _jet(self, z, K, ctx):
        inner = self.a.jet(z, K + self.p + self.q, ctx)
        out = {}
        for (i, j), v in inner.items():
            if i < self.p or j < self.q:
                continue
            a, b = i - self.p, j - self.q
            if a + b > K:
                continue
            out[(a, b)] = v * (math.perm(i, self.p) * math.perm(j, self.q))
        return out

    def _subst(self, zr, zbr, memo):
        # derivatives refer to the chart they were taken in, so precomposing
        # with a map wraps the node in an explicit composition
        if isinstance(zr, VarZ) and isinstance(zbr, VarZbar):
            return self
        if not (isinstance(zbr, Conj) and zbr.a is zr):
            raise ValueError("substitution must send zbar to the conjugate of the z image")
        return Compose(self, zr)


class Compose(Node):
    """Evaluate a subtree in the chart w = inner(z); the subtree's jet is
    taken at the mapped points and recombined through the inner jet."""

    __slots__ = ("sub", "inner")

    def __init__(self, sub, inner):
        self.sub = sub
        self.inner = inner

    def _jet(self, z, K, ctx):
        gj = self.inner.jet(z, K, ctx)
        D = self.sub.jet(_value(gj, ctx), K, ctx)
        if K == 0:
            return {(0, 0): _value(D, ctx)}
        dw = {k: v for k, v in gj.items() if k != (0, 0)}
        dwb = jd_conj(dw)
        out = {}
        pow_w = {0: {(0, 0): ctx.full(1.0)}}
        for a in range(1, K + 1):
            pow_w[a] = jd_mul(pow_w[a - 1], dw, K)
        pow_wb = {0: {(0, 0): ctx.full(1.0)}}
        for b in range(1, K + 1):
            pow_wb[b] = jd_mul(pow_wb[b - 1], dwb, K)
        for (a, b), c in D.items():
            if a + b > K:
                continue
            term = jd_mul(pow_w[a], pow_wb[b], K)
            for key, v in term.items():
                add = v * c
                out[key] = out[key] + add if key in out else add
        return out

    def _subst(self, zr, zbr, memo):
        return Compose(self.sub, self.inner.subst(zr, zbr, memo))


class Bump(Node):
    __slots__ = ("inner", "center", "r_pl", "r_sup")

    def __init__(self, inner, center, r_pl, r_sup):
        if not (0 < r_pl < r_sup):
            raise ValueError("bump radii must satisfy 0 < plateau < support")
        self.inner = inner
        self.center = complex(center)
        self.r_pl = float(r_pl)
        self.r_sup = float(r_sup)

    def _jet(self, z, K, ctx):
        wj = self.inner.jet(z, K, ctx)
        if ctx.flat:
            r = np.abs(_value(wj, ctx) - self.center)
            lo, hi = self.r_pl * (1 - PLATEAU_MARGIN), self.r_sup * (1 + PLATEAU_MARGIN)
            ctx.flat = not np.any((r >= lo) & (r <= hi))
        return _bump_jet(self, wj, K, ctx)

    def _subst(self, zr, zbr, memo):
        return Bump(self.inner.subst(zr, zbr, memo), self.center, self.r_pl, self.r_sup)


# ---------------------------------------------------------------------------
# fields


class ScalarField:
    """Expression tree plus an optional conservative support region."""

    __slots__ = ("expr", "support", "tape")

    def __init__(self, expr, support=None):
        self.expr = expr
        self.support = support
        # None; False once batched or made an integrand; then the compiled _Tape
        self.tape = None

    def is_structural_zero(self):
        e = self.expr
        return (isinstance(e, Const) and e.value == 0) or (
            isinstance(e, Add) and not e.terms
        )

    def __repr__(self):
        return f"ScalarField({field_to_sexp(self)!r}, support={self.support})"


def fconst(c):
    if c == 0:
        return ScalarField(Const(0.0), EmptyRegion())
    return ScalarField(Const(c), None)


def fzero():
    return fconst(0.0)


def fone():
    return fconst(1.0)


def fz():
    return ScalarField(VarZ(), None)


def fzbar():
    return ScalarField(VarZbar(), None)


def fmonomial(coeff, p, q):
    """coeff * z^p * zbar^q."""
    e = Const(coeff)
    if p:
        e = Mul(e, IntPow(VarZ(), p)) if p > 1 else Mul(e, VarZ())
    if q:
        e = Mul(e, IntPow(VarZbar(), q)) if q > 1 else Mul(e, VarZbar())
    return ScalarField(e, None)


def bump_field(center, r_pl, r_sup):
    return ScalarField(
        Bump(VarZ(), center, r_pl, r_sup), Disk(center, r_sup)
    )


def bumped(f, center, r_pl, r_sup):
    """Multiply a field by a standard cutoff; the support disk is recorded."""
    b = bump_field(center, r_pl, r_sup)
    return fmul(f, b)


def _sup_mul(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if isinstance(a, EmptyRegion) or isinstance(b, EmptyRegion):
        return EmptyRegion()
    ba, bb = a.bbox(), b.bbox()
    if ba is None:
        return b
    if bb is None:
        return a
    x0 = max(ba[0], bb[0])
    x1 = min(ba[1], bb[1])
    y0 = max(ba[2], bb[2])
    y1 = min(ba[3], bb[3])
    # outer bounds: provably disjoint supports make the product vanish
    if x0 >= x1 or y0 >= y1:
        return EmptyRegion()
    return Box(x0, x1, y0, y1)


def _sup_add(a, b):
    if isinstance(a, EmptyRegion):
        return b
    if isinstance(b, EmptyRegion):
        return a
    if a is None or b is None:
        return None
    bb = bbox_union(a.bbox(), b.bbox())
    if bb is None:
        return None
    return Box(*bb)


def fadd(*fs):
    fs = [f for f in fs if not f.is_structural_zero()]
    # cancel x + (-x) pairs sharing the same expression object
    live = list(fs)
    i = 0
    while i < len(live):
        hit = False
        for j in range(len(live)):
            if i == j:
                continue
            a, b = live[i].expr, live[j].expr
            if isinstance(b, Neg) and b.a is a:
                del live[max(i, j)], live[min(i, j)]
                hit = True
                break
        if not hit:
            i += 1
    fs = live
    if not fs:
        return fzero()
    if len(fs) == 1:
        return fs[0]
    sup = fs[0].support
    for f in fs[1:]:
        sup = _sup_add(sup, f.support)
    return ScalarField(Add([f.expr for f in fs]), sup)


def fmul(a, b):
    if a.is_structural_zero() or b.is_structural_zero():
        return fzero()
    if isinstance(a.expr, Const) and a.expr.value == 1:
        return b
    if isinstance(b.expr, Const) and b.expr.value == 1:
        return a
    sup = _sup_mul(a.support, b.support)
    if isinstance(sup, EmptyRegion):
        return fzero()
    return ScalarField(Mul(a.expr, b.expr), sup)


def fneg(a):
    if a.is_structural_zero():
        return a
    if isinstance(a.expr, Neg):
        return ScalarField(a.expr.a, a.support)
    return ScalarField(Neg(a.expr), a.support)


def fscale(a, s):
    if s == 0 or a.is_structural_zero():
        return fzero()
    if s == 1:
        return a
    if s == -1:
        return fneg(a)
    return ScalarField(Mul(Const(s), a.expr), a.support)


def fconj(a):
    if a.is_structural_zero():
        return a
    return ScalarField(Conj(a.expr), a.support)


def fpow(a, n):
    if n == 0:
        return fone()
    if a.is_structural_zero():
        return fzero()
    return ScalarField(IntPow(a.expr, n), a.support)


def frecip(a):
    return ScalarField(Recip(a.expr), None)


def flog(a):
    return ScalarField(Log(a.expr), None)


def fderiv(a, p, q):
    if a.is_structural_zero() or (p == 0 and q == 0):
        return a
    if isinstance(a.expr, Const):
        return fzero()
    return ScalarField(Deriv(a.expr, p, q), a.support)


def fpullback(f, cmap):
    """Precompose a field with a conformal map: z -> expression of the map,
    zbar -> its conjugate.  The support becomes a conservative outer bound on
    the preimage of the original support."""
    if f.is_structural_zero():
        return f
    g_expr = cmap.expr_tree()
    memo = {}
    new_expr = f.expr.subst(g_expr, Conj(g_expr), memo)
    return ScalarField(new_expr, cmap.preimage_region(f.support))


# ---------------------------------------------------------------------------
# evaluation entry points


def _jet_batch(expr, z, K, check_flat=False):
    """Jet dictionary of the tree at a batch of points, and the evaluation's
    flatness flag (None unless checked)."""
    zflat = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    ctx = EvalCtx(zflat.shape[0], check_flat)
    raw = expr.jet(zflat, K, ctx)
    shape = np.shape(np.asarray(z))
    out = {}
    for key, v in raw.items():
        arr = np.asarray(v, dtype=complex)
        if arr.shape != zflat.shape:
            arr = np.broadcast_to(arr, zflat.shape).copy()
        out[key] = arr.reshape(shape) if shape else arr[0]
    return out, ctx.flat


def eval_field(f, z, out=None):
    """Pointwise values; z may be a scalar or any ndarray of points.  The
    second evaluation of a field on a batch of points takes its tape, shared
    with every equal tree, which that batch and every later one runs.  A
    tape writes into ``out`` when it holds the batch; else the values are a
    fresh array."""
    if np.ndim(z):
        if f.tape is None:
            f.tape = False  # evaluated once
        else:
            if f.tape is False:
                f.tape = _tape_of(f.expr)
            zflat = np.asarray(z, dtype=complex).ravel()
            return f.tape.run(zflat, out).reshape(np.shape(z))
    d, _ = _jet_batch(f.expr, z, 0)
    got = d.get((0, 0))
    if got is None:
        return np.zeros(np.shape(z), dtype=complex) if np.shape(z) else 0j
    return got


def integrand(f):
    """z -> eval_field(f, z) for quadrature: f runs its tape from the first
    batch, as every block after the first would take it anyway.  The values
    of a block of at most _TAPE_BLOCK points go into one buffer kept for the
    integrand's life, which the next call overwrites."""
    f.tape = f.tape or False
    out = empty_aligned(_TAPE_BLOCK)
    return lambda z: eval_field(f, z, out)


def jet2_at(f, z0, order):
    """Bivariate jet of the field at a single point; its ``flat`` is False
    when some cutoff factor is not locally constant there."""
    d, flat = _jet_batch(f.expr, complex(z0), order, check_flat=True)
    return Jet2(z0, order, {k: complex(v) for k, v in d.items()}, flat)


def plateau_safe(f, z0):
    """True when every cutoff factor in the tree is locally constant at z0,
    i.e. its inner point lies strictly inside the plateau or strictly outside
    the support.  Composition nodes switch to the mapped chart point."""
    return jet2_at(f, z0, 0).flat


# ---------------------------------------------------------------------------
# compiled tapes
#
# The recorder runs the nodes' jet rules at order 0 on register handles
# instead of arrays: every step they take becomes one instruction, in the
# order the interpreter takes it, so a tape gives the interpreter's bits.
# Equal instructions on equal operands are one register (value numbering),
# which also merges structurally equal subtrees.  Constants stay scalars that
# broadcast, of their Python type so that numpy treats them as weak, and
# nothing is folded but the negation and the conjugate of a constant, which
# are exact.  The recorder drops the identities x * 1, x + 0, x - 0 and
# x / 1, turns x * -1 into -x, and absorbs negations into their reader:
# -(-x) = x, a + (-b) = a - b, (-a) + b = b - a, a - (-b) = a + b,
# c (-x) = (-c) x and c / (-x) = (-c) / x for a constant c.  Each is exact in
# IEEE arithmetic but for the sign of a zero.  Instructions whose results are
# never read are dropped, except the checks.  A tape instruction is one flat
# tuple (kernel, output, *inputs) of operand indices; a check writes nothing
# and names slot 0, the points.  Registers refer to their recorder weakly, so
# reference counting frees the recorder and its registers once the tape is
# built, leaving nothing to the cyclic collector.
#
# Tapes are shared by structure: ``_tape_of`` looks a tree's tape up by its
# ``_structure``, which holds all that a jet rule or the recorder reads, so
# equal keys record equal tapes.  The key is computed when a field is first
# taped, never when a tree is built, and its walk makes no reference cycle.
#
# A register that holds an array gets a row of the module's one arena, a flat
# buffer that grows to the most rows x block requested; a row is reused as
# soon as its register is dead.  The buffer, and so every row of a block of
# 64 points or more, starts on a 64-byte cache line, not at glibc's 16 mod
# 64.  A batch runs in blocks of _TAPE_BLOCK points, one quadrature block,
# halved (down to _TAPE_MIN_BLOCK) while the tape's rows would take more than
# _ARENA_BYTES, so the widest tape does not set the arena's size: at 2 MiB,
# one core's L2 cache on the benchmark's 2-core Xeon VM, only tapes of more
# than 32 rows split.  Row views are cached by (rows, block): a shorter
# batch, such as a level's last, runs in the first points of its block's
# rows, so a tape run only on short batches still takes a whole block's
# rows, within _ARENA_BYTES.  Every instruction is elementwise, so neither
# the split nor the short rows change a bit.  Evaluation is serial.

_TAPE_BLOCK = 4096
_TAPE_MIN_BLOCK = 64
_ARENA_BYTES = 2 << 20
_DTYPES = (np.dtype(complex), np.dtype(np.float64), np.dtype(np.bool_))
# bounds of the tape cache and of the arena's cached row views
_TAPE_CACHE = 256
_ARENA_VIEWS = 64


def _keep(cache, key, value, bound):
    """Insert into a cache of at most ``bound`` entries, oldest out first."""
    cache[key] = value
    if len(cache) > bound:
        del cache[next(iter(cache))]


def _tape_block(nrows):
    """Points per block of a tape of nrows rows: _TAPE_BLOCK, halved until
    the rows fit in _ARENA_BYTES or the block is _TAPE_MIN_BLOCK."""
    block = _TAPE_BLOCK
    while block > _TAPE_MIN_BLOCK and 16 * nrows * block > _ARENA_BYTES:
        block //= 2
    return block


class _Arena:
    __slots__ = ("buf", "views")

    def __init__(self):
        self.buf = np.empty(0, dtype=complex)
        self.views = {}

    def rows(self, nrows, block, npts):
        """The first npts entries of each of nrows rows of block entries, as a
        complex, a float and a bool array.  Views are cached per (nrows,
        block), so a batch shorter than its tape's block is cut from them."""
        hit = self.views.get((nrows, block))
        if hit is None:
            if nrows * block > len(self.buf):
                self.buf = empty_aligned(nrows * block)
                self.views = {}
            rows = list(self.buf[: nrows * block].reshape(nrows, block))
            hit = rows + [r.view(d)[:block] for d in _DTYPES[1:] for r in rows]
            _keep(self.views, (nrows, block), hit, _ARENA_VIEWS)
        return hit if npts == block else [v[:npts] for v in hit]


_ARENA = _Arena()
_TAPES = {}


def _structure(expr):
    """The tape cache's key of a tree: its distinct subtrees in post-order,
    each as its class and its slots, with subtrees by number and any other
    value by type and repr, as ``_Recorder.const`` keys a constant (so 0.0
    and -0.0, or 1 and 1.0, differ).  Shared and repeated subtrees give one
    entry, so the key depends on the tree's structure alone."""
    number = {}  # entry -> its number, in the order first met
    _part(expr, number, {})
    return tuple(number)


def _part(v, number, seen):
    """The key part of a value; ``seen`` maps id(node) to its number."""
    if isinstance(v, Node):
        hit = seen.get(id(v))
        if hit is None:
            entry = (type(v), *(_part(getattr(v, s), number, seen) for s in v.__slots__))
            hit = seen[id(v)] = number.setdefault(entry, len(number))
        return hit
    if isinstance(v, tuple):
        return tuple(_part(t, number, seen) for t in v)
    return (type(v).__name__, repr(v))


def _tape_of(expr):
    """The tape of a tree, recorded only when no equal tree has one."""
    key = _structure(expr)
    tape = _TAPES.get(key)
    if tape is None:
        tape = _Tape(expr)
        _keep(_TAPES, key, tape, _TAPE_CACHE)
    return tape


def _operator(ufunc, reflected=False):
    if reflected:
        return lambda self, other: ufunc(other, self)
    return lambda self, other: ufunc(self, other)


class _Reg:
    """A register of the tape being recorded, holding an array of ``dtype``
    or, when ``value`` is set, a constant.  Arithmetic on it records an
    instruction and returns the result register."""

    __slots__ = ("rec", "id", "dtype", "value", "neg")

    def __init__(self, rec, rid, dtype, value=None):
        self.rec = weakref.proxy(rec)
        self.id = rid
        self.dtype = dtype
        self.value = value
        self.neg = None  # x when this register is -x

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        return self.rec.emit(ufunc, inputs)

    # the operators the jet rules use, as the ufuncs numpy would call
    __add__, __radd__ = _operator(np.add), _operator(np.add, True)
    __mul__, __rmul__ = _operator(np.multiply), _operator(np.multiply, True)
    __truediv__, __rtruediv__ = _operator(np.divide), _operator(np.divide, True)
    __sub__, __rsub__ = _operator(np.subtract), _operator(np.subtract, True)
    __le__, __ge__ = _operator(np.less_equal), _operator(np.greater_equal)
    __or__ = _operator(np.bitwise_or)

    def __neg__(self):
        return np.negative(self)

    def __invert__(self):
        return np.invert(self)

    @property
    def real(self):
        return self.rec.emit(_k_real, (self,), dtype=_DTYPES[1])

    def astype(self, dtype):
        if self.dtype == dtype:
            return self
        return self.rec.emit(_k_copy, (self,), dtype=np.dtype(dtype))

    def copy(self):
        return self


def _is_const(r, v):
    return r.value is not None and r.dtype.kind != "b" and r.value == v


# a ufunc's output dtype by its operands: an array register's dtype, or the
# Python type of a constant, which numpy treats as weak
_UFUNC_DTYPES = {}


def _ufunc_dtype(ufunc, srcs):
    key = (ufunc, *(r.dtype if r.value is None else type(r.value) for r in srcs))
    hit = _UFUNC_DTYPES.get(key)
    if hit is None:
        probe = [np.zeros(1, r.dtype) if r.value is None else r.value for r in srcs]
        with np.errstate(all="ignore"):
            hit = _UFUNC_DTYPES[key] = np.asarray(ufunc(*probe)).dtype
    return hit


class _Recorder(EvalCtx):
    """Evaluation context whose values are registers; ``code`` collects
    (kernel, output, inputs, pure) instructions."""

    __slots__ = ("code", "nconsts", "seen", "nregs", "__weakref__")

    def __init__(self):
        super().__init__(None)
        self.code = []
        self.nconsts = 0  # constants are registers -1, -2, ...
        self.seen = {}
        self.nregs = 1  # register 0 is the batch of points

    def const(self, value):
        key = ("const", type(value).__name__, repr(value))
        hit = self.seen.get(key)
        if hit is None:
            self.nconsts += 1
            dtype = np.asarray(value).dtype
            hit = self.seen[key] = _Reg(self, -self.nconsts, dtype, value)
        return hit

    def emit(self, kernel, args, dtype=_DTYPES[0], pure=True):
        """The output register of an instruction; a ufunc's output dtype is
        the one numpy gives for its operands."""
        srcs = tuple(a if isinstance(a, _Reg) else self.const(a) for a in args)
        if isinstance(kernel, np.ufunc):
            dtype = _ufunc_dtype(kernel, srcs)
            hit = self._exact(kernel, srcs, dtype)
            if hit is not None:
                return hit
        key = (kernel, tuple(r.id for r in srcs))
        hit = self.seen.get(key)
        if hit is None:
            hit = self.seen[key] = _Reg(self, self.nregs, dtype)
            self.nregs += 1
            self.code.append((kernel, hit, srcs, pure))
            if kernel is np.negative:
                hit.neg = srcs[0]
        return hit

    def _exact(self, ufunc, srcs, dtype):
        """The register that the instruction equals by one of the exact
        rewrites, or None.  An identity is dropped only where the operand
        has the output's dtype, except a product with 1, as before."""
        if len(srcs) == 1 and srcs[0].value is not None:
            if ufunc is np.negative:
                return self.const(-srcs[0].value)
            if ufunc is np.conjugate:
                return self.const(srcs[0].value.conjugate())
        if ufunc is np.negative:
            return srcs[0].neg
        if len(srcs) != 2:
            return None
        a, b = srcs
        if ufunc is np.multiply:
            if _is_const(a, 1):
                return b
            if _is_const(b, 1):
                return a
            if _is_const(b, -1) and a.dtype == dtype:
                return self.emit(np.negative, (a,))
            if a.value is not None and b.neg is not None:
                return self.emit(np.multiply, (-a.value, b.neg))
        elif ufunc is np.add:
            if _is_const(b, 0) and a.dtype == dtype:
                return a
            if _is_const(a, 0) and b.dtype == dtype:
                return b
            if b.neg is not None:
                return self.emit(np.subtract, (a, b.neg))
            if a.neg is not None:
                return self.emit(np.subtract, (b, a.neg))
        elif ufunc is np.subtract:
            if _is_const(b, 0) and a.dtype == dtype:
                return a
            if b.neg is not None:
                return self.emit(np.add, (a, b.neg))
        elif ufunc is np.divide:
            if _is_const(b, 1) and a.dtype == dtype:
                return a
            if a.value is not None and b.neg is not None:
                return self.emit(np.divide, (-a.value, b.neg))
        return None

    def full(self, value):
        return self.const(complex(value))

    def nonvanishing(self, c0, message):
        self.emit(partial(_k_nonvanishing, message), (c0,), pure=False)

    def annulus_met(self, annulus, K):
        # order 0 has one key either way, and it is the plateau's off the
        # annulus; past the cap the check raises where a point meets it
        if K > GLUE_ORDER_CAP:
            self.emit(partial(_k_glue_cap, K), (annulus,), pure=False)
            return False
        return True

    def profile_vanishes(self, annulus):
        return False  # a tape serves every batch

    def where(self, mask, a, b):
        return self.emit(_k_where, (mask, a, b), dtype=a.dtype)

    def add_where(self, base, v, mask):
        return self.emit(_k_add_where, (base, v, mask), dtype=base.dtype)


class _Tape:
    """A field's order-0 evaluation as a flat list of instructions on arena
    rows: ``code`` holds one flat tuple (kernel, output, *inputs) each, with
    operands as indices into the run's operand list [z, the rows as complex,
    as float and as bool arrays, the constants]."""

    __slots__ = ("code", "nrows", "block", "consts", "result")

    def __init__(self, expr):
        rec = _Recorder()
        res = _value(expr.jet(_Reg(rec, 0, _DTYPES[0]), 0, rec), rec)
        code = self._live(rec.code, res)
        # last instruction reading each register; the result is read at the end
        last = {r.id: i for i, ins in enumerate(code) for r in ins[2]}
        last[res.id] = len(code)
        row, free = {}, []
        self.nrows = 0
        for i, (kernel, out, srcs, pure) in enumerate(code):
            dying = [r for r in set(srcs) if r.id in row and last[r.id] == i]
            # an elementwise output may take the row of a dying input of its dtype
            early = [r for r in dying if r.dtype == out.dtype and isinstance(kernel, np.ufunc)]
            for r in early:
                heapq.heappush(free, row[r.id])
            if pure:
                row[out.id] = heapq.heappop(free) if free else self._grow()
            for r in dying:
                if r not in early:
                    heapq.heappush(free, row[r.id])

        # a rewrite can leave a recorded constant unread: only read ones are kept
        consts = {r.id: r.value for r in (res, *(r for ins in code for r in ins[2]))
                  if r.value is not None}
        slot = {rid: k for k, rid in enumerate(sorted(consts, reverse=True))}

        def index(r):
            if r.value is not None:  # constants follow the rows of every dtype
                return 1 + 3 * self.nrows + slot[r.id]
            if r.id == 0:
                return 0
            return 1 + _DTYPES.index(r.dtype) * self.nrows + row[r.id]

        self.code = [(kernel, index(out) if out.id in row else 0, *map(index, srcs))
                     for kernel, out, srcs, _ in code]
        self.consts = [consts[rid] for rid in slot]
        self.result = index(res)
        self.block = _tape_block(self.nrows)

    def _grow(self):
        self.nrows += 1
        return self.nrows - 1

    @staticmethod
    def _live(code, res):
        """The instructions that the result or a check depends on."""
        live = {res.id}
        kept = []
        for ins in reversed(code):
            out, srcs, pure = ins[1], ins[2], ins[3]
            if pure and out.id not in live:
                continue
            kept.append(ins)
            live.update(r.id for r in srcs)
        return kept[::-1]

    def run(self, zflat, out=None):
        """Values at the points; they go into ``out`` when it holds them all."""
        n = len(zflat)
        out = np.empty(n, dtype=complex) if out is None or len(out) < n else out[:n]
        for a in range(0, n, self.block):
            z = zflat[a : a + self.block]
            env = [z, *_ARENA.rows(self.nrows, self.block, len(z)), *self.consts]
            for ins in self.code:
                if len(ins) == 4:
                    ins[0](env[ins[2]], env[ins[3]], env[ins[1]])
                elif len(ins) == 3:
                    ins[0](env[ins[2]], env[ins[1]])
                else:
                    ins[0](*[env[i] for i in ins[2:]], env[ins[1]])
            out[a : a + len(z)] = env[self.result]
        return out


# tape kernels other than ufuncs: kernel(*inputs, output row), as a ufunc is
# called; a check is handed the points as its output and writes nothing


def _k_real(x, out):
    np.copyto(out, x.real)


def _k_copy(x, out):
    np.copyto(out, x)


def _k_where(mask, a, b, out):
    np.copyto(out, b)
    np.copyto(out, a, where=mask)


def _k_add_where(base, v, mask, out):
    # out is never an input's row: only ufunc outputs take a dying input's row
    np.add(base, v, out=out)
    np.copyto(out, base, where=~mask)


def _k_nonvanishing(message, c0, out):
    _nonvanishing(c0, message)


def _k_glue_cap(K, annulus, out):
    _annulus_met(annulus, K)


# ---------------------------------------------------------------------------
# prefix-notation serialization


def _fmt_num(x):
    return repr(float(x))


def field_to_sexp(f):
    return _node_to_sexp(f.expr)


def _node_to_sexp(n):
    if isinstance(n, Const):
        return f"(c {_fmt_num(n.value.real)} {_fmt_num(n.value.imag)})"
    if isinstance(n, VarZ):
        return "z"
    if isinstance(n, VarZbar):
        return "zbar"
    if isinstance(n, Add):
        return "(+ " + " ".join(_node_to_sexp(t) for t in n.terms) + ")"
    if isinstance(n, Mul):
        return f"(* {_node_to_sexp(n.a)} {_node_to_sexp(n.b)})"
    if isinstance(n, Neg):
        return f"(neg {_node_to_sexp(n.a)})"
    if isinstance(n, IntPow):
        return f"(pow {_node_to_sexp(n.a)} {n.n})"
    if isinstance(n, Recip):
        return f"(recip {_node_to_sexp(n.a)})"
    if isinstance(n, Log):
        return f"(log {_node_to_sexp(n.a)})"
    if isinstance(n, Conj):
        return f"(conj {_node_to_sexp(n.a)})"
    if isinstance(n, Deriv):
        return f"(deriv {n.p} {n.q} {_node_to_sexp(n.a)})"
    if isinstance(n, Compose):
        return f"(compose {_node_to_sexp(n.sub)} {_node_to_sexp(n.inner)})"
    if isinstance(n, Bump):
        head = (
            f"(bump {_fmt_num(n.center.real)} {_fmt_num(n.center.imag)} "
            f"{_fmt_num(n.r_pl)} {_fmt_num(n.r_sup)}"
        )
        if isinstance(n.inner, VarZ):
            return head + ")"
        return head + f" {_node_to_sexp(n.inner)})"
    raise TypeError(f"unknown node {type(n).__name__}")


def _tokenize(s):
    return s.replace("(", " ( ").replace(")", " ) ").split()


def _parse(tokens, pos):
    tok = tokens[pos]
    if tok == "(":
        head = tokens[pos + 1]
        args = []
        pos += 2
        while tokens[pos] != ")":
            node, pos = _parse(tokens, pos)
            args.append(node)
        pos += 1
        return _build(head, args), pos
    if tok == "z":
        return VarZ(), pos + 1
    if tok == "zbar":
        return VarZbar(), pos + 1
    return float(tok), pos + 1


def _build(head, args):
    if head == "c":
        return Const(complex(args[0], args[1]))
    if head == "+":
        return Add(args)
    if head == "*":
        out = args[0]
        for a in args[1:]:
            out = Mul(out, a)
        return out
    if head == "neg":
        return Neg(args[0])
    if head == "pow":
        return IntPow(args[0], int(args[1]))
    if head == "recip":
        return Recip(args[0])
    if head == "log":
        return Log(args[0])
    if head == "conj":
        return Conj(args[0])
    if head == "deriv":
        return Deriv(args[2], int(args[0]), int(args[1]))
    if head == "compose":
        return Compose(args[0], args[1])
    if head == "bump":
        inner = args[4] if len(args) > 4 else VarZ()
        return Bump(inner, complex(args[0], args[1]), args[2], args[3])
    raise ValueError(f"unknown operator {head!r}")


def field_from_sexp(s, support=None):
    tokens = _tokenize(s)
    node, pos = _parse(tokens, 0)
    if pos != len(tokens):
        raise ValueError("trailing tokens in field expression")
    if isinstance(node, float):
        raise ValueError("a bare number is not a field; use (c re im)")
    if support is None:
        support = _derive_support(node)
    return ScalarField(node, support)


def _derive_support(node):
    """If a cutoff in the plain chart multiplies the whole tree, its disk
    bounds the support."""
    if isinstance(node, Bump) and isinstance(node.inner, VarZ):
        return Disk(node.center, node.r_sup)
    if isinstance(node, Mul):
        for side in (node.a, node.b):
            got = _derive_support(side)
            if got is not None:
                return got
    if isinstance(node, Neg):
        return _derive_support(node.a)
    if isinstance(node, IntPow) and node.n >= 1:
        return _derive_support(node.a)
    return None
