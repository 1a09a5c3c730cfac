"""Crossed products of matrix-valued form coefficients by a group of local
conformal maps.

A crossed element is a finite sum of terms: a matrix of form coefficients
attached to a group label.  Multiplying two terms concatenates the labels in
the group (the right factor's coefficient gets pulled back through the left
factor's map, Jacobian factors included) so that

    (f1 at g1) * (f2 at g2)  =  f1 . (f2 o g1)  at the product label g2 g1.

Word-indexed elements are the same algebra fibered over free tensor words,
and a label-keyed element is their one-letter, uncapped case: the key is a
tuple of labels (or a tuple with one marked letter, for one-form words), the
attached label is always the reversed product of the letters, and
multiplication concatenates words, dropping and counting anything beyond the
length cap.  So ``WordCrossedForm`` inherits all arithmetic from
``CrossedForm`` and only says how a key maps to its label and how two keys
join.

Form coefficients live in the four slots (p, q) in {0,1}^2 spanned by
1, dz, dzbar, dz^dzbar.  The differentials implemented on crossed elements:
plain d split into holomorphic and antiholomorphic halves, the multiplier
derivation D by log|g'|^2, the connection term delta wedging in (g''/g') dz,
and nabla = d - delta/2.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import fields as F
from .fields import (
    EmptyRegion,
    ScalarField,
    bbox_union,
    fadd,
    fconj,
    fderiv,
    fmul,
    fneg,
    fpullback,
    fscale,
    fzero,
)

__all__ = [
    "FormCoefficient",
    "fc_field",
    "mat_zero",
    "CrossedForm",
    "WordCrossedForm",
    "DWord",
    "word_mu",
    "word_letters",
    "word_length",
    "diff_partial",
    "diff_partial_bar",
    "diff_d",
    "diff_delta",
    "diff_D",
    "diff_nabla",
]

SLOTS = ((0, 0), (1, 0), (0, 1), (1, 1))


class FormCoefficient:
    """Up to four scalar fields, one per (p, q) form slot."""

    __slots__ = ("comps",)

    def __init__(self, comps=None):
        self.comps = {}
        if comps:
            for k, f in comps.items():
                if f is not None and not f.is_structural_zero():
                    self.comps[k] = f

    @staticmethod
    def zero():
        return FormCoefficient()

    def get(self, p, q):
        return self.comps.get((p, q), fzero())

    def is_zero(self):
        return not self.comps

    def add(self, other):
        out = dict(self.comps)
        for k, f in other.comps.items():
            out[k] = fadd(out[k], f) if k in out else f
        return FormCoefficient(out)

    def scale(self, s):
        if s == 0:
            return FormCoefficient()
        return FormCoefficient({k: fscale(f, s) for k, f in self.comps.items()})

    def mul_field(self, g):
        """Multiply every slot by a plain scalar field."""
        return FormCoefficient({k: fmul(g, f) for k, f in self.comps.items()})

    def wedge(self, other):
        """Graded product; moving dzbar past dz costs a sign."""
        out = {}
        for (p1, q1), f1 in self.comps.items():
            for (p2, q2), f2 in other.comps.items():
                p, q = p1 + p2, q1 + q2
                if p > 1 or q > 1:
                    continue
                term = fmul(f1, f2)
                if q1 and p2:
                    term = fneg(term)
                key = (p, q)
                out[key] = fadd(out[key], term) if key in out else term
        return FormCoefficient(out)

    def pullback(self, cmap):
        """Pull the form back through a conformal map; dz picks up g'(z) and
        dzbar its conjugate, both evaluated in the source chart."""
        from .groupoid import IdentityMap

        if isinstance(cmap, IdentityMap):
            return self
        gp = None
        out = {}
        for (p, q), f in self.comps.items():
            pf = fpullback(f, cmap)
            if p or q:
                if gp is None:
                    gp = ScalarField(cmap.g_prime_tree(), None)
                if p:
                    pf = fmul(pf, gp)
                if q:
                    pf = fmul(pf, fconj(gp))
            out[(p, q)] = pf
        return FormCoefficient(out)

    def support_bbox(self):
        bb = None
        first = True
        for f in self.comps.values():
            sup = f.support
            if sup is None:
                return None
            if isinstance(sup, EmptyRegion):
                continue
            bb = sup.bbox() if first else bbox_union(bb, sup.bbox())
            first = False
        return bb if not first else (0.0, 0.0, 0.0, 0.0)

    def __repr__(self):
        keys = ",".join(f"dz^{p}dzb^{q}" for (p, q) in sorted(self.comps))
        return f"FormCoefficient[{keys or '0'}]"


def fc_field(f):
    """Degree-zero coefficient from a plain scalar field."""
    return FormCoefficient({(0, 0): f})


# ---------------------------------------------------------------------------
# small matrices of form coefficients


def mat_zero(n):
    return [[FormCoefficient.zero() for _ in range(n)] for _ in range(n)]


def mat_add(a, b):
    return [[a[i][j].add(b[i][j]) for j in range(len(a))] for i in range(len(a))]


def mat_scale(a, s):
    return [[a[i][j].scale(s) for j in range(len(a))] for i in range(len(a))]


def mat_map(a, fn):
    return [[fn(a[i][j]) for j in range(len(a))] for i in range(len(a))]


def mat_is_zero(a):
    return all(c.is_zero() for row in a for c in row)


def mat_wedge_mul(a, b):
    n = len(a)
    out = mat_zero(n)
    for i in range(n):
        for k in range(n):
            if a[i][k].is_zero():
                continue
            for j in range(n):
                if b[k][j].is_zero():
                    continue
                out[i][j] = out[i][j].add(a[i][k].wedge(b[k][j]))
    return out


def mat_const_left(c, a):
    """Constant matrix times a coefficient matrix."""
    n = len(a)
    out = mat_zero(n)
    for i in range(n):
        for j in range(n):
            acc = FormCoefficient.zero()
            for k in range(n):
                if c[i, k] != 0 and not a[k][j].is_zero():
                    acc = acc.add(a[k][j].scale(c[i, k]))
            out[i][j] = acc
    return out


def mat_const_right(a, c):
    n = len(a)
    out = mat_zero(n)
    for i in range(n):
        for j in range(n):
            acc = FormCoefficient.zero()
            for k in range(n):
                if c[k, j] != 0 and not a[i][k].is_zero():
                    acc = acc.add(a[i][k].scale(c[k, j]))
            out[i][j] = acc
    return out


# ---------------------------------------------------------------------------
# crossed elements


class CrossedForm:
    """Finite sum of (matrix coefficient, key) terms plus an optional
    constant matrix multiple of the unit.

    Here the keys are group labels.  ``WordCrossedForm`` shares all of the
    arithmetic and differs only in its key policy: ``label_of`` maps a key to
    the label its term sits over, ``_join`` multiplies two keys (None drops
    the product) and ``_like`` builds an element of the same kind."""

    dropped = 0  # label products never drop a term

    def __init__(self, action, size, terms=None, scalar=None):
        self.action = action
        self.size = int(size)
        self.terms = {}
        if terms:
            for key, mat in terms.items():
                if not mat_is_zero(mat):
                    self.terms[key] = mat
        self.scalar = None if scalar is None else np.asarray(scalar, dtype=complex)

    @staticmethod
    def single(action, label, mat, size=None):
        if size is None:
            size = len(mat)
        return CrossedForm(action, size, {label: mat})

    @staticmethod
    def unit(action, size):
        return CrossedForm(action, size, scalar=np.eye(size, dtype=complex))

    def label_of(self, key):
        return key

    def _join(self, k1, k2):
        return self.action.compose(k2, k1)

    def _like(self, terms, scalar, dropped):
        """An element of the same kind with these terms."""
        return CrossedForm(self.action, self.size, terms, scalar)

    def add(self, other):
        out = dict(self.terms)
        for key, mat in other.terms.items():
            out[key] = mat_add(out[key], mat) if key in out else mat
        s = self.scalar
        if other.scalar is not None:
            s = other.scalar if s is None else s + other.scalar
        return self._like(out, s, self.dropped + other.dropped)

    def scale(self, s):
        return self._like(
            {key: mat_scale(m, s) for key, m in self.terms.items()},
            None if self.scalar is None else self.scalar * s,
            self.dropped,
        )

    def neg(self):
        return self.scale(-1.0)

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        terms = {}
        scalar = None
        dropped = self.dropped + other.dropped

        def put(key, mat):
            if key in terms:
                terms[key] = mat_add(terms[key], mat)
            else:
                terms[key] = mat

        if self.scalar is not None and other.scalar is not None:
            scalar = self.scalar @ other.scalar
        if self.scalar is not None:
            for key, mat in other.terms.items():
                put(key, mat_const_left(self.scalar, mat))
        if other.scalar is not None:
            for key, mat in self.terms.items():
                put(key, mat_const_right(mat, other.scalar))
        for k1, m1 in self.terms.items():
            g1 = self.label_of(k1).cmap
            for k2, m2 in other.terms.items():
                key = self._join(k1, k2)
                if key is None:
                    dropped += 1
                    continue
                pulled = mat_map(m2, lambda c: c.pullback(g1))
                put(key, mat_wedge_mul(m1, pulled))
        return self._like(terms, scalar, dropped)

    def sample_value(self, key, z, p=0, q=0):
        """Matrix of slot values at a point, for tests; the constant part
        shows at the unit label only, never at a word."""
        mat = self.terms.get(key)
        n = self.size
        out = np.zeros((n, n), dtype=complex)
        if mat is not None:
            for i in range(n):
                for j in range(n):
                    out[i, j] = F.eval_field(mat[i][j].get(p, q), z)
        if key is self.action.unit and p == 0 and q == 0 and self.scalar is not None:
            out = out + self.scalar
        return out

    def __repr__(self):
        return (
            f"{type(self).__name__}(size={self.size}, terms={len(self.terms)}, "
            f"scalar={'yes' if self.scalar is not None else 'no'}, dropped={self.dropped})"
        )


# ---------------------------------------------------------------------------
# differentials


def _apply_slotmap(x, slot_fn):
    """Rebuild a crossed element by transforming each (key, matrix) with a
    per-key slot transformation; constant parts die."""
    cls_terms = {}
    for lab, mat in x.terms.items():
        new = mat_map(mat, lambda c: slot_fn(lab, c))
        if not mat_is_zero(new):
            cls_terms[lab] = new
    return x._like(cls_terms, None, x.dropped)


def _fc_partial(c):
    out = {}
    for (p, q), f in c.comps.items():
        if p == 0:
            out[(1, q)] = fderiv(f, 1, 0)
    return FormCoefficient(out)


def _fc_partial_bar(c):
    out = {}
    for (p, q), f in c.comps.items():
        if q == 0:
            df = fderiv(f, 0, 1)
            out[(p, 1)] = fneg(df) if p == 1 else df
    return FormCoefficient(out)


def diff_partial(x):
    return _apply_slotmap(x, lambda lab, c: _fc_partial(c))


def diff_partial_bar(x):
    return _apply_slotmap(x, lambda lab, c: _fc_partial_bar(c))


def diff_d(x):
    return diff_partial(x).add(diff_partial_bar(x))


def diff_D(x):
    """Derivation multiplying the coefficient at label g by log|g'|^2."""

    def fn(lab, c):
        g = x.label_of(lab).cmap
        if g.is_identity_germ():
            return FormCoefficient.zero()
        return c.mul_field(ScalarField(g.log_abs_deriv_sq_tree(), None))

    return _apply_slotmap(x, fn)


def diff_delta(x):
    """Wedge (g''/g') dz into the coefficient at label g from the left."""

    def fn(lab, c):
        g = x.label_of(lab).cmap
        if g.is_identity_germ():
            return FormCoefficient.zero()
        w = ScalarField(g.log_deriv_tree(), None)
        out = {}
        for (p, q), f in c.comps.items():
            if p == 0:
                out[(1, q)] = fmul(w, f)
        return FormCoefficient(out)

    return _apply_slotmap(x, fn)


def diff_nabla(x):
    return diff_d(x).add(diff_delta(x).scale(-0.5))


# ---------------------------------------------------------------------------
# word-indexed elements

# One-form word: letters pre, a marked letter, letters post.
DWord = namedtuple("DWord", ["pre", "mid", "post"])


def word_letters(key):
    if isinstance(key, DWord):
        return key.pre + (key.mid,) + key.post
    return key


def word_length(key):
    return len(word_letters(key))


def word_mu(action, key):
    """Reversed product of the letters; the label the word sits over."""
    letters = word_letters(key)
    acc = action.unit
    for lab in letters:
        acc = action.compose(lab, acc)
    return acc


def _key_sort(key):
    if isinstance(key, DWord):
        return (1, len(key.pre) + 1 + len(key.post), tuple(l.index for l in key.pre),
                key.mid.index, tuple(l.index for l in key.post))
    return (0, len(key), tuple(l.index for l in key))


class WordCrossedForm(CrossedForm):
    """Crossed element fibered over tensor words, truncated by word length.

    Keys are tuples of labels, or DWord triples for one-form words.  The
    group label of each term is always the reversed product of its letters,
    so it is never stored.  Products concatenate keys; terms whose combined
    length exceeds the cap are dropped and counted."""

    def __init__(self, action, size, cap, terms=None, scalar=None, dropped=0):
        self.cap = int(cap)
        self.dropped = int(dropped)
        kept = {}
        for key, mat in (terms or {}).items():
            if word_length(key) > self.cap:
                self.dropped += 1
            else:
                kept[key] = mat
        super().__init__(action, size, kept, scalar)

    @staticmethod
    def unit(action, size, cap):
        return WordCrossedForm(action, size, cap, scalar=np.eye(size, dtype=complex))

    @staticmethod
    def from_crossed(x, cap):
        """Materialize the canonical linear lift: each label becomes the
        corresponding one-letter word."""
        terms = {(lab,): mat for lab, mat in x.terms.items()}
        return WordCrossedForm(x.action, x.size, cap, terms, x.scalar)

    def label_of(self, key):
        return word_mu(self.action, key)

    def _join(self, k1, k2):
        if word_length(k1) + word_length(k2) > self.cap:
            return None
        d1, d2 = isinstance(k1, DWord), isinstance(k2, DWord)
        if d1 and d2:
            raise ValueError("cannot multiply two one-form words")
        if d1:
            return DWord(k1.pre, k1.mid, k1.post + k2)
        if d2:
            return DWord(k1 + k2.pre, k2.mid, k2.post)
        return k1 + k2

    def _like(self, terms, scalar, dropped):
        return WordCrossedForm(self.action, self.size, self.cap, terms, scalar, dropped)

    # an attribute of this class too, so that wrapping CrossedForm.mul by
    # name (a tracer, a profiler) does not wrap word products as well
    mul = CrossedForm.mul

    def mu_image(self):
        """Collapse words to their labels; an exact algebra map."""
        out = {}
        for key, mat in self.terms.items():
            lab = self.label_of(key)
            out[lab] = mat_add(out[lab], mat) if lab in out else mat
        return CrossedForm(self.action, self.size, out, self.scalar)

    def sorted_keys(self):
        return sorted(self.terms.keys(), key=_key_sort)
