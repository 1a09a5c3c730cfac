"""Field expression trees: evaluation, derivatives, supports, serialization."""

import cmath
import math

import numpy as np
import pytest

from loctrace import fields as F

RNG = np.random.default_rng(42)


def fd_wirtinger(fn, z, p, q, h=1e-5):
    """(p, q) mixed derivative by central differences in x and y."""

    def dz(g):
        return lambda w: (g(w + h) - g(w - h)) / (2 * h) / 2 - 1j * (
            g(w + 1j * h) - g(w - 1j * h)
        ) / (2 * h) / 2

    def dzbar(g):
        return lambda w: (g(w + h) - g(w - h)) / (2 * h) / 2 + 1j * (
            g(w + 1j * h) - g(w - 1j * h)
        ) / (2 * h) / 2

    for _ in range(p):
        fn = dz(fn)
    for _ in range(q):
        fn = dzbar(fn)
    return fn(z)


def test_eval_basic_nodes():
    z = 0.3 - 0.7j
    assert F.eval_field(F.fz(), z) == z
    assert F.eval_field(F.fzbar(), z) == z.conjugate()
    assert F.eval_field(F.fconst(2 + 1j), z) == 2 + 1j
    assert F.eval_field(F.fone(), z) == 1.0
    assert F.eval_field(F.fzero(), z) == 0.0


def test_eval_composite_expression():
    # (z^2 * zbar + 3) / (1 + z zbar), conj and log branches
    z = 0.4 + 0.2j
    f = F.fmul(
        F.fadd(F.fmul(F.fpow(F.fz(), 2), F.fzbar()), F.fconst(3.0)),
        F.frecip(F.fadd(F.fone(), F.fmul(F.fz(), F.fzbar()))),
    )
    want = (z**2 * z.conjugate() + 3) / (1 + abs(z) ** 2)
    assert abs(F.eval_field(f, z) - want) < 1e-14
    g = F.fconj(f)
    assert abs(F.eval_field(g, z) - want.conjugate()) < 1e-14
    h = F.flog(F.fadd(F.fconst(2.0), F.fmul(F.fz(), F.fzbar())))
    assert abs(F.eval_field(h, z) - cmath.log(2 + abs(z) ** 2)) < 1e-14


def test_eval_monomial_helper():
    z = -0.2 + 0.5j
    f = F.fmonomial(2j, 3, 1)
    assert abs(F.eval_field(f, z) - 2j * z**3 * z.conjugate()) < 1e-14


@pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
def test_deriv_matches_finite_differences(p, q):
    f = F.fmul(
        F.fadd(F.fconst(1.0), F.fmul(F.fz(), F.fz()), F.fscale(F.fzbar(), 0.5j)),
        F.frecip(F.fadd(F.fconst(3.0), F.fmul(F.fz(), F.fzbar()))),
    )
    df = F.fderiv(f, p, q)

    def fn(w):
        num = 1 + w * w + 0.5j * w.conjugate()
        return num / (3 + abs(w) ** 2)

    for z in (0.2 + 0.1j, -0.4j, 0.55):
        want = fd_wirtinger(fn, z, p, q)
        got = F.eval_field(df, z)
        assert abs(got - want) < 2e-6, (p, q, z)


def test_deriv_of_bump_matches_finite_differences():
    b = F.bump_field(0.0, 0.5, 1.0)
    db = F.fderiv(b, 1, 1)

    def fn(w):
        return F.eval_field(b, w)

    z = 0.7 + 0.1j  # inside the transition annulus
    want = fd_wirtinger(fn, z, 1, 1, h=1e-4)
    got = F.eval_field(db, z)
    assert abs(got - want) < 1e-4 * max(1.0, abs(want))


def test_jet2_at_polynomial_exact():
    # f = 2 + z^2 zbar: every mixed coefficient is explicit
    f = F.fadd(F.fconst(2.0), F.fmonomial(1.0, 2, 1))
    z0 = 0.3 - 0.2j
    j = F.jet2_at(f, z0, 3)
    zb = z0.conjugate()
    assert abs(j.coeff(0, 0) - (2 + z0**2 * zb)) < 1e-12
    assert abs(j.coeff(1, 0) - 2 * z0 * zb) < 1e-12
    assert abs(j.coeff(0, 1) - z0**2) < 1e-12
    assert abs(j.coeff(1, 1) - 2 * z0) < 1e-12
    assert abs(j.coeff(2, 0) - zb) < 1e-12
    assert abs(j.coeff(2, 1) - 1.0) < 1e-12
    assert abs(j.coeff(0, 2)) < 1e-12


def test_jet2_at_recip_against_sympy():
    import sympy as sp

    zs, ws = sp.symbols("zs ws")
    f = F.frecip(F.fadd(F.fconst(2.0), F.fmul(F.fz(), F.fzbar())))
    z0 = 0.25 + 0.1j
    j = F.jet2_at(f, z0, 2)
    expr = 1 / (2 + zs * ws)
    for p in range(3):
        for q in range(3 - p):
            d = sp.diff(expr, zs, p, ws, q)
            val = complex(d.subs({zs: z0, ws: z0.conjugate()}))
            want = val / (math.factorial(p) * math.factorial(q))
            assert abs(j.coeff(p, q) - want) < 1e-10, (p, q)


class TestBump:
    def test_plateau_and_support(self):
        b = F.bump_field(0.5, 0.3, 0.8)
        assert F.eval_field(b, 0.5) == 1.0
        assert F.eval_field(b, 0.5 + 0.29j) == 1.0
        assert F.eval_field(b, 0.5 + 0.81) == 0.0
        mid = F.eval_field(b, 0.5 + 0.55j)
        assert 0.0 < abs(mid) < 1.0

    def test_monotone_profile(self):
        b = F.bump_field(0.0, 0.5, 1.0)
        rs = np.linspace(0.5, 1.0, 40)
        vals = [F.eval_field(b, complex(r)).real for r in rs]
        assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_flat_jets_on_plateau_and_outside(self):
        b = F.bump_field(0.0, 0.5, 1.0)
        j = F.jet2_at(b, 0.2 + 0.1j, 2)
        assert abs(j.coeff(0, 0) - 1.0) < 1e-14
        for p in range(3):
            for q in range(3 - p):
                if (p, q) != (0, 0):
                    assert abs(j.coeff(p, q)) < 1e-14

    def test_plateau_safe(self):
        b = F.bumped(F.fone(), 0.0, 0.5, 1.0)
        assert F.plateau_safe(b, 0.1)
        assert not F.plateau_safe(b, 0.7)  # transition zone

    def test_ctor_validation(self):
        with pytest.raises(Exception):
            F.bump_field(0.0, 1.0, 0.5)  # plateau larger than support


class TestSupports:
    def test_bumped_sets_support(self):
        f = F.bumped(F.fz(), 1.0, 0.25, 0.5)
        assert f.support is not None
        assert F.eval_field(f, 1.8) == 0.0

    def test_mul_disjoint_supports_is_structural_zero(self):
        a = F.bumped(F.fone(), 0.0, 0.2, 0.4)
        b = F.bumped(F.fone(), 2.0, 0.2, 0.4)
        prod = F.fmul(a, b)
        # no overlap: the product should be recognized as zero
        assert prod.support is not None
        bb = prod.support.bbox() if hasattr(prod.support, "bbox") else None
        assert F.eval_field(prod, 0.0) == 0.0
        assert F.eval_field(prod, 2.0) == 0.0

    def test_support_survives_neg_and_pow(self):
        a = F.bumped(F.fz(), 0.0, 0.2, 0.4)
        assert F.fneg(a).support is not None
        assert F.fpow(a, 2).support is not None
        assert F.fmul(F.fconst(3.0), a).support is not None


def test_pullback_evaluates_composition():
    from loctrace.groupoid import MobiusMap

    g = MobiusMap([[2.0, 0.0], [0.0, 1.0]])
    f = F.fadd(F.fmul(F.fz(), F.fz()), F.fzbar())
    pb = F.fpullback(f, g)
    for z in (0.1 + 0.2j, -0.3j, 0.25):
        w = g.apply(z)
        assert abs(F.eval_field(pb, z) - (w * w + w.conjugate())) < 1e-13


def test_pullback_shrinks_support():
    from loctrace.groupoid import AffineMap

    g = AffineMap(2.0, 0.0)  # z -> 2z
    f = F.bumped(F.fone(), 0.0, 0.5, 1.0)
    pb = F.fpullback(f, g)
    # support of f o g is the preimage: radius 0.5 disk, plateau 0.25
    assert F.eval_field(pb, 0.2) == 1.0
    assert F.eval_field(pb, 0.6) == 0.0
    assert pb.support is not None


class TestSexp:
    def test_round_trip_preserves_values(self):
        f = F.fadd(
            F.fconst(1.5 - 2j),
            F.fscale(F.fmul(F.fz(), F.fzbar()), 0.5),
            F.bumped(F.fpow(F.fz(), 2), 0.1j, 0.2, 0.4),
        )
        s = F.field_to_sexp(f)
        g = F.field_from_sexp(s)
        for z in (0.05 + 0.1j, 0.2j, -0.15):
            assert abs(F.eval_field(f, z) - F.eval_field(g, z)) < 1e-13

    def test_round_trip_special_nodes(self):
        f = F.fderiv(
            F.fconj(F.frecip(F.fadd(F.fconst(2.0), F.fmul(F.fz(), F.fzbar())))), 1, 0
        )
        g = F.field_from_sexp(F.field_to_sexp(f))
        z = 0.3 - 0.1j
        assert abs(F.eval_field(f, z) - F.eval_field(g, z)) < 1e-13

    def test_parse_literal_forms(self):
        f = F.field_from_sexp("(* (c 2 0) z)")
        assert F.eval_field(f, 0.5j) == 1j

    def test_parse_rejects_garbage(self):
        for bad in ("(unknownop z)", "(c 1", "(pow z -1)", ""):
            with pytest.raises(Exception):
                F.field_from_sexp(bad)

    def test_parsed_bump_gets_support(self):
        f = F.field_from_sexp("(* (bump 0 0 0.5 1.0) z)")
        assert f.support is not None
        assert F.eval_field(f, 2.0) == 0.0


def test_regions():
    d = F.Disk(1.0, 0.5)
    assert d.contains(1.2)
    assert not d.contains(1.8)
    b = F.Box(0.0, 1.0, 0.0, 1.0)
    assert b.contains(0.5 + 0.5j)
    a = F.Annulus(0.0, 0.5, 1.0)
    assert a.contains(0.75)
    assert not a.contains(0.25)
    assert not a.contains(1.25)


def test_domain_error_on_unbounded_support():
    # integration-facing helpers need a bbox; plain fields have none
    f = F.fmul(F.fz(), F.fz())
    assert f.support is None


# ---------------------------------------------------------------------------
# compiled tapes: a field's second batched evaluation runs a tape, which must
# give the interpreter's values

TAPE_TREES = {
    "arith": "(+ (c 0.3 0.2) (* (c 0 1.5) z) (* z zbar) (neg (pow zbar 2)))",
    "recip-log-conj": "(* (recip (+ (c 2 0) z)) (conj (log (+ (c 2 0) (* z zbar)))))",
    "bump": "(* (+ (c 0.3 0.2) z) (bump 0.1 0 0.2 0.45))",
    "bump-of-map": "(bump 0 0 0.2 0.45 (pow (+ z (c 0.1 0)) 2))",
    "deriv-1": "(deriv 0 1 (* (+ (c 0.3 0.2) (* z zbar)) (bump 0.1 0 0.2 0.45)))",
    # order 2: three terms meet in one key, so their order shows in the bits
    "deriv-2": "(deriv 2 0 (* (log (+ (c 2 0) z)) (bump 0.1 0 0.2 0.45)))",
    "deriv-11-recip": "(deriv 1 1 (recip (+ (c 2 0) (* z (bump 0.1 0 0.2 0.45)))))",
    # where the annulus is empty the cutoff's jet has one key, which changes
    # the key order of the first product and so the sums in the second
    "deriv-11-key-order": "(deriv 1 1 (* (* (+ (c 0.3 0.2) (* z z) zbar) (bump 0.1 0 0.2 0.45)) "
                          "(log (+ (c 2 0) (* z zbar)))))",
    "compose": "(compose (deriv 1 1 (* (pow zbar 2) (bump 0.1 0 0.2 0.45))) "
               "(* (+ z (c 0.05 0)) (recip (+ (c 1 0) (* (c 0.3 0) z)))))",
    # the quotient takes -1 and x, while the domain check reads -x
    "recip-neg": "(recip (neg (+ z (c 2 0))))",
}


def _grid(n, lo, hi):
    x = np.linspace(lo, hi, n)
    return (x[None, :] + 1j * x[:, None]).ravel()


def _tape_blocks():
    mixed = _grid(64, -0.6, 0.6)
    r = np.abs(mixed - 0.1)
    return {"mixed": mixed, "no-annulus": mixed[(r < 0.19) | (r > 0.46)]}


@pytest.mark.parametrize("block", ["mixed", "no-annulus"])
@pytest.mark.parametrize("name", sorted(TAPE_TREES))
def test_tape_matches_interpreter(name, block):
    z = _tape_blocks()[block]
    r = np.abs(z - 0.1)
    assert np.any(r <= 0.2) and np.any(r >= 0.45)
    assert np.any((r > 0.2) & (r < 0.45)) == (block == "mixed")
    f = F.field_from_sexp(TAPE_TREES[name])
    want = F.eval_field(f, z)  # the first batch is interpreted
    assert f.tape is False
    got = F.eval_field(f, z)
    assert f.tape
    assert np.array_equal(got, want)
    assert np.array_equal(F.eval_field(f, z[::-1]), want[::-1])


@pytest.mark.parametrize("name", sorted(TAPE_TREES))
def test_integrand_is_taped_from_its_first_batch(name, monkeypatch):
    z = _tape_blocks()["mixed"]
    want = F.eval_field(F.field_from_sexp(TAPE_TREES[name]), z)  # interpreted
    f = F.field_from_sexp(TAPE_TREES[name])
    ev = F.integrand(f)
    monkeypatch.setattr(F, "_jet_batch", None)
    assert np.array_equal(ev(z), want)
    tape = f.tape
    assert tape
    F.integrand(f)
    assert f.tape is tape  # a taped field keeps its tape


def test_integrand_reuses_one_block_buffer():
    z = _tape_blocks()["mixed"]
    f = F.field_from_sexp(TAPE_TREES["compose"])
    ev = F.integrand(f)
    first = ev(z)
    want = first.copy()
    second = ev(z[::-1])
    assert np.shares_memory(first, second)  # the next block overwrites it
    assert np.array_equal(second, want[::-1]) and np.array_equal(ev(z), want)
    # every other caller gets a fresh array
    a, b = F.eval_field(f, z), F.eval_field(f, z)
    assert np.array_equal(a, want) and not np.shares_memory(a, b)
    assert not np.shares_memory(a, first)


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("name", sorted(TAPE_TREES))
def test_jet_keys_do_not_depend_on_the_points(name, K):
    # a cutoff jet of order 1 to the cap takes its profile terms even where
    # no point meets its annulus, so one tape serves every batch
    expr = F.field_from_sexp(TAPE_TREES[name]).expr
    keys = [list(F._jet_batch(expr, z, K)[0]) for z in _tape_blocks().values()]
    assert keys[0] == keys[1]


@pytest.mark.parametrize("name", sorted(TAPE_TREES))
def test_taped_field_never_interprets_a_batch(name, monkeypatch):
    f = F.field_from_sexp(TAPE_TREES[name])
    blocks = _tape_blocks()
    want = F.eval_field(f, blocks["no-annulus"])
    F.eval_field(f, blocks["mixed"])
    F.eval_field(f, blocks["mixed"])
    assert f.tape

    def interpret(*args, **kwargs):
        raise AssertionError("a taped field's batch went to the interpreter")

    monkeypatch.setattr(F, "_jet_batch", interpret)
    assert np.array_equal(F.eval_field(f, blocks["no-annulus"]), want)


@pytest.mark.parametrize("sexp, message", [
    ("(recip (+ z (c -0.5 0)))", "reciprocal of a vanishing field (Recip)"),
    ("(log (* (+ z (c -0.5 0)) (bump 0 0 0.6 0.9)))", "log of a vanishing field (Log)"),
])
def test_tape_raises_the_interpreter_domain_error(sexp, message):
    bad = np.array([0.1, 0.5, 0.2j])
    with pytest.raises(F.FieldDomainError) as interpreted:
        F.eval_field(F.field_from_sexp(sexp), bad)
    f = F.field_from_sexp(sexp)
    F.eval_field(f, bad[::2])
    F.eval_field(f, bad[::2])
    assert f.tape
    with pytest.raises(F.FieldDomainError) as taped:
        F.eval_field(f, bad)
    assert str(taped.value) == str(interpreted.value) == message


def _taped(sexp):
    f = F.field_from_sexp(sexp)
    block = _tape_blocks()["mixed"]
    want = F.eval_field(f, block)
    assert np.array_equal(F.eval_field(f, block), want)
    return f


@pytest.mark.parametrize("name", sorted(TAPE_TREES))
def test_equal_trees_share_one_tape(name):
    a, b = _taped(TAPE_TREES[name]), _taped(TAPE_TREES[name])
    assert a.expr is not b.expr and a.tape is b.tape
    # a tree whose equal subtrees are one object shares it too
    shared = F.field_from_sexp(TAPE_TREES[name])
    doubled = F.ScalarField(F.Mul(shared.expr, shared.expr))
    copied = F.ScalarField(F.Mul(a.expr, b.expr))
    assert F._tape_of(doubled.expr) is F._tape_of(copied.expr)
    for block in _tape_blocks().values():
        want = F._jet_batch(a.expr, block, 0)[0][(0, 0)]
        assert np.array_equal(a.tape.run(block), want)


@pytest.mark.parametrize("a, b", [
    ("(* z (c 0.5 0))", "(* z (c 0.25 0))"),
    ("(* z (c 0.0 0))", "(* z (c -0.0 0))"),
    ("(* z (c 0 0.0))", "(* z (c 0 -0.0))"),
    ("(deriv 1 0 (* z (bump 0.1 0 0.2 0.45)))", "(deriv 0 1 (* z (bump 0.1 0 0.2 0.45)))"),
    ("(deriv 1 0 (* z (bump 0.1 0 0.2 0.45)))", "(deriv 2 0 (* z (bump 0.1 0 0.2 0.45)))"),
    ("(* z (bump 0.1 0 0.2 0.45))", "(* z (bump 0.1 0 0.2 0.46))"),
    ("(* z (bump 0.1 0 0.2 0.45))", "(* z (bump 0.1 0 0.25 0.45))"),
    ("(* z (bump 0.1 0 0.2 0.45))", "(* z (bump 0.1 0.0 0.2 0.45 (* z (c 1 0))))"),
    ("(+ z (* z zbar))", "(+ (* z zbar) z)"),
])
def test_trees_that_differ_get_their_own_tapes(a, b):
    fa, fb = _taped(a), _taped(b)
    assert F._structure(fa.expr) != F._structure(fb.expr)
    assert fa.tape is not fb.tape


def test_tape_cache_is_bounded_oldest_out_first(monkeypatch):
    monkeypatch.setattr(F, "_TAPES", {})
    bound = F._TAPE_CACHE
    exprs = [F.field_from_sexp(f"(* z (c {k} 0.5))").expr for k in range(bound + 3)]
    tapes = []
    for e in exprs:
        tapes.append(F._tape_of(e))
        assert len(F._TAPES) <= bound
    assert len(F._TAPES) == bound
    assert [F._tape_of(e) for e in exprs[3:]] == tapes[3:]  # kept, not recorded again
    assert F._tape_of(exprs[0]) is not tapes[0]  # the oldest went first


def test_arena_views_are_bounded_and_follow_the_buffer():
    arena = F._Arena()
    first = arena.rows(3, 64, 64)
    assert arena.rows(3, 64, 64) is first
    for block in range(1, F._ARENA_VIEWS + 5):
        views = arena.rows(2, block, block)
        assert all(len(v) == block for v in views) and len(views) == 6
        assert len(arena.views) <= F._ARENA_VIEWS
    grown = arena.rows(5, 128, 128)  # a larger buffer drops the views of the old one
    assert arena.buf.shape == (5 * 128,)  # one flat buffer of rows x block
    assert all(np.shares_memory(v, arena.buf) for v in grown)
    assert all(np.shares_memory(v, arena.buf) for vs in arena.views.values() for v in vs)
    assert all(v.flags.c_contiguous for vs in arena.views.values() for v in vs)
    arena.rows(3, 200, 200)  # 600 entries fit in 640: no new buffer
    assert arena.buf.shape == (5 * 128,)
    # a short batch is cut from its block's views and adds no view set
    keys = list(arena.views)
    short = arena.rows(5, 128, 37)
    assert list(arena.views) == keys and arena.buf.shape == (5 * 128,)
    assert len(short) == len(grown) == 15
    for v, w in zip(short, grown):
        assert len(v) == 37 and v.dtype == w.dtype and v.flags.c_contiguous
        assert v.__array_interface__["data"][0] == w.__array_interface__["data"][0]


def _address(a):
    return a.__array_interface__["data"][0]


def test_tape_rows_and_values_start_on_cache_lines(monkeypatch):
    arena = F._Arena()
    for nrows, block, npts in [(3, 4096, 4096), (40, 2048, 907), (7, 64, 64)]:
        assert all(_address(v) % 64 == 0 for v in arena.rows(nrows, block, npts))
    f = F.field_from_sexp(TAPE_TREES["compose"])
    monkeypatch.setattr(F, "_ARENA", arena)
    ev = F.integrand(f)
    z = _tape_blocks()["mixed"]
    assert _address(ev(z)) % 64 == 0  # the integrand's block of values
    assert _address(arena.buf) % 64 == 0


def _deep_product(n):
    """n factors z + c_k, each live until the product of those after it is
    done: a tape of n rows.  The c_k are real of both signs, so on the real
    axis the values' imaginary parts are zeros of both signs."""
    s = "z"
    for k in range(n, 0, -1):
        s = f"(* (+ z (c {(-1) ** k * (0.3 + k / 64)} 0)) {s})"
    return F.field_from_sexp(s)


def _bits(v):
    return v.view(np.uint64)


class _RowsSeen(F._Arena):
    """An arena that records the (rows, block, points) of every request."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def rows(self, nrows, block, npts):
        self.seen.append((nrows, block, npts))
        return super().rows(nrows, block, npts)


def test_wide_tape_runs_in_halved_blocks(monkeypatch):
    f = _deep_product(40)
    x = np.linspace(-0.6, 0.6, 71)
    # the real axis among the points, so signed zeros occur; 5,041 points
    # are two halved blocks and a remainder
    z = (x[None, :] + 1j * x[:, None]).ravel()
    assert np.any(z.imag == 0) and len(z) % 2048
    want = F._jet_batch(f.expr, z, 0)[0][(0, 0)]
    arena = _RowsSeen()
    monkeypatch.setattr(F, "_ARENA", arena)
    tape = F._Tape(f.expr)
    assert tape.nrows > 32 and tape.block == F._TAPE_BLOCK // 2
    assert 16 * tape.nrows * tape.block <= F._ARENA_BYTES < 32 * tape.nrows * tape.block
    got = tape.run(z)
    assert np.array_equal(_bits(got), _bits(want))
    assert arena.seen == [(40, 2048, 2048), (40, 2048, 2048), (40, 2048, len(z) - 4096)]
    assert list(arena.views) == [(40, 2048)]
    # the same tape in whole blocks gives the same bits
    monkeypatch.setattr(F, "_ARENA_BYTES", 1 << 30)
    whole = F._Tape(f.expr)
    assert whole.block == F._TAPE_BLOCK
    assert np.array_equal(_bits(whole.run(z)), _bits(got))
    zeros = np.signbit(got.imag[got.imag == 0])
    assert zeros.any() and not zeros.all()


def test_remainder_runs_in_the_block_views(monkeypatch):
    # two whole blocks and a remainder, then a batch shorter than a block:
    # one view set serves them all, and the bits are the interpreter's
    f = _deep_product(12)
    x = np.linspace(-0.6, 0.6, 93)
    z = (x[None, :] + 1j * x[:, None]).ravel()  # 8,649 points, the real axis among them
    assert np.any(z.imag == 0) and len(z) % F._TAPE_BLOCK
    arena = _RowsSeen()
    monkeypatch.setattr(F, "_ARENA", arena)
    tape = F._Tape(f.expr)
    assert tape.block == F._TAPE_BLOCK
    axis = np.flatnonzero(z.imag == 0)[0]
    for batch in (z, z[axis - 200 : axis + 300]):
        got = tape.run(batch)
        want = F._jet_batch(f.expr, batch, 0)[0][(0, 0)]
        assert np.array_equal(_bits(got), _bits(want))
        zeros = np.signbit(got.imag[got.imag == 0])
        assert zeros.any() and not zeros.all()
    block = (tape.nrows, F._TAPE_BLOCK)
    assert arena.seen == [(*block, 4096), (*block, 4096), (*block, len(z) - 8192), (*block, 500)]
    assert list(arena.views) == [block]
    assert arena.buf.shape == (tape.nrows * F._TAPE_BLOCK,)


def test_arena_stays_within_its_byte_budget():
    f = _deep_product(70)
    block = _grid(64, -0.6, 0.6)
    want = F.eval_field(f, block)
    assert np.array_equal(_bits(F.eval_field(f, block)), _bits(want))
    assert f.tape.nrows == 70 and f.tape.block == F._TAPE_BLOCK // 4
    assert F._ARENA.buf.nbytes <= F._ARENA_BYTES


# trees whose cutoffs no point of the "no-annulus" block meets
PLAIN_CUTOFF_TREES = ["bump", "deriv-1", "deriv-11-key-order", "deriv-11-recip", "deriv-2"]


@pytest.mark.parametrize("K", [1, 2, F.GLUE_ORDER_CAP - 2])  # the derivatives add 2
@pytest.mark.parametrize("name", PLAIN_CUTOFF_TREES)
def test_jet_without_the_profile_where_no_point_meets_it(name, K, monkeypatch):
    # the interpreter leaves out a profile that is 0 on the whole batch; the
    # keys and the bits are those of the profile's terms
    expr = F.field_from_sexp(TAPE_TREES[name]).expr
    block = _tape_blocks()["no-annulus"]
    calls = []
    profile = F.bump_profile_jet
    monkeypatch.setattr(F, "bump_profile_jet", lambda *a: calls.append(a) or profile(*a))
    got = F._jet_batch(expr, block, K)[0]
    assert not calls
    monkeypatch.setattr(F.EvalCtx, "profile_vanishes", lambda self, annulus: False)
    want = F._jet_batch(expr, block, K)[0]
    assert list(got) == list(want)
    assert all(np.array_equal(got[k], want[k]) and
               np.array_equal(np.signbit(got[k].view(float)), np.signbit(want[k].view(float)))
               for k in want)
    assert calls


def test_tape_built_once_and_arena_bounded(monkeypatch):
    monkeypatch.setattr(F, "_ARENA", F._Arena())  # sized by this tape alone
    f = F.field_from_sexp(TAPE_TREES["compose"])
    F.eval_field(f, 0.3)
    F.eval_field(f, 0.1 + 0.2j)
    assert f.tape is None  # one-shot values stay on the interpreter
    block = _grid(64, -0.6, 0.6)
    want = F.eval_field(f, block)
    F.eval_field(f, block)
    tape = f.tape
    assert tape.block == F._TAPE_BLOCK
    shape = F._ARENA.buf.shape
    assert shape == (tape.nrows * F._TAPE_BLOCK,)
    batch = _grid(111, -0.6, 0.6)  # three blocks and a remainder
    for _ in range(3):
        assert np.array_equal(F.eval_field(f, block), want)
        F.eval_field(f, batch.reshape(111, 111))
    assert f.tape is tape
    assert F._ARENA.buf.shape == shape


# one tree per exact rewrite of the recorder: the tape still gives the
# interpreter's values, with fewer instructions than recorded without it
REWRITE_TREES = {
    # a composed derivative that vanishes identically is the constant 0
    "x+0": "(+ (* z zbar) (compose (deriv 1 0 zbar) z))",
    "0+x": "(+ (compose (deriv 1 0 zbar) z) (* z zbar))",
    "x-0": "(* zbar (bump 0 0 0.2 0.45 (* z z)))",
    "x/1": "(deriv 1 0 (bump 0.1 0 0.2 0.45))",
    "x*-1": "(* zbar (neg z))",
    "--x": "(+ zbar (neg (neg (* z z))))",
    "a+-b": "(+ (* z z) (neg zbar))",
    "-a+b": "(+ (neg (* z z)) zbar)",
    "c*-x": "(* (c 0.5 0.25) (neg (* z zbar)))",
    # the negation and the conjugate of a constant are constants
    "-c": "(* z (neg (c 0.5 -0.25)))",
    "conj-c": "(* z (conj (c 0.5 -0.25)))",
}


@pytest.mark.parametrize("block", ["mixed", "no-annulus"])
@pytest.mark.parametrize("name", sorted(REWRITE_TREES))
def test_rewritten_tape_matches_interpreter(name, block, monkeypatch):
    z = _tape_blocks()[block]
    f = F.field_from_sexp(REWRITE_TREES[name])
    want = F.eval_field(f, z)
    assert np.array_equal(F.eval_field(f, z), want)
    rewritten = [ins[0] for ins in f.tape.code]
    monkeypatch.setattr(F._Recorder, "_exact", lambda self, ufunc, srcs, dtype: None)
    recorded = [ins[0] for ins in F._Tape(f.expr).code]
    if name == "x*-1":  # a negation takes the product's place
        assert rewritten.count(np.multiply) < recorded.count(np.multiply)
        assert len(rewritten) == len(recorded)
    else:
        assert len(rewritten) < len(recorded)


@pytest.mark.parametrize("sexp", [*TAPE_TREES.values(), *REWRITE_TREES.values()],
                         ids=[*TAPE_TREES, *REWRITE_TREES])
def test_tape_constants_are_all_read(sexp):
    # a rewrite such as x * -1 -> -x must not leave its -1 among the operands
    tape = F._Tape(F.field_from_sexp(sexp).expr)
    first = 1 + 3 * tape.nrows  # constants follow the rows
    read = {i for _, _, *srcs in tape.code for i in srcs if i >= first}
    read |= {tape.result} if tape.result >= first else set()
    assert read == set(range(first, first + len(tape.consts)))


def test_recorder_absorbs_negated_subtrahends_and_divisors():
    # the jet rules subtract only constants, and divide a constant only by a
    # value whose domain check keeps it: these two are checked on their own
    rec = F._Recorder()
    z = F._Reg(rec, 0, np.dtype(complex))
    w = z * z
    assert z - (-w) is np.add(z, w)
    q = 2.0 / (-w)
    kernel, out, srcs, _ = rec.code[-1]
    assert out is q and kernel is np.divide and srcs[0].value == -2.0 and srcs[1] is w
    live = F._Tape._live(rec.code, q)
    assert [ins[0] for ins in live] == [np.multiply, np.divide]


def test_flat_instructions_of_every_arity_match_the_interpreter():
    # a tape instruction is one flat tuple (kernel, output, *inputs): kernels
    # of one, two and three inputs, and domain checks, which write nothing
    # and so name slot 0, the points, as their output
    f = F.field_from_sexp("(deriv 1 1 (recip (+ (c -0.25 0) (* z (bump 0.1 0 0.2 0.45)))))")
    tape = F._Tape(f.expr)
    assert {len(ins) - 2 for ins in tape.code} == {1, 2, 3}
    checks = [ins for ins in tape.code if getattr(ins[0], "func", None) is F._k_nonvanishing]
    assert len(checks) == 1 and checks[0][1] == 0 and len(checks[0]) == 3
    assert all(isinstance(i, int) for ins in tape.code for i in ins[1:])
    for z in _tape_blocks().values():
        assert np.array_equal(tape.run(z), F._jet_batch(f.expr, z, 0)[0][(0, 0)])
    # 0.25 on the cutoff's plateau: the reciprocal vanishes there
    bad = np.array([0.5j, 0.25, -0.3])
    with pytest.raises(F.FieldDomainError) as interpreted:
        F._jet_batch(f.expr, bad, 0)
    with pytest.raises(F.FieldDomainError) as taped:
        tape.run(bad)
    assert str(taped.value) == str(interpreted.value) == "reciprocal of a vanishing field (Recip)"


_SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.5, -2.5]


def _same_bits_but_nan_payloads(got, want):
    """Equal bits wherever want is not NaN, and NaN where it is."""
    nan = np.isnan(want.view(float))
    return np.array_equal(np.isnan(got.view(float)), nan) and np.array_equal(
        got.view(float).view(np.uint64)[~nan], want.view(float).view(np.uint64)[~nan])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and inf operands
def test_select_kernels_give_the_interpreters_bits():
    # the tape's where and add_where against EvalCtx's, on zeros of both
    # signs, NaNs of both signs and infinities, in the values and in the
    # base; a constant and the plateau's bools as well.  Where both terms of
    # a sum are NaN the interpreter's masked add may keep the other's payload
    rng = np.random.default_rng(5)
    n = 256
    mask = rng.uniform(size=n) < 0.5
    a, b = rng.choice(_SPECIAL, n), rng.choice(_SPECIAL, n)
    v, base = (rng.choice(_SPECIAL, n) + 1j * rng.choice(_SPECIAL, n) for _ in range(2))
    ctx = F.EvalCtx(n)
    for x, y in [(a, b), (a, 0.5), (a, ~mask)]:
        got = np.empty(n)
        F._k_where(mask, x, y, got)
        assert np.array_equal(_bits(got), _bits(ctx.where(mask, x, y)))
    for b0 in (0j, complex(-0.0, 0.0), base):
        got = np.empty(n, dtype=complex)
        F._k_add_where(b0, v, mask, got)
        want = ctx.add_where(np.broadcast_to(b0, n), v, mask)
        assert _same_bits_but_nan_payloads(got, want)
        assert np.array_equal(_bits(got[~mask]), _bits(want[~mask]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN points
@pytest.mark.parametrize("name", ["bump", "bump-of-map", "deriv-1", "deriv-2", "compose"])
def test_cutoff_tapes_give_the_interpreters_bits_on_every_kind_of_point(name):
    # points on the plateau, in the annulus, outside the support and NaN,
    # zeros of both signs among them
    f = F.field_from_sexp(TAPE_TREES[name])
    r = np.array([0.0, 0.15, 0.3, 0.4, 0.44, 0.6, 0.9, 2.0])
    z = np.concatenate([0.1 + np.outer(r, np.exp(1j * np.linspace(0, 2 * np.pi, 9))).ravel(),
                        [0.1, -0.0, complex(-0.9, -0.0), complex(math.nan, 0.0),
                         complex(0.2, math.nan), complex(math.nan, math.nan)]])
    tape = F._Tape(f.expr)
    assert F._k_where in {ins[0] for ins in tape.code}
    got = tape.run(z)
    assert np.isnan(got[-3:]).all() and np.isfinite(got[:-3]).all()
    assert _same_bits_but_nan_payloads(got, F._jet_batch(f.expr, z, 0)[0][(0, 0)])


@pytest.mark.parametrize("c0, raises", [
    ([0j], True),
    ([complex(-0.0, -0.0)], True),
    ([1.0, 2j, 0j, -3.0], True),
    ([5e-324], False),
    ([1e-300j], False),
    ([complex(math.inf, 0.0)], False),
    ([complex(math.nan, 0.0)], False),
])
def test_nonvanishing(c0, raises):
    c0 = np.array(c0, dtype=complex)
    if raises:
        with pytest.raises(F.FieldDomainError, match="vanishing"):
            F._nonvanishing(c0, "vanishing")
    else:
        F._nonvanishing(c0, "vanishing")
