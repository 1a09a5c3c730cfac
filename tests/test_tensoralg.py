"""Word-algebra liftings, collapse functionals, and their exactness."""

import numpy as np
import pytest

from loctrace import fields as F
from loctrace import groupoid as G
from loctrace.algebra import CrossedForm, DWord, WordCrossedForm
from loctrace.tensoralg import (
    CertificateError,
    GroupCocycle1,
    WordValues,
    check_idempotent,
    check_inverse,
    check_nilpotent,
    crossed_max_abs,
    lift_idempotent,
    lift_invertible,
    nat_key,
    tau0,
    universal_d,
)

from conftest import (
    bott_projector,
    kappa_action,
    nilpotent_elem,
    rand_crossed,
    std_mobius_action,
)


def assert_structurally_zero(w):
    assert not w.terms
    assert w.scalar is None or not np.any(w.scalar)
    assert crossed_max_abs(w) == 0.0


class TestChecks:
    def test_idempotent_gate(self):
        act = std_mobius_action()
        e = CrossedForm(act, 2, scalar=np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert check_idempotent(e) <= 1e-12
        bad = CrossedForm(act, 2, scalar=np.array([[0.5, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            check_idempotent(bad)

    def test_nilpotent_gate(self):
        act = std_mobius_action()
        a = nilpotent_elem(act)
        assert check_nilpotent(a) == 0.0
        rng = np.random.default_rng(1)
        full = rand_crossed(rng, act, ["a"], size=1)
        with pytest.raises(CertificateError):
            check_nilpotent(full)

    def test_inverse_gate(self):
        act = std_mobius_action()
        a = nilpotent_elem(act)
        u = CrossedForm.unit(act, 2).add(a)
        v = CrossedForm.unit(act, 2).sub(a)
        assert check_inverse(u, v) <= 1e-12
        with pytest.raises(CertificateError):
            check_inverse(u, u)


class TestLiftInvertible:
    @pytest.mark.parametrize("cap", [2, 3, 4])
    def test_nilpotent_route_exact(self, cap):
        act = std_mobius_action()
        u = CrossedForm.unit(act, 2).add(nilpotent_elem(act))
        uh, ui = lift_invertible(u, cap, {"kind": "nilpotent"})
        one = WordCrossedForm.unit(act, 2, cap)
        assert_structurally_zero(uh.mul(ui).sub(one))
        assert_structurally_zero(ui.mul(uh).sub(one))

    @pytest.mark.parametrize("cap", [2, 3, 4])
    def test_inverse_route_exact_mod_cap(self, cap):
        act = std_mobius_action()
        a = nilpotent_elem(act, seed=2)
        u = CrossedForm.unit(act, 2).add(a)
        v = CrossedForm.unit(act, 2).sub(a)
        uh, ui = lift_invertible(u, cap, {"kind": "inverse", "value": v})
        one = WordCrossedForm.unit(act, 2, cap)
        assert crossed_max_abs(uh.mul(ui).sub(one)) < 1e-12
        assert crossed_max_abs(ui.mul(uh).sub(one)) < 1e-12

    def test_inverse_route_matches_neumann_series(self):
        # for nilpotent a both certificates must produce the same inverse
        act = std_mobius_action()
        a = nilpotent_elem(act, seed=3)
        u = CrossedForm.unit(act, 2).add(a)
        v = CrossedForm.unit(act, 2).sub(a)
        cap = 4
        _, ui_nil = lift_invertible(u, cap, {"kind": "nilpotent"})
        _, ui_inv = lift_invertible(u, cap, {"kind": "inverse", "value": v})
        assert crossed_max_abs(ui_nil.sub(ui_inv)) < 1e-12

    def test_bad_certificates_rejected(self):
        act = std_mobius_action()
        rng = np.random.default_rng(4)
        full = rand_crossed(rng, act, ["a"], size=1)
        u = CrossedForm.unit(act, 1).add(full)
        with pytest.raises(CertificateError):
            lift_invertible(u, 3, {"kind": "nilpotent"})  # a^2 != 0
        with pytest.raises(CertificateError):
            lift_invertible(u, 3, {"kind": "inverse", "value": u})
        with pytest.raises(Exception):
            lift_invertible(u, 3, {"kind": "mystery"})

    def test_requires_unit_scalar_part(self):
        act = std_mobius_action()
        a = nilpotent_elem(act)
        with pytest.raises(Exception):
            lift_invertible(a, 3, {"kind": "nilpotent"})  # no 1 + ... shape


class TestLiftIdempotent:
    @pytest.mark.parametrize("cap", [2, 3])
    def test_residual_exact_mod_cap(self, cap):
        act, e = bott_projector()
        eh = lift_idempotent(e, cap)
        res = eh.mul(eh).sub(eh)
        assert crossed_max_abs(res) < 1e-9

    def test_collapses_back_when_series_terminates(self):
        # projector plus a strictly triangular compact part is exactly
        # idempotent and its defect series dies at length two
        act = std_mobius_action()
        e = CrossedForm(
            act, 2, scalar=np.array([[1.0, 0.0], [0.0, 0.0]])
        ).add(nilpotent_elem(act, seed=9))
        assert check_idempotent(e) == 0.0
        eh = lift_idempotent(e, 3)
        assert eh.dropped == 0
        assert crossed_max_abs(eh.mu_image().sub(e)) == 0.0
        assert_structurally_zero(eh.mul(eh).sub(eh))

    def test_cap_drops_are_reported(self):
        # the window projector's defect series never terminates, so the
        # capped lift must record what it threw away
        act, e = bott_projector()
        eh = lift_idempotent(e, 3)
        assert eh.dropped > 0

    def test_rejects_non_idempotent(self):
        act = std_mobius_action()
        rng = np.random.default_rng(5)
        x = rand_crossed(rng, act, ["a"], size=1)
        with pytest.raises(ValueError):
            lift_idempotent(x, 3)

    def test_scalar_projector_lift_is_itself(self):
        act = std_mobius_action()
        e = CrossedForm(act, 2, scalar=np.array([[1.0, 0.0], [0.0, 0.0]]))
        eh = lift_idempotent(e, 3)
        assert not eh.terms
        assert np.allclose(eh.scalar, e.scalar)


class TestNatKey:
    def test_rotation_formula(self):
        act = std_mobius_action()
        a, b = act.by_name("a"), act.by_name("b")
        dk = DWord((a,), b, (a, a))
        assert nat_key(dk) == ((a, a, a), b)
        dk2 = DWord((), b, ())
        assert nat_key(dk2) == ((), b)

    def test_rotations_share_keys(self):
        # split the same cyclic word at the same letter from two positions
        act = std_mobius_action()
        a, b = act.by_name("a"), act.by_name("b")
        k1 = nat_key(DWord((a,), b, (a,)))
        k2 = nat_key(DWord((), b, (a, a)))
        assert k1 == k2 == ((a, a), b)


class TestCollapseFunctionals:
    def test_tau0_selects_unit_words(self):
        act = kappa_action()
        c, v = act.by_name("c"), act.by_name("v")
        values = {
            (c,): 5.0,  # mu = c, ignored
            (c, c, v): 2.0 + 1j,  # mu = v.c.c = identity
        }
        assert abs(tau0(WordValues(act, values)) - (2.0 + 1j)) < 1e-14

    def test_tau0_trace_property_through_mu(self):
        act = std_mobius_action()
        a = act.by_name("a")
        ai = act.inverse(a)
        x, y = 0.5 - 2j, 3.0 + 1j
        # the products of the one-letter tables {(a,): x} and {(a^-1,): y}:
        # both orders land on the unit label and count
        xy = tau0(WordValues(act, {(a, ai): x * y}))
        yx = tau0(WordValues(act, {(ai, a): y * x}))
        assert xy == yx == x * y != 0

    def test_cocycle_weights_additive_on_free_action(self):
        act = G.FreeGeneratorsAction(
            [("s", G.AffineMap(2.0, 0.0)), ("t", G.AffineMap(1.0, 0.2))],
            F.Disk(0.0, 1.0),
        )
        psi = GroupCocycle1(weights={"s": 1.5, "t": -2j})
        s, t = act.generator("s"), act.generator("t")
        s3 = act.compose(s, act.compose(s, s))
        assert abs(psi.value(s3) - 4.5) < 1e-14
        st = act.compose(t, s)
        assert abs(psi.value(st) - (1.5 - 2j)) < 1e-14
        assert abs(psi.value(act.inverse(s)) + 1.5) < 1e-14
        for g, h in ((s, t), (s3, act.inverse(s))):
            assert abs(psi.value(act.compose(h, g)) - psi.value(g) - psi.value(h)) < 1e-13

    def test_cocycle_table_route(self):
        act = kappa_action()
        c = act.by_name("c")
        psi = GroupCocycle1(table={c: 2.0})
        assert psi.value(c) == 2.0
        with pytest.raises(ValueError):
            psi.value(act.by_name("v"))

    def test_cocycle_ctor_validation(self):
        with pytest.raises(ValueError):
            GroupCocycle1()
        with pytest.raises(ValueError):
            GroupCocycle1(weights={}, table={})

    def test_cocycle_of_selects_unit_total_words(self):
        act = G.FreeGeneratorsAction(
            [("s", G.AffineMap(2.0, 0.0))], F.Disk(0.0, 1.0)
        )
        s = act.generator("s")
        si = act.inverse(s)
        psi = GroupCocycle1(weights={"s": 0.7})
        # key ((w), b): contributes when mu(w) b is the unit
        values = {
            ((si,), s): 3.0,  # mu(w) b = unit: counts
            ((s,), s): 10.0,  # s s != unit: ignored
        }
        assert abs(psi.of(WordValues(act, values)) - 3.0 * 0.7) < 1e-14

    def test_collapse_parity_enforced(self):
        act = std_mobius_action()
        assert tau0(WordValues(act, {(): 1.0})) == 1.0  # the empty word is the unit


class TestUniversalD:
    def test_leibniz_count(self):
        # d of an n-letter word yields n marked splittings
        act = std_mobius_action()
        rng = np.random.default_rng(8)
        x = WordCrossedForm.from_crossed(rand_crossed(rng, act, ["a"]), cap=5)
        x3 = x.mul(x).mul(x)
        dx = universal_d(x3)
        assert len(dx.sorted_keys()) == 3

    def test_vanishes_on_scalars(self):
        act = std_mobius_action()
        one = WordCrossedForm.unit(act, 2, 3)
        assert not universal_d(one).terms
