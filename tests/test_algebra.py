"""Crossed products, form coefficients, differentials, and word elements."""

import cmath

import numpy as np
import pytest

from loctrace import fields as F
from loctrace import groupoid as G
from loctrace.algebra import (
    CrossedForm,
    DWord,
    FormCoefficient,
    WordCrossedForm,
    diff_D,
    diff_d,
    diff_delta,
    diff_nabla,
    diff_partial,
    diff_partial_bar,
    fc_field,
    word_length,
    word_letters,
    word_mu,
)
from loctrace.tensoralg import crossed_max_abs, universal_d

from conftest import (
    grid_points,
    kappa_action,
    rand_coeff,
    rand_crossed,
    single0,
    std_mobius_action,
)


class TestConvolution:
    def test_product_label_and_coefficient(self):
        act = std_mobius_action()
        a, b = act.by_name("a"), act.by_name("b")
        rng = np.random.default_rng(0)
        f1, f2 = rand_coeff(rng), rand_coeff(rng)
        x = single0(act, a, f1)
        y = single0(act, b, f2)
        prod = x.mul(y)
        keys = [k for k, m in prod.terms.items() if not all(c.is_zero() for r in m for c in r)]
        assert keys == [act.compose(b, a)]
        ga = a.cmap
        for z in grid_points(rng, 8, 0.2):
            z = complex(z)
            got = prod.sample_value(keys[0], z)[0, 0]
            want = F.eval_field(f1, z) * F.eval_field(f2, ga.apply(z))
            assert abs(got - want) < 1e-12

    def test_matrix_entries_convolve_like_matmul(self):
        act = std_mobius_action()
        a, b = act.by_name("a"), act.by_name("b")
        rng = np.random.default_rng(1)
        fm = [[rand_coeff(rng) for _ in range(2)] for _ in range(2)]
        hm = [[rand_coeff(rng) for _ in range(2)] for _ in range(2)]
        x = CrossedForm.single(act, a, [[fc_field(f) for f in row] for row in fm])
        y = CrossedForm.single(act, b, [[fc_field(h) for h in row] for row in hm])
        prod = x.mul(y)
        lab = act.compose(b, a)
        ga = a.cmap
        z = 0.12 - 0.07j
        fv = np.array([[F.eval_field(f, z) for f in row] for row in fm])
        hv = np.array([[F.eval_field(h, ga.apply(z)) for h in row] for row in hm])
        got = prod.sample_value(lab, z)
        assert np.allclose(got, fv @ hv, atol=1e-12)

    def test_unit_is_neutral(self):
        act = std_mobius_action()
        rng = np.random.default_rng(2)
        x = rand_crossed(rng, act, ["a", "b", "1"], size=2)
        e = CrossedForm.unit(act, 2)
        for z in (0.1, 0.2j, -0.15 + 0.1j):
            lab = act.by_name("a")
            assert np.allclose(
                e.mul(x).sample_value(lab, z), x.sample_value(lab, z), atol=1e-13
            )
            assert np.allclose(
                x.mul(e).sample_value(lab, z), x.sample_value(lab, z), atol=1e-13
            )

    def test_scalar_block_distributes(self):
        # (s + x)(t + y) = st + s y + x t + x y with constant scalar parts
        act = std_mobius_action()
        rng = np.random.default_rng(3)
        s = np.array([[0.5, 0.0], [1j, 1.0]])
        t = np.array([[1.0, 0.25], [0.0, -0.5]])
        x = rand_crossed(rng, act, ["a"], size=2)
        y = rand_crossed(rng, act, ["b"], size=2)
        xs = x.add(CrossedForm(act, 2, scalar=s))
        yt = y.add(CrossedForm(act, 2, scalar=t))
        prod = xs.mul(yt)
        want = (
            x.mul(y)
            .add(x.mul(CrossedForm(act, 2, scalar=t)))
            .add(CrossedForm(act, 2, scalar=s).mul(y))
            .add(CrossedForm(act, 2, scalar=s @ t))
        )
        assert crossed_max_abs(prod.sub(want)) < 1e-12

    def test_associativity_pointwise(self):
        act = std_mobius_action()
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rand_crossed(rng, act, ["a"], size=2)
            y = rand_crossed(rng, act, ["b"], size=2)
            w = rand_crossed(rng, act, ["a", "1"], size=2)
            lhs = x.mul(y).mul(w)
            rhs = x.mul(y.mul(w))
            assert crossed_max_abs(lhs.sub(rhs)) < 1e-11


class TestFormCoefficient:
    def test_wedge_degree_addition_and_sign(self):
        f, g = F.fz(), F.fconst(2.0)
        a = FormCoefficient({(1, 0): f})
        b = FormCoefficient({(0, 1): g})
        ab = a.wedge(b)
        ba = b.wedge(a)
        z = 0.3 - 0.2j
        va = F.eval_field(ab.get(1, 1), z)
        vb = F.eval_field(ba.get(1, 1), z)
        assert abs(va - z * 2.0) < 1e-13
        assert abs(va + vb) < 1e-13  # one-forms anticommute

    def test_wedge_kills_repeated_dz(self):
        a = FormCoefficient({(1, 0): F.fconst(1.0)})
        b = FormCoefficient({(1, 0): F.fz()})
        assert a.wedge(b).is_zero()
        c = FormCoefficient({(0, 1): F.fconst(1.0)})
        assert c.wedge(c).is_zero()

    def test_mixed_degree_wedge_collects_terms(self):
        a = FormCoefficient({(0, 0): F.fconst(2.0), (1, 0): F.fconst(1.0)})
        b = FormCoefficient({(0, 1): F.fconst(3.0)})
        w = a.wedge(b)
        z = 0.1
        assert abs(F.eval_field(w.get(0, 1), z) - 6.0) < 1e-13
        assert abs(F.eval_field(w.get(1, 1), z) - 3.0) < 1e-13

    def test_pullback_transforms_by_jacobian_powers(self):
        g = G.AffineMap(2.0 - 1.0j, 0.1)
        f = F.fadd(F.fz(), F.fconst(0.5))
        a = FormCoefficient({(1, 0): f, (0, 1): f, (0, 0): f})
        pb = a.pullback(g)
        z = 0.2 + 0.1j
        w = g.apply(z)
        fw = w + 0.5
        gp = 2.0 - 1.0j
        assert abs(F.eval_field(pb.get(0, 0), z) - fw) < 1e-13
        assert abs(F.eval_field(pb.get(1, 0), z) - fw * gp) < 1e-13
        assert abs(F.eval_field(pb.get(0, 1), z) - fw * gp.conjugate()) < 1e-13

    def test_zero_and_arith(self):
        assert FormCoefficient.zero().is_zero()
        a = FormCoefficient({(0, 0): F.fconst(1.0)})
        assert a.add(a.scale(-1.0)).is_zero() or F.eval_field(a.add(a.scale(-1.0)).get(0, 0), 0.1) == 0.0
        s = a.scale(3j)
        assert F.eval_field(s.get(0, 0), 0.0) == 3j


def sample_term(x, lab, z, p, q):
    return x.sample_value(lab, z, p, q)[0, 0]


class TestDifferentials:
    def act_elem(self, seed, degrees=((0, 0),), names=("c", "v", "1")):
        act = kappa_action()
        rng = np.random.default_rng(seed)
        return act, rand_crossed(rng, act, list(names), size=1, degrees=degrees)

    def test_partial_evaluates_to_z_derivative(self):
        act, _ = self.act_elem(0)
        c = act.by_name("c")
        f = rand_coeff(np.random.default_rng(10))
        x = single0(act, c, f)
        dx = diff_partial(x)
        df = F.fderiv(f, 1, 0)
        for z in (0.05, 0.1j, -0.07 + 0.03j):
            assert abs(sample_term(dx, c, z, 1, 0) - F.eval_field(df, z)) < 1e-11

    def test_partial_bar_evaluates_to_zbar_derivative(self):
        act, _ = self.act_elem(0)
        c = act.by_name("c")
        f = rand_coeff(np.random.default_rng(11))
        x = single0(act, c, f)
        dx = diff_partial_bar(x)
        df = F.fderiv(f, 0, 1)
        for z in (0.05, 0.1j, -0.07 + 0.03j):
            assert abs(sample_term(dx, c, z, 0, 1) - F.eval_field(df, z)) < 1e-11

    def test_delta_closed_form(self):
        # coefficient at label g picks up g''/g' dz from the left
        act, _ = self.act_elem(0)
        c = act.by_name("c")
        f = rand_coeff(np.random.default_rng(12))
        x = single0(act, c, f)
        dx = diff_delta(x)
        cc = 0.4  # lower-left entry of the generator matrix
        for z in (0.05, 0.1j, -0.07 + 0.03j):
            kap = (-2 * cc) / (cc * z + 1)
            want = kap * F.eval_field(f, z)
            assert abs(sample_term(dx, c, z, 1, 0) - want) < 1e-11

    def test_delta_vanishes_on_unit_label(self):
        act = kappa_action()
        f = rand_coeff(np.random.default_rng(13))
        x = single0(act, act.unit, f)
        assert crossed_max_abs(diff_delta(x)) == 0.0

    def test_D_closed_form_on_affine(self):
        act = G.FreeGeneratorsAction(
            [("s", G.AffineMap(2.0, 0.0))], F.Disk(0.0, 1.0)
        )
        s = act.generator("s")
        f = rand_coeff(np.random.default_rng(14))
        x = single0(act, s, f)
        Dx = diff_D(x)
        z = 0.1 - 0.05j
        want = F.eval_field(f, z) * cmath.log(4.0)  # log|2|^2
        assert abs(sample_term(Dx, s, z, 0, 0) - want) < 1e-12

    @pytest.mark.parametrize("op", [diff_partial, diff_partial_bar, diff_d, diff_delta, diff_nabla])
    def test_squares_vanish(self, op):
        act, x = self.act_elem(20)
        assert crossed_max_abs(op(op(x))) < 1e-9

    def test_partial_anticommute(self):
        act, x = self.act_elem(21)
        lhs = diff_partial(diff_partial_bar(x)).add(diff_partial_bar(diff_partial(x)))
        assert crossed_max_abs(lhs) < 1e-9

    @pytest.mark.parametrize("op,graded", [
        (diff_d, True),
        (diff_delta, True),
        (diff_nabla, True),
        (diff_D, False),
    ])
    def test_leibniz(self, op, graded):
        rng = np.random.default_rng(30)
        act = kappa_action()
        for trial in range(6):
            px = [(0, 0)] if trial % 2 == 0 else [(1, 0)] if trial % 3 == 0 else [(0, 1)]
            x = rand_crossed(rng, act, ["c", "1"], degrees=px)
            y = rand_crossed(rng, act, ["v", "c"], degrees=[(0, 0)])
            degx = sum(px[0])
            sign = (-1) ** degx if graded else 1
            lhs = op(x.mul(y))
            rhs = op(x).mul(y).add(x.mul(op(y)).scale(sign))
            assert crossed_max_abs(lhs.sub(rhs)) < 1e-9, (op.__name__, trial)

    def test_nabla_is_d_minus_half_delta(self):
        act, x = self.act_elem(22)
        want = diff_d(x).add(diff_delta(x).scale(-0.5))
        assert crossed_max_abs(diff_nabla(x).sub(want)) == 0.0


class TestWordModel:
    def test_from_crossed_keys(self):
        act = std_mobius_action()
        rng = np.random.default_rng(40)
        x = rand_crossed(rng, act, ["a", "b"], size=1)
        w = WordCrossedForm.from_crossed(x, cap=4)
        keys = set(w.sorted_keys())
        assert keys == {(act.by_name("a"),), (act.by_name("b"),)}

    def test_word_mu_composes_letters(self):
        act = std_mobius_action()
        a, b = act.by_name("a"), act.by_name("b")
        mu = word_mu(act, (a, b))
        # slaved label follows the same order as label composition
        assert mu == act.compose(b, a)
        z = 0.05 + 0.02j
        assert abs(mu.cmap.apply(z) - b.cmap.apply(a.cmap.apply(z))) < 1e-12

    def test_mul_concatenates_and_slaves_coefficients(self):
        act = std_mobius_action()
        a, b = act.by_name("a"), act.by_name("b")
        rng = np.random.default_rng(41)
        f1, f2 = rand_coeff(rng), rand_coeff(rng)
        x = WordCrossedForm.from_crossed(single0(act, a, f1), cap=4)
        y = WordCrossedForm.from_crossed(single0(act, b, f2), cap=4)
        prod = x.mul(y)
        assert prod.sorted_keys() == [(a, b)]
        ga = a.cmap
        z = 0.03 - 0.04j
        got = prod.sample_value((a, b), z)[0, 0]
        assert abs(got - F.eval_field(f1, z) * F.eval_field(f2, ga.apply(z))) < 1e-12

    def test_mu_image_is_multiplicative(self):
        act = std_mobius_action()
        rng = np.random.default_rng(42)
        x = rand_crossed(rng, act, ["a", "1"], size=1)
        y = rand_crossed(rng, act, ["b", "a"], size=1)
        wx = WordCrossedForm.from_crossed(x, cap=6)
        wy = WordCrossedForm.from_crossed(y, cap=6)
        lhs = wx.mul(wy).mu_image()
        rhs = x.mul(y)
        assert crossed_max_abs(lhs.sub(rhs)) < 1e-11

    def test_cap_drops_and_counts(self):
        act = std_mobius_action()
        rng = np.random.default_rng(43)
        x = rand_crossed(rng, act, ["a"], size=1)
        w = WordCrossedForm.from_crossed(x, cap=2)
        p2 = w.mul(w)
        assert p2.dropped == 0
        p3 = p2.mul(w)  # length 3 exceeds the cap
        assert p3.dropped >= 1
        assert p3.sorted_keys() == []

    def test_word_helpers(self):
        act = std_mobius_action()
        a, b = act.by_name("a"), act.by_name("b")
        dk = DWord((a,), b, (a, a))
        assert word_length(dk) == 4
        assert word_letters(dk) == (a, b, a, a)
        assert word_length((a, b)) == 2

    def test_universal_d_splits_every_letter(self):
        act = std_mobius_action()
        a, b = act.by_name("a"), act.by_name("b")
        rng = np.random.default_rng(45)
        f = rand_coeff(rng)
        x = WordCrossedForm(act, 1, cap=5, terms={(a, b, a): [[fc_field(f)]]})
        dx = universal_d(x)
        keys = set(dx.sorted_keys())
        assert keys == {
            DWord((), a, (b, a)),
            DWord((a,), b, (a,)),
            DWord((a, b), a, ()),
        }
