"""Index pairings for both parities and the anomaly cross-checks."""

import numpy as np
import pytest

from loctrace import fields as F
from loctrace import groupoid as G
from loctrace.algebra import CrossedForm, WordCrossedForm, fc_field
from loctrace.cocycles import PlateauError, phi_trace_words
from loctrace.pairing import (
    anomaly_delta0,
    anomaly_delta1,
    pair_even,
    pair_odd,
)
from loctrace.quadrature import NonConvergenceError
from loctrace.tensoralg import (
    CertificateError,
    WordValues,
    nat_key,
    tau0,
    universal_d,
)

from conftest import (
    bott_projector,
    kappa_action,
    kappa_one_form,
    odd_blocks,
    odd_scenario,
    rand_coeff,
    rand_crossed,
    std_mobius_action,
)


class TestPairEven:
    def test_bott_value(self):
        act, e = bott_projector()
        res = pair_even(e, cap=2, tol=1e-7, max_depth=12)
        assert abs(res.collapsed - (-1.0)) < 1e-8
        assert isinstance(res.truncated, WordValues)
        assert res.breakdown["est_error"] < 1e-5
        assert res.breakdown["dropped"] >= 0

    def test_constant_projector_pairs_to_zero(self):
        act = G.trivial_action(F.Disk(0.0, 2.0))
        e = CrossedForm(act, 2, scalar=np.array([[1.0, 0.0], [0.0, 0.0]]))
        res = pair_even(e, cap=2, tol=1e-7)
        assert res.collapsed == 0.0

    def test_breakdown_words_recombine(self):
        act, e = bott_projector()
        res = pair_even(e, cap=2, tol=1e-7, max_depth=12)
        phi = res.breakdown["phi_part"]
        intg = res.breakdown["integral_part"]
        total = 0j
        for w, m in res.truncated.terms.items():
            total += complex(m[0][0]) if not hasattr(m, "shape") else complex(m[0, 0])
        # collapsed_truncated sums exactly the word table
        assert abs(res.collapsed_truncated - total) < 1e-12
        assert set(phi) <= set(res.truncated.terms) | set(intg)

    def test_collapsed_truncated_is_tau0_of_table(self):
        # the truncated diagnostic must be exactly the trace collapse of
        # the returned word table
        act, e = bott_projector()
        res = pair_even(e, cap=2, tol=1e-7, max_depth=12)
        assert abs(res.collapsed_truncated - tau0(res.truncated)) < 1e-14


class TestPairOdd:
    def test_unit_pairs_to_zero_exactly(self):
        act, u, psi = odd_scenario(t=0.0)
        res = pair_odd(u, cap=3, certificate={"kind": "nilpotent"}, psi=psi, tol=1e-7)
        assert res.collapsed == 0.0

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_homotopy_constancy(self, t):
        act, u, psi = odd_scenario(t=t)
        res = pair_odd(u, cap=3, certificate={"kind": "nilpotent"}, psi=psi, tol=1e-7)
        assert abs(res.collapsed) < 1e-6

    def test_block_additivity_exact(self):
        # diag(u1, u2) pairs to the sum of the diagonal pairings
        u1, u2, ublock, psi = odd_blocks(3)
        kw = dict(cap=3, certificate={"kind": "nilpotent"}, psi=psi, tol=1e-7)
        a = pair_odd(u1, **kw)
        b = pair_odd(u2, **kw)
        c = pair_odd(ublock, **kw)
        assert abs(c.collapsed - (a.collapsed + b.collapsed)) < 1e-12
        # and wordwise: every word table entry adds blockwise
        for key in set(a.truncated.terms) | set(b.truncated.terms):
            va = a.truncated.terms.get(key)
            vb = b.truncated.terms.get(key)
            vc = c.truncated.terms.get(key)
            sa = 0j if va is None else complex(np.trace(np.atleast_2d(va)))
            sb = 0j if vb is None else complex(np.trace(np.atleast_2d(vb)))
            sc = 0j if vc is None else complex(np.trace(np.atleast_2d(vc)))
            assert abs(sc - (sa + sb)) < 1e-12

    def test_certificate_required(self):
        act, u, psi = odd_scenario()
        with pytest.raises(Exception):
            pair_odd(u, cap=3, certificate=None, psi=psi)

    def test_wrong_certificate_rejected(self):
        act = std_mobius_action()
        rng = np.random.default_rng(4)
        f = rand_coeff(rng)
        u = CrossedForm.unit(act, 1).add(
            CrossedForm.single(act, act.by_name("a"), [[fc_field(f)]])
        )
        with pytest.raises(CertificateError):
            pair_odd(u, cap=3, certificate={"kind": "nilpotent"})

    def test_result_is_one_form_table(self):
        act, u, psi = odd_scenario()
        res = pair_odd(u, cap=3, certificate={"kind": "nilpotent"}, psi=psi, tol=1e-7)
        assert isinstance(res.truncated, WordValues)
        # keyed by marked words: (left word, marked label)
        assert all(isinstance(b, G.GroupLabel) for _, b in res.truncated.terms)
        assert res.breakdown["dropped"] >= 0


class TestAnomalyDelta0:
    def test_cross_path_is_exact(self):
        act, om = kappa_one_form(5)
        d0 = anomaly_delta0(om, region=act.domain)
        ref = {}
        for key, v in phi_trace_words(om, act.domain).items():
            nk = nat_key(key)
            ref[nk] = ref.get(nk, 0j) + v
        keys = set(d0.terms) | set(ref)
        assert keys  # scenario is not vacuous
        worst = 0.0
        nonzero = 0
        for nk in keys:
            got = complex(d0.terms[nk][0][0]) if nk in d0.terms else 0j
            want = ref.get(nk, 0j)
            if abs(want) > 1e-12:
                nonzero += 1
            worst = max(worst, abs(got - want))
        assert nonzero > 0
        assert worst == 0.0

    def test_accumulates_rotated_splits(self):
        # two marked splittings of one cyclic word share a key and must add
        act = kappa_action()
        c = act.by_name("c")
        rng = np.random.default_rng(6)
        f = rand_coeff(rng)
        w = WordCrossedForm(act, 1, cap=4, terms={(c, c): [[fc_field(f)]]})
        om = universal_d(w)
        assert len(om.sorted_keys()) == 2
        assert len({nat_key(k) for k in om.sorted_keys()}) == 1
        d0 = anomaly_delta0(om, region=act.domain)
        assert len(d0.terms) <= 1

    def test_plateau_error_when_not_flat(self):
        # the cutoff's transition annulus crosses the fixed point 0 of c c
        act = kappa_action()
        c = act.by_name("c")
        bad = F.bumped(F.fone(), 0.05, 0.01, 0.1)
        w = WordCrossedForm(act, 1, cap=4, terms={(c, c): [[fc_field(bad)]]})
        with pytest.raises(PlateauError):
            anomaly_delta0(universal_d(w), region=act.domain)


def free_affine_anomaly_pair():
    # the routes only fire on word pairs whose total label is the unit,
    # and the connection factor reads the (0, 1) component of A
    from loctrace.algebra import FormCoefficient

    act = G.FreeGeneratorsAction(
        [("s", G.AffineMap(2.0, 0.0))], F.Disk(0.0, 1.0)
    )
    s = act.generator("s")
    si = act.inverse(s)
    rng = np.random.default_rng(7)
    cap = 3
    A = WordCrossedForm.from_crossed(
        CrossedForm.single(
            act, s, [[FormCoefficient({(0, 1): rand_coeff(rng)})]]
        ),
        cap,
    )
    om = universal_d(
        WordCrossedForm.from_crossed(
            CrossedForm.single(act, si, [[fc_field(rand_coeff(rng))]]), cap
        )
    )
    return A, om


class TestAnomalyDelta1:
    def test_dual_route_free_affine(self):
        A, om = free_affine_anomaly_pair()
        res = anomaly_delta1(A, om, tol=1e-7, max_depth=12)
        mags = [abs(complex(m[0][0])) for m in res.explicit.terms.values()]
        assert mags and max(mags) > 1e-10  # both routes see real content
        assert res.defect <= 2e-7

    def test_blocks_are_all_taped(self, batches_never_interpreted):
        A, om = free_affine_anomaly_pair()
        assert anomaly_delta1(A, om, tol=1e-7, max_depth=12).defect <= 2e-7

    def test_nonconvergence_raises(self):
        A, om = free_affine_anomaly_pair()
        # the explicit route integrates first, through the anomaly quadrature
        with pytest.raises(NonConvergenceError, match="anomaly integral"):
            anomaly_delta1(A, om, tol=1e-12, max_depth=1)

    def test_explicit_route_keeps_the_cap(self):
        # one letter of A joined with a two-letter word of omega makes three:
        # past cap 2 the capped product drops every such pair, and the
        # explicit route must drop them too, not report them as a defect
        act = kappa_action()
        for cap, words, dropped in ((2, 0, 8), (3, 3, 0)):
            rng = np.random.default_rng(5)
            x = rand_crossed(rng, act, ("c",), degrees=((0, 1),))
            A = WordCrossedForm.from_crossed(x, cap)
            W = WordCrossedForm.from_crossed(rand_crossed(rng, act, ("c", "v")), cap)
            res = anomaly_delta1(A, universal_d(W.mul(W)), tol=1e-6, max_depth=12)
            assert len(res.explicit.terms) == len(res.intrinsic.terms) == words
            assert res.explicit.dropped == dropped
            assert res.defect <= 2e-6

    def test_dual_route_mobius(self):
        from loctrace.algebra import FormCoefficient

        act = kappa_action()
        c, v = act.by_name("c"), act.by_name("v")
        rng = np.random.default_rng(8)
        cap = 3
        A = WordCrossedForm.from_crossed(
            CrossedForm.single(
                act, c, [[FormCoefficient({(0, 1): rand_coeff(rng)})]]
            ),
            cap,
        )
        # two-letter word (c, v): joined with the left letter c this closes
        # up to the identity germ
        per_word = WordCrossedForm(
            act, 1, cap, terms={(c, v): [[fc_field(rand_coeff(rng))]]}
        )
        om = universal_d(per_word)
        res = anomaly_delta1(A, om, tol=1e-7, max_depth=12)
        mags = [abs(complex(m[0][0])) for m in res.explicit.terms.values()]
        assert mags and max(mags) > 1e-10
        assert res.defect <= 2e-7
