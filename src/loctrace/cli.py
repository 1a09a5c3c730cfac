"""Scenario-driven command-line front end.

Every subcommand reads one JSON scenario (see :mod:`loctrace.config`), runs
the corresponding computation, and emits a JSON report: schema-versioned,
complex values as ``{"re": .., "im": ..}``, per-fixed-point breakdowns where
they exist, and a ``checks`` table whose conjunction decides the exit status.
Reports are deterministic for a fixed scenario and seed; wall-clock numbers
live only under the ``timings`` key so byte comparison can strip them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import cocycles as C
from . import config as CF
from . import dist as DK
from . import fields as F
from . import groupoid as G
from . import pairing as P
from . import quadrature as Q
from . import scenarios as S
from . import tensoralg as T
from .algebra import CrossedForm, WordCrossedForm, fc_field
from .algebra import diff_d, diff_delta, diff_nabla, diff_partial_bar

__all__ = ["main", "run"]

COMMANDS = (
    "automorphisms",
    "trace",
    "todd",
    "pair-even",
    "pair-odd",
    "anomaly",
    "dist-check",
    "verify",
)


def _cj(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _word_names(key):
    return [lab.name for lab in key]


def _nat_order(nk):
    return (len(nk[0]), _word_names(nk[0]), nk[1].name)


def _check(name, defect, tol):
    return {
        "name": name,
        "defect": float(defect),
        "tol": float(tol),
        "pass": bool(float(defect) <= float(tol)),
    }


def _digest(raw, command, seed):
    blob = json.dumps(
        {"scenario": raw, "command": command, "seed": seed},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def _expect_check(name, value, spec, default_tol=1e-9):
    want = CF.parse_complex(spec["value"], f"expect.{name}")
    tol = float(spec.get("tol", default_tol))
    return _check(name, abs(complex(value) - want), tol)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_automorphisms(scn, section, args):
    region = CF.parse_region(section.get("region"), "automorphisms.region")
    region = region or scn.action.domain
    names = section.get("labels")
    if names is None:
        gspec = scn.raw["group"]
        kind = gspec.get("kind")
        if kind in ("mobius", "free"):
            names = sorted(gspec.get("generators", {}))
        elif kind == "cyclic":
            names = ["r1"]
        else:
            names = []
    out = []
    for name in names:
        lab = CF.resolve_label(scn.action, name, f"automorphisms.labels.{name}")
        pts = []
        for z0 in G.fixed_points(lab.cmap, region):
            aut = G.automorphism_order(
                lab.cmap, z0, jet_order=scn.jet_order, label=lab
            )
            mult = complex(aut.d_jet.coeff(1)) + 1.0
            pts.append(
                {"z0": _cj(z0), "order": aut.order, "multiplier": _cj(mult)}
            )
        out.append({"label": name, "fixed_points": pts})
    return {"automorphisms": out}, []


def _serialize_breakdown(breakdown):
    return [
        {"label": tag, "z0": _cj(z0), "order": order, "value": _cj(v)}
        for tag, z0, order, v in breakdown
    ]


def _cmd_trace(scn, section, args):
    x = scn.element(section["element"], "trace.element")
    region = CF.parse_region(section.get("region"), "trace.region")
    pad = CF.require_int(section.get("pad", 0), "trace.pad", 0)
    got = C.phi_trace(x, region or scn.action.domain, scn.jet_order, pad=pad)
    payload = {
        "value": _cj(got.value),
        "est_error": got.est_error,
        "breakdown": _serialize_breakdown(got.breakdown),
    }
    checks = []
    if "expect" in section:
        checks.append(_expect_check("trace-value", got.value, section["expect"]))
    return payload, checks


def _cmd_todd(scn, section, args):
    a0, a1, a2 = (scn.element(n, "todd.args") for n in section["args"])
    kw = dict(tol=scn.tol, max_depth=scn.depth)
    defect, direct, fc, c1 = C.todd_dual_defect(a0, a1, a2, **kw)
    payload = {
        "todd": _cj(direct.value),
        "fundamental": _cj(fc.value),
        "chern1": _cj(c1.value),
        "est_error": direct.est_error + fc.est_error + 0.5 * c1.est_error,
    }
    checks = [_check("todd-dual-path", defect, 2.0 * scn.tol)]
    if "expect" in section:
        checks.append(_expect_check("todd-value", direct.value, section["expect"]))
    return payload, checks


def _kt_entry(scn, name, kind, path):
    if name not in scn.ktheory:
        raise CF.ConfigError(f"{path}: ktheory entry {name!r} is not declared")
    entry = scn.ktheory[name]
    if entry["kind"] != kind:
        raise CF.ConfigError(f"{path}: {name!r} is not {kind}")
    return entry


def _cmd_pair_even(scn, section, args):
    entry = _kt_entry(scn, section["idempotent"], "idempotent", "pair_even.idempotent")
    res = P.pair_even(
        entry["element"],
        scn.truncation,
        tol=scn.tol,
        max_depth=scn.depth,
    )
    words = [
        {
            "word": _word_names(w),
            "value": _cj(m[0][0]),
            "phi": _cj(res.breakdown["phi_part"].get(w, 0j)),
            "integral": _cj(res.breakdown["integral_part"].get(w, 0j)),
        }
        for w, m in sorted(
            res.truncated.terms.items(), key=lambda kv: (len(kv[0]), _word_names(kv[0]))
        )
    ]
    payload = {
        "words": words,
        "collapsed": _cj(res.collapsed),
        "collapsed_truncated": _cj(res.collapsed_truncated),
        "est_error": res.breakdown["est_error"],
        "dropped_words": res.breakdown["dropped"],
    }
    checks = []
    if "expect" in section:
        checks.append(
            _expect_check(
                "pair-even-collapsed", res.collapsed, section["expect"], 1e-4
            )
        )
    return payload, checks


def _cmd_pair_odd(scn, section, args):
    entry = _kt_entry(scn, section["invertible"], "invertible", "pair_odd.invertible")
    psi = None
    if "expect" in section and "collapse" not in section:
        raise CF.ConfigError("pair_odd.expect: an expectation needs a collapse functional")
    if "collapse" in section:
        cname = section["collapse"]
        if cname not in scn.collapse:
            raise CF.ConfigError(f"pair_odd.collapse: {cname!r} is not declared")
        psi = scn.collapse[cname]
    res = P.pair_odd(
        entry["element"],
        scn.truncation,
        entry["certificate"],
        psi=psi,
        tol=scn.tol,
        max_depth=scn.depth,
    )
    terms = res.truncated.terms
    words = [
        {"word": _word_names(nk[0]), "dletter": nk[1].name, "value": _cj(terms[nk][0][0])}
        for nk in sorted(terms, key=_nat_order)
    ]
    payload = {
        "words": words,
        "collapsed": None if res.collapsed is None else _cj(res.collapsed),
        "est_error": res.breakdown["est_error"],
        "dropped_words": res.breakdown["dropped"],
    }
    checks = []
    if "expect" in section:
        checks.append(
            _expect_check("pair-odd-collapsed", res.collapsed, section["expect"], 1e-6)
        )
    return payload, checks


def _delta0_cross_path(om, region, jet_order):
    """delta0 of the anomaly per natural key, and its largest gap to the
    wordwise fixed-point trace summed per natural key."""
    d0 = P.anomaly_delta0(om, region=region, jet_order=jet_order)
    ref = {}
    for key, v in C.phi_trace_words(om, region, jet_order).items():
        nk = T.nat_key(key)
        ref[nk] = ref.get(nk, 0j) + v
    got, cross = {}, 0.0
    for nk in set(d0.terms) | set(ref):
        got[nk] = complex(d0.terms[nk][0][0]) if nk in d0.terms else 0j
        cross = max(cross, abs(got[nk] - ref.get(nk, 0j)))
    return got, cross


def _cmd_anomaly(scn, section, args):
    a_el = scn.element(section["a"], "anomaly.a")
    om_el = scn.element(section["omega"], "anomaly.omega")
    cap = scn.truncation
    A = WordCrossedForm.from_crossed(a_el, cap)
    om = T.universal_d(WordCrossedForm.from_crossed(om_el, cap))

    d0, cross = _delta0_cross_path(om, scn.action.domain, scn.jet_order)
    d0_words = [
        {"word": _word_names(nk[0]), "dletter": nk[1].name, "value": _cj(d0[nk])}
        for nk in sorted(d0, key=_nat_order)
    ]

    r1 = P.anomaly_delta1(A, om, tol=scn.tol, max_depth=scn.depth)
    d1_words = [
        {
            "word": _word_names(nk[0]),
            "dletter": nk[1].name,
            "explicit": _cj(complex(r1.explicit.terms.get(nk, np.zeros((1, 1)))[0][0])),
            "intrinsic": _cj(complex(r1.intrinsic.terms.get(nk, np.zeros((1, 1)))[0][0])),
        }
        for nk in sorted(
            set(r1.explicit.terms) | set(r1.intrinsic.terms), key=_nat_order
        )
    ]
    payload = {"delta0": d0_words, "delta1": d1_words}
    checks = [
        _check("delta0-cross-path", cross, 0.0),
        _check("delta1-dual-path", r1.defect, 2.0 * scn.tol),
    ]
    return payload, checks


_DIST_TOLS = {"dolbeault": 1e-5, "covariance": 1e-5, "shift": 1e-8, "pair": 1e-6}


def _shift_defect(n, z0, c, phi, **qkw):
    """Defect of the shift identity: moving the order-n kernel at z0 by c
    moves its pairing with phi by c phi(z0)."""
    base = DK.pair_kernel(DK.RenormKernel(n, z0), phi, **qkw)
    moved = DK.pair_kernel(DK.RenormKernel(n, z0, shift=c), phi, **qkw)
    return abs(moved - base - c * complex(F.eval_field(phi, z0)))


def _cmd_dist_check(scn, section, args):
    table = []
    checks = []
    for i, spec in enumerate(section):
        kind = spec.get("check")
        path = f"dist[{i}]"
        name = spec.get("name", f"{kind}[{i}]")
        phi = CF.parse_field(spec["phi"], path + ".phi")
        if kind not in _DIST_TOLS:
            raise CF.ConfigError(f"{path}: unknown check kind {kind!r}")
        tol = float(spec.get("tol", _DIST_TOLS[kind]))
        z0 = CF.parse_complex(spec["z0"], path + ".z0")
        qkw = dict(tol=scn.tol, max_depth=scn.depth)
        if kind == "dolbeault":
            lhs, rhs, defect = DK.check_dolbeault(z0, phi, **qkw)
            row = {"check": name, "lhs": _cj(lhs), "rhs": _cj(rhs), "defect": defect}
        elif kind == "covariance":
            h = CF.parse_map(spec["map"], path + ".map")
            defect = DK.check_covariance(int(spec["n"]), h, z0, phi, **qkw)
            row = {"check": name, "n": int(spec["n"]), "defect": defect}
        elif kind == "shift":
            c = CF.parse_complex(spec["c"], path + ".c")
            defect = _shift_defect(int(spec.get("n", 2)), z0, c, phi, **qkw)
            row = {"check": name, "defect": defect}
        else:  # pair: a check only against an expected value
            got = DK.pair_kernel(DK.RenormKernel(int(spec.get("n", 1)), z0), phi, **qkw)
            row = {"check": name, "value": _cj(got)}
            if "expect" in spec:
                row["defect"] = abs(got - CF.parse_complex(spec["expect"], path + ".expect"))
        table.append(row)
        if "defect" in row:
            checks.append(_check(name, row["defect"], tol))
    return {"identities": table}, checks


# ---------------------------------------------------------------------------
# the seeded verification battery


def _verify_checks(rng, tol, depth, cap):
    checks = []
    act = S.std_mobius_action()

    # localized trace of a dilation against a plateau cutoff
    f = F.bump_field(0.0, 0.25, 0.45)
    x = CrossedForm.single(act, act.by_name("a"), [[fc_field(f)]])
    got = C.phi_trace(x)
    checks.append(_check("lefschetz-dilation", abs(got.value + 1.0), 1e-9))

    # padding the extraction order must not move the value
    pad1 = C.phi_trace(x, pad=1).value
    pad2 = C.phi_trace(x, pad=2).value
    checks.append(
        _check("padding-invariance", max(abs(pad1 - got.value), abs(pad2 - got.value)), 1e-10)
    )

    # squares of the differentials vanish termwise
    y = S.rand_crossed(rng, act, ("a", "b"), degrees=((0, 0), (1, 0), (0, 1)))
    sq = max(
        T.crossed_max_abs(diff_d(diff_d(y))),
        T.crossed_max_abs(diff_partial_bar(diff_partial_bar(y))),
        T.crossed_max_abs(diff_delta(diff_delta(y))),
        T.crossed_max_abs(diff_nabla(diff_nabla(y))),
    )
    checks.append(_check("differential-squares", sq, 1e-9))

    # graded Leibniz on a pure even/odd pair
    x0 = S.rand_crossed(rng, act, ("a", "b"))
    y1 = S.rand_crossed(rng, act, ("a", "b"), degrees=((1, 0),))
    lb = max(
        T.crossed_max_abs(
            diff_d(x0.mul(y1)).sub(diff_d(x0).mul(y1)).sub(x0.mul(diff_d(y1)))
        ),
        T.crossed_max_abs(
            diff_delta(x0.mul(y1))
            .sub(diff_delta(x0).mul(y1))
            .sub(x0.mul(diff_delta(y1)))
        ),
    )
    checks.append(_check("leibniz-graded", lb, 1e-9))

    # the localized trace is a trace
    worst = 0.0
    for _ in range(3):
        p = S.rand_crossed(rng, act, ("a", "b"))
        q = S.rand_crossed(rng, act, ("a", "b"))
        worst = max(
            worst, abs(C.phi_trace(p.mul(q)).value - C.phi_trace(q.mul(p)).value)
        )
    checks.append(_check("trace-commutator", worst, 1e-9))

    # conjugating the chart moves nothing
    h = G.AffineMap(1.0 + 0.3j, 0.05)
    _, xt = C.transport_coordinates(x, h)
    checks.append(
        _check("transport-invariance", abs(C.phi_trace(xt).value - got.value), 1e-9)
    )

    # cocycle identities over the unit space
    triv = G.trivial_action(F.Disk(0.0, 0.6))
    a0, a1, a2, a3 = (S.rand_crossed(rng, triv, ("unit",)) for _ in range(4))
    kw = dict(tol=tol, max_depth=depth)

    # the dual-path identity needs curvature: parabolic germs whose product
    # is the identity, so the connection term survives on the unit words
    kact = S.kappa_action()
    b0, b1, b2 = (S.rand_crossed(rng, kact, (nm,)) for nm in ("c", "c", "v"))
    defect, _, _, _ = C.todd_dual_defect(b0, b1, b2, **kw)
    checks.append(_check("todd-dual-path", defect, 2.0 * max(tol, 1e-6)))

    def fc_fn(*xs):
        return C.fundamental_class(*xs, **kw)

    checks.append(
        _check("fundamental-hochschild", abs(C.hochschild_b(fc_fn, [a0, a1, a2, a3])), 4e-6)
    )
    checks.append(
        _check("fundamental-cyclic", abs(C.cyclic_defect(fc_fn, [a0, a1, a2])), 4e-6)
    )

    # liftings: nilpotent and certified-inverse routes, exact modulo the cap
    free = G.FreeGeneratorsAction({"s": G.AffineMap(2.0, 0.0)}, F.WholePlane())
    s = free.generator("s")
    fn = F.bumped(F.fconst(0.8 + 0.1j), 0.3, 0.02, 0.04)
    un = CrossedForm(free, 1, {s: [[fc_field(fn)]]}, [[1.0]])
    vn = CrossedForm(free, 1, {s: [[fc_field(F.fneg(fn))]]}, [[1.0]])
    one = WordCrossedForm.unit(free, 1, cap)
    for name, cert in (("lift-nilpotent", {"kind": "nilpotent"}),
                       ("lift-inverse-certified", {"kind": "inverse", "value": vn})):
        u_hat, u_inv = T.lift_invertible(un, cap, cert)
        resid = max(
            T.crossed_max_abs(u_hat.mul(u_inv).sub(one)),
            T.crossed_max_abs(u_inv.mul(u_hat).sub(one)),
        )
        checks.append(_check(name, resid, 1e-12))

    _, be = S.bott_projector()
    e_til = T.lift_idempotent(be, cap)
    checks.append(
        _check("lift-idempotent", T.crossed_max_abs(e_til.mul(e_til).sub(e_til)), 1e-10)
    )

    res = P.pair_even(be, 2, tol=max(tol, 1e-6), max_depth=depth)
    checks.append(_check("bott-collapsed", abs(res.collapsed + 1.0), 1e-4))

    # distributional identities
    phi = S.rand_coeff(rng, 0.0, 0.3, 0.5)
    z0 = complex(*(0.1 * rng.normal(size=2)))
    _, _, dd = DK.check_dolbeault(z0, phi, tol=tol, max_depth=depth)
    checks.append(_check("kernel-dolbeault", dd, 1e-5))
    cv = DK.check_covariance(
        2, G.AffineMap(2.0, 0.0), 0.0, phi, tol=tol, max_depth=depth
    )
    checks.append(_check("kernel-covariance", cv, 1e-5))
    c = complex(*rng.normal(size=2))
    checks.append(_check("kernel-shift", _shift_defect(2, z0, c, phi, tol=tol), 1e-12))

    # anomaly components on a small marked element
    rngc = np.random.default_rng(rng.integers(0, 2**32))
    omega_el = S.rand_crossed(rngc, act, ("a", "b"))
    a_el = S.rand_crossed(rngc, act, ("a",), degrees=((0, 1),))
    om = T.universal_d(WordCrossedForm.from_crossed(omega_el, 2))
    _, cross = _delta0_cross_path(om, act.domain, G.DEFAULT_JET_ORDER)
    checks.append(_check("delta0-cross-path", cross, 0.0))
    r1 = P.anomaly_delta1(
        WordCrossedForm.from_crossed(a_el, 2), om, tol=tol, max_depth=depth
    )
    checks.append(_check("delta1-dual-path", r1.defect, 2.0 * tol))

    return checks


def _cmd_verify(scn, section, args):
    seed = 0 if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    tol = args.tol if args.tol is not None else (scn.tol if scn else Q.DEFAULT_TOL)
    depth = args.depth if args.depth is not None else (scn.depth if scn else Q.DEFAULT_DEPTH)
    cap = args.trunc if args.trunc is not None else (scn.truncation if scn else 3)
    checks = _verify_checks(rng, tol, depth, cap)
    return {}, checks


# ---------------------------------------------------------------------------
# driver


def build_parser():
    ap = argparse.ArgumentParser(
        prog="loctrace",
        description="localized traces, index pairings and kernel checks "
        "driven by JSON scenarios",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("scenario", nargs="?", help="path to a scenario file")
    ap.add_argument("--tol", type=float, default=None, help="quadrature tolerance")
    ap.add_argument("--depth", type=int, default=None, help="quadrature depth limit")
    ap.add_argument("--trunc", type=int, default=None, help="word-length cap")
    ap.add_argument("--jet-order", type=int, default=None, help="jet length")
    ap.add_argument("--seed", type=int, default=None, help="generator seed")
    ap.add_argument("--out", default=None, help="write the report here")
    return ap


# each command's runner and the scenario section it is handed; the section
# must be there, except that automorphisms has defaults and verify reads none
_RUNNERS = {
    "automorphisms": (_cmd_automorphisms, "automorphisms"),
    "trace": (_cmd_trace, "trace"),
    "todd": (_cmd_todd, "todd"),
    "pair-even": (_cmd_pair_even, "pair_even"),
    "pair-odd": (_cmd_pair_odd, "pair_odd"),
    "anomaly": (_cmd_anomaly, "anomaly"),
    "dist-check": (_cmd_dist_check, "dist"),
    "verify": (_cmd_verify, None),
}


def run(command, scenario_path, args):
    t0 = time.monotonic()
    scn = None
    raw = None
    if scenario_path is not None:
        scn = CF.load_scenario(scenario_path)
        raw = scn.raw
        if args.tol is not None:
            scn.tol = args.tol
        if args.depth is not None:
            scn.depth = args.depth
        if args.trunc is not None:
            scn.truncation = args.trunc
        if args.jet_order is not None:
            scn.jet_order = args.jet_order
        CF.require_int(scn.jet_order, "jet_order", 0)
        CF.require_int(scn.depth, "quadrature.depth", 1)
    elif command != "verify":
        raise CF.ConfigError(f"{command}: a scenario file is required")
    elif args.depth is not None:
        CF.require_int(args.depth, "quadrature.depth", 1)

    runner, key = _RUNNERS[command]
    section = scn.section(key) if key else None
    if not section and key not in (None, "automorphisms"):
        raise CF.ConfigError(f"{key}: missing section")
    payload, checks = runner(scn, section or {}, args)
    report = {
        "schema": 1,
        "command": command,
        "scenario": scn.name if scn else None,
        "digest": _digest(raw, command, args.seed),
        "seed": args.seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "timings": {"total_s": round(time.monotonic() - t0, 3)},
    }
    report.update(payload)
    return report


# a bad scenario, or a computation that cannot give a trustworthy number
_ERRORS = (
    CF.ConfigError,
    Q.NonConvergenceError,
    C.PlateauError,
    F.FieldDomainError,
    F.UnsupportedOrderError,
    G.FixedPointClusterError,
    T.CertificateError,
    P.InternalConsistencyError,
)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report = run(args.command, args.scenario, args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
