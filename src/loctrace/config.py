"""Scenario files for the command-line front end.

A scenario is a single JSON document: a key-tree of strings, numbers and
lists.  Complex numbers are two-element ``[re, im]`` arrays (a bare number is
accepted and read as a real).  Scalar fields are s-expressions in the grammar
of :func:`loctrace.fields.field_from_sexp`; ``(bump cx cy r_pl r_sup map)``
is the cutoff composed with the map's expression.  Every label an element
refers to must be reachable from the declared group.

Top-level keys:

``group``       kind + generators + optional domain region
``truncation``  word-length cap for the lifted algebra (default 4, at least 1)
``jet_order``   jet length of fixed-point extraction (default 16, at least 0;
                order n needs 2n - 1)
``quadrature``  {"tol": .., "depth": ..} (depth at least 1)
``elements``    named crossed elements: scalar part plus (label, matrix) terms
``ktheory``     named lifting problems with certificates
``collapse``    named group 1-cocycles, kind ``"cocycle"`` with generator
                ``weights`` or a label ``table``: ``pair_odd`` collapses its
                marked-word table through one of them
``trace`` / ``todd`` / ``pair_even`` / ``pair_odd`` / ``anomaly`` / ``dist``
                per-command sections, consumed by the CLI
``expect``      optional reference values the CLI turns into pass/fail checks
"""

from __future__ import annotations

import json

from . import fields as F
from . import groupoid as G
from .quadrature import DEFAULT_DEPTH, DEFAULT_TOL
from .algebra import CrossedForm, FormCoefficient
from .tensoralg import GroupCocycle1

__all__ = ["ConfigError", "Scenario", "load_scenario", "parse_scenario"]

DEFAULT_TRUNCATION = 4


class ConfigError(Exception):
    """Scenario parse failure; the message carries the key path."""


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def require_int(v, path, low=None):
    """v itself, if it is an integer, and of at least ``low`` if that is given."""
    if isinstance(v, bool) or not isinstance(v, int) or (low is not None and v < low):
        _fail(path, "expected an integer" + ("" if low is None else f" of at least {low}")
              + f", got {v!r}")
    return v


def parse_complex(v, path="value"):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    _fail(path, f"expected a number or [re, im] pair, got {v!r}")


def parse_region(spec, path="region"):
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "disk":
        return F.Disk(
            parse_complex(spec.get("center", 0.0), path + ".center"),
            float(spec["radius"]),
        )
    if kind == "box":
        return F.Box(
            float(spec["x0"]), float(spec["x1"]), float(spec["y0"]), float(spec["y1"])
        )
    if kind == "plane":
        return F.WholePlane()
    _fail(path, f"unknown region kind {kind!r}")


def parse_map(spec, path="map"):
    kind = spec.get("kind")
    if kind == "affine":
        return G.AffineMap(
            parse_complex(spec["a"], path + ".a"),
            parse_complex(spec.get("b", 0.0), path + ".b"),
        )
    if kind == "mobius":
        rows = spec["matrix"]
        mat = [
            [parse_complex(rows[i][j], f"{path}.matrix[{i}][{j}]") for j in range(2)]
            for i in range(2)
        ]
        return G.MobiusMap(mat)
    if kind == "poly":
        coeffs = [
            parse_complex(c, f"{path}.coeffs[{i}]")
            for i, c in enumerate(spec["coeffs"])
        ]
        return G.PolyMap(coeffs)
    if kind == "identity":
        return G.IdentityMap()
    _fail(path, f"unknown map kind {kind!r}")


def parse_action(spec, path="group"):
    domain = parse_region(spec.get("domain"), path + ".domain")
    kind = spec.get("kind")
    if kind == "trivial":
        return G.trivial_action(domain)
    if kind == "mobius":
        gens = []
        for name, rows in spec.get("generators", {}).items():
            mat = [
                [
                    parse_complex(rows[i][j], f"{path}.generators.{name}[{i}][{j}]")
                    for j in range(2)
                ]
                for i in range(2)
            ]
            gens.append((name, mat))
        return G.MatrixMobiusAction(gens, domain)
    if kind == "cyclic":
        return G.FiniteCyclicAction(
            parse_map(spec["generator"], path + ".generator"),
            int(spec["modulus"]),
            domain,
        )
    if kind == "free":
        gens = {
            name: parse_map(m, f"{path}.generators.{name}")
            for name, m in spec.get("generators", {}).items()
        }
        return G.FreeGeneratorsAction(gens, domain)
    _fail(path, f"unknown group kind {kind!r}")


def resolve_label(action, name, path="label"):
    if name in ("1", "unit"):
        return action.unit
    if isinstance(action, G.FreeGeneratorsAction):
        base, sep, pow_ = name.partition("^")
        if sep:
            return action.generator(base, int(pow_))
        return action.generator(base)
    try:
        return action.by_name(name)
    except Exception:
        _fail(path, f"label {name!r} is not declared by the group")


def parse_field(spec, path="field"):
    if not isinstance(spec, str):
        _fail(path, "fields are s-expression strings")
    try:
        return F.field_from_sexp(spec)
    except Exception as exc:
        _fail(path, f"bad field expression: {exc}")


def parse_form_coefficient(spec, path="entry"):
    """One matrix entry: a field string (degree (0,0)) or a list of
    {"degree": [p, q], "field": sexp} components."""
    if isinstance(spec, str):
        return FormCoefficient({(0, 0): parse_field(spec, path)})
    comps = {}
    for k, comp in enumerate(spec):
        p, q = (int(v) for v in comp["degree"])
        comps[(p, q)] = parse_field(comp["field"], f"{path}[{k}].field")
    return FormCoefficient(comps)


def parse_element(spec, action, path="element"):
    size = int(spec.get("size", 1))
    terms = {}
    for k, term in enumerate(spec.get("terms", [])):
        tp = f"{path}.terms[{k}]"
        lab = resolve_label(action, term["label"], tp + ".label")
        rows = term["matrix"]
        if len(rows) != size or any(len(r) != size for r in rows):
            _fail(tp + ".matrix", f"expected a {size}x{size} matrix")
        mat = [
            [parse_form_coefficient(rows[i][j], f"{tp}.matrix[{i}][{j}]") for j in range(size)]
            for i in range(size)
        ]
        if lab in terms:
            _fail(tp + ".label", f"label {term['label']!r} appears twice")
        terms[lab] = mat
    scalar = None
    if "scalar" in spec:
        rows = spec["scalar"]
        scalar = [
            [parse_complex(rows[i][j], f"{path}.scalar[{i}][{j}]") for j in range(size)]
            for i in range(size)
        ]
    return CrossedForm(action, size, terms, scalar)


class Scenario:
    __slots__ = (
        "raw",
        "name",
        "action",
        "truncation",
        "jet_order",
        "tol",
        "depth",
        "elements",
        "ktheory",
        "collapse",
    )

    def __init__(self, raw, name, action, truncation, jet_order, tol, depth,
                 elements, ktheory, collapse):
        self.raw = raw
        self.name = name
        self.action = action
        self.truncation = truncation
        self.jet_order = jet_order
        self.tol = tol
        self.depth = depth
        self.elements = elements
        self.ktheory = ktheory
        self.collapse = collapse

    def element(self, name, path="element"):
        if name not in self.elements:
            _fail(path, f"element {name!r} is not declared")
        return self.elements[name]

    def section(self, key):
        return self.raw.get(key)


def parse_scenario(raw, name=None):
    if "group" not in raw:
        _fail("group", "missing section")
    action = parse_action(raw["group"])
    quad = raw.get("quadrature", {})
    elements = {}
    for ename, espec in raw.get("elements", {}).items():
        elements[ename] = parse_element(espec, action, f"elements.{ename}")

    ktheory = {}
    for kname, kspec in raw.get("ktheory", {}).items():
        kp = f"ktheory.{kname}"
        kind = kspec.get("kind")
        if kind not in ("idempotent", "invertible"):
            _fail(kp + ".kind", f"expected idempotent or invertible, got {kind!r}")
        ename = kspec["element"]
        if ename not in elements:
            _fail(kp + ".element", f"element {ename!r} is not declared")
        cert = None
        if kind == "invertible":
            cspec = kspec.get("certificate")
            if not cspec:
                _fail(kp, "an invertible needs a certificate")
            ckind = cspec.get("kind")
            if ckind == "nilpotent":
                cert = {"kind": "nilpotent"}
            elif ckind == "inverse":
                vname = cspec["element"]
                if vname not in elements:
                    _fail(kp + ".certificate.element",
                          f"element {vname!r} is not declared")
                cert = {"kind": "inverse", "value": elements[vname]}
            else:
                _fail(kp + ".certificate.kind", f"unknown kind {ckind!r}")
        ktheory[kname] = {"kind": kind, "element": elements[ename], "certificate": cert}

    collapse = {}
    for cname, cspec in raw.get("collapse", {}).items():
        cp = f"collapse.{cname}"
        ckind = cspec.get("kind")
        if ckind != "cocycle":
            _fail(cp + ".kind", f"unknown functional kind {ckind!r}")
        if "weights" in cspec:
            weights = {
                g: parse_complex(v, f"{cp}.weights.{g}")
                for g, v in cspec["weights"].items()
            }
            collapse[cname] = GroupCocycle1(weights=weights)
        elif "table" in cspec:
            table = {
                resolve_label(action, g, f"{cp}.table.{g}"): parse_complex(
                    v, f"{cp}.table.{g}"
                )
                for g, v in cspec["table"].items()
            }
            collapse[cname] = GroupCocycle1(table=table)
        else:
            _fail(cp, "a cocycle needs weights or a table")

    return Scenario(
        raw,
        name or raw.get("name", "scenario"),
        action,
        # integers here; their limits hold for the values a run uses, after
        # the command line's overrides (cli.run checks them)
        require_int(raw.get("truncation", DEFAULT_TRUNCATION), "truncation"),
        require_int(raw.get("jet_order", G.DEFAULT_JET_ORDER), "jet_order"),
        float(quad.get("tol", DEFAULT_TOL)),
        require_int(quad.get("depth", DEFAULT_DEPTH), "quadrature.depth"),
        elements,
        ktheory,
        collapse,
    )


def load_scenario(path):
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc.strerror}") from exc
    with fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_scenario(raw)
