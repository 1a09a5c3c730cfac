"""Scenario file parsing and validation errors."""

import json

import pytest

from loctrace import fields as F
from loctrace import groupoid as G
from loctrace.config import (
    ConfigError,
    load_scenario,
    parse_action,
    parse_complex,
    parse_map,
    parse_region,
    parse_scenario,
    resolve_label,
)
from loctrace.tensoralg import GroupCocycle1

MINIMAL = {
    "group": {
        "kind": "mobius",
        "generators": {"a": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]},
        "domain": {"kind": "disk", "center": [0, 0], "radius": 0.5},
    }
}

FREE_GROUP = {
    "kind": "free",
    "generators": {"s": {"kind": "affine", "a": [2, 0]}},
    "domain": {"kind": "disk", "center": [0, 0], "radius": 1.0},
}


def scenario(extra=None, **kw):
    raw = json.loads(json.dumps(MINIMAL))
    raw.update(extra or {})
    raw.update(kw)
    return parse_scenario(raw, name="test")


class TestLeafParsers:
    def test_complex_forms(self):
        assert parse_complex(2) == 2 + 0j
        assert parse_complex(1.5) == 1.5 + 0j
        assert parse_complex([1, -2]) == 1 - 2j
        with pytest.raises(ConfigError):
            parse_complex("nope")
        with pytest.raises(ConfigError):
            parse_complex([1, 2, 3])

    def test_regions(self):
        d = parse_region({"kind": "disk", "center": [1, 0], "radius": 2})
        assert isinstance(d, F.Disk)
        b = parse_region({"kind": "box", "x0": 0, "x1": 1, "y0": 0, "y1": 1})
        assert isinstance(b, F.Box)
        assert parse_region(None) is None
        for kind in ("pentagon", "annulus"):
            with pytest.raises(ConfigError):
                parse_region({"kind": kind, "center": 0, "r0": 1, "r1": 2})

    def test_maps(self):
        m = parse_map({"kind": "affine", "a": [2, 0], "b": [0.5, 0]})
        assert isinstance(m, G.AffineMap)
        assert abs(m.apply(1.0) - 2.5) < 1e-15
        mm = parse_map({"kind": "mobius", "matrix": [[[1, 0], [0, 0]], [[1, 0], [1, 0]]]})
        assert isinstance(mm, G.MobiusMap)
        with pytest.raises(ConfigError):
            parse_map({"kind": "spiral"})

    def test_actions(self):
        act = parse_action(MINIMAL["group"])
        assert act.by_name("a") is not None
        triv = parse_action({"kind": "trivial"})
        assert triv.unit.cmap.is_identity_germ()
        free = parse_action(FREE_GROUP)
        assert resolve_label(free, "s").name == "s"
        with pytest.raises(ConfigError):
            parse_action({"kind": "gauge"})

    def test_label_resolution(self):
        act = parse_action(MINIMAL["group"])
        assert resolve_label(act, "1") == act.unit
        assert resolve_label(act, "unit") == act.unit
        assert resolve_label(act, "a").name == "a"
        with pytest.raises(ConfigError):
            resolve_label(act, "zz")

    def test_free_inverse_labels(self):
        free = parse_action(FREE_GROUP)
        lab = resolve_label(free, "s^-1")
        assert free.compose(lab, resolve_label(free, "s")) == free.unit


class TestScenario:
    def test_defaults(self):
        scn = scenario()
        assert scn.truncation == 4
        assert scn.jet_order == 16
        assert scn.name == "test"
        assert scn.elements == {}

    def test_missing_group_fails(self):
        with pytest.raises(ConfigError):
            parse_scenario({})

    def test_quadrature_overrides(self):
        scn = scenario(extra={"quadrature": {"tol": 1e-9, "depth": 9}})
        assert scn.tol == 1e-9
        assert scn.depth == 9

    def test_element_parsing(self):
        scn = scenario(
            extra={
                "elements": {
                    "x": {
                        "terms": [
                            {"label": "a", "matrix": [["(* (bump 0 0 0.25 0.45) z)"]]}
                        ]
                    }
                }
            }
        )
        x = scn.element("x", "elements.x")
        lab = scn.action.by_name("a")
        assert lab in x.terms
        got = x.sample_value(lab, 0.1)[0, 0]
        assert abs(got - 0.1) < 1e-12

    def test_element_with_degree_components(self):
        scn = scenario(
            extra={
                "elements": {
                    "w": {
                        "terms": [
                            {
                                "label": "a",
                                "matrix": [[[
                                    {"degree": [0, 1], "field": "(bump 0 0 0.25 0.45)"}
                                ]]],
                            }
                        ]
                    }
                }
            }
        )
        w = scn.element("w", "elements.w")
        lab = scn.action.by_name("a")
        assert abs(w.sample_value(lab, 0.0, 0, 1)[0, 0] - 1.0) < 1e-13

    def test_unknown_element_lookup(self):
        scn = scenario()
        with pytest.raises(ConfigError):
            scn.element("ghost", "somewhere")

    def test_ktheory_validation(self):
        base = {
            "elements": {"u": {"terms": [{"label": "a", "matrix": [["(c 1 0)"]]}]}},
        }
        with pytest.raises(ConfigError):
            scenario(extra={**base, "ktheory": {"k": {"kind": "soup", "element": "u"}}})
        with pytest.raises(ConfigError):
            scenario(
                extra={**base, "ktheory": {"k": {"kind": "idempotent", "element": "v"}}}
            )
        with pytest.raises(ConfigError):
            # invertibles insist on a certificate
            scenario(
                extra={**base, "ktheory": {"k": {"kind": "invertible", "element": "u"}}}
            )
        ok = scenario(
            extra={
                **base,
                "ktheory": {
                    "k": {
                        "kind": "invertible",
                        "element": "u",
                        "certificate": {"kind": "nilpotent"},
                    }
                },
            }
        )
        assert ok.ktheory["k"]["certificate"] == {"kind": "nilpotent"}

    def test_collapse_parsing(self):
        scn = scenario(
            extra={"collapse": {"p": {"kind": "cocycle", "weights": {"a": [1, 0]}}}}
        )
        assert isinstance(scn.collapse["p"], GroupCocycle1)
        assert scn.collapse["p"].weights == {"a": 1.0}

    def test_tau0_collapse_refused(self):
        # a collapse is a group 1-cocycle: no command reads a trace collapse
        with pytest.raises(ConfigError, match="collapse.t.kind: unknown functional kind 'tau0'"):
            scenario(extra={"collapse": {"t": {"kind": "tau0"}}})

    def test_field_error_carries_path(self):
        with pytest.raises(ConfigError) as ei:
            scenario(
                extra={
                    "elements": {
                        "x": {"terms": [{"label": "a", "matrix": [["(wat 1)"]]}]}
                    }
                }
            )
        assert "elements.x" in str(ei.value)


class TestLoadScenario:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(MINIMAL))
        scn = load_scenario(str(p))
        assert scn.action.by_name("a") is not None

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_scenario("/nonexistent/scenario.json")

    def test_bad_json_reports_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"group": {,}}')
        with pytest.raises(ConfigError) as ei:
            load_scenario(str(p))
        assert ":1:12:" in str(ei.value)
