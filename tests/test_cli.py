"""Command-line interface: reports, exit codes, determinism, golden files.

Float reproducibility policy:

- on one machine, reports are bit for bit equal across repeated runs
  (``timings`` aside);
- across machines, floats agree within ``math.isclose(got, want,
  rel_tol=1e-12, abs_tol=1e-14)`` and everything else (keys, list lengths,
  strings, word lists, ints, ``pass`` flags, ``digest``) is exact.

The last bits of a float depend on which SIMD kernels numpy dispatches to on
the machine; the tolerance is ten times the worst drift seen between two
machines (9.8e-16 absolute) and a hundred times below the smallest nonzero
check tolerance (1e-12), so no check outcome can hide inside it.  A change of
numerical method regenerates the goldens instead of widening it.

A golden changes only by ``scripts/regen_goldens.py NAME...``, in a commit
of its own; ``scripts/regen_goldens.py --check`` lists every float that has
moved on the machine at hand.
"""

import copy
import importlib.util
import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

from loctrace.cli import main

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"


def _golden_runs():
    """The fixture runs of scripts/compare_reports.py's one list of golden
    runs, each with its golden's name; the script is loaded by path."""
    path = ROOT / "scripts" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("compare_reports", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(c, a, mod.golden_name(c, a)) for c, a in mod.RUNS if not a.startswith("--")]


CASES = _golden_runs()


def run_cli(args, out):
    code = main(list(args) + ["--out", str(out)])
    report = json.loads(out.read_text())
    return code, report


def strip_timings(report):
    r = dict(report)
    r.pop("timings", None)
    return r


FLOAT_REL_TOL = 1e-12
FLOAT_ABS_TOL = 1e-14


def report_mismatches(got, want, path="$"):
    """Paths where two reports differ under the float policy above."""
    if isinstance(got, float) and isinstance(want, float):
        if not math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL):
            yield f"{path}: {got!r} != {want!r}"
    elif type(got) is not type(want):
        yield f"{path}: {type(got).__name__} != {type(want).__name__}"
    elif isinstance(want, dict):
        if got.keys() != want.keys():
            yield f"{path}: keys {sorted(got)} != {sorted(want)}"
        else:
            for k in want:
                yield from report_mismatches(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        if len(got) != len(want):
            yield f"{path}: length {len(got)} != {len(want)}"
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                yield from report_mismatches(g, w, f"{path}[{i}]")
    elif got != want:
        yield f"{path}: {got!r} != {want!r}"


def _golden(name):
    return json.loads((GOLDEN / name).read_text())


def assert_matches_golden(report, want):
    bad = list(report_mismatches(strip_timings(report), strip_timings(want)))
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("command,fixture,golden", CASES)
def test_fixture_matches_golden(command, fixture, golden, tmp_path):
    out = tmp_path / "report.json"
    code, report = run_cli([command, str(FIXTURES / fixture)], out)
    assert code == 0
    assert_matches_golden(report, _golden(golden))


def test_verify_matches_golden(tmp_path):
    out = tmp_path / "verify.json"
    code, report = run_cli(["verify", "--seed", "7"], out)
    assert code == 0
    assert_matches_golden(report, _golden("verify-seed7.json"))


def test_golden_comparator_accepts_itself_and_ignores_timings():
    want = _golden("bott.pair-even.json")
    got = copy.deepcopy(want)
    got["timings"] = {"total_s": 123.0}
    assert_matches_golden(got, want)


@pytest.mark.parametrize(
    "golden,mutate",
    [
        ("todd.todd.json", lambda r: r["todd"].update(re=r["todd"]["re"] + 1e-9)),
        ("bott.pair-even.json", lambda r: r["checks"][0].update({"pass": False})),
        ("bott.pair-even.json", lambda r: r["words"][0].update(word=["1", "2"])),
        ("bott.pair-even.json", lambda r: r["words"][0]["word"].pop()),
        ("todd.todd.json", lambda r: r.pop("chern1")),
        ("verify-seed7.json", lambda r: r["checks"][0].update(name="renamed")),
        ("bott.pair-even.json", lambda r: r.update(dropped_words=35)),
        ("bott.pair-even.json", lambda r: r.update(dropped_words=34.0)),
    ],
    ids=[
        "float-1e-9",
        "pass-flag",
        "word-list",
        "word-length",
        "missing-key",
        "string",
        "int",
        "int-as-float",
    ],
)
def test_golden_comparator_rejects(golden, mutate):
    want = _golden(golden)
    got = copy.deepcopy(want)
    mutate(got)
    assert list(report_mismatches(strip_timings(got), strip_timings(want)))


def test_report_envelope(tmp_path):
    out = tmp_path / "report.json"
    code, report = run_cli(["trace", str(FIXTURES / "dilation2.json")], out)
    assert report["schema"] == 1
    assert report["command"] == "trace"
    assert report["pass"] is True
    digest = report["digest"]
    assert isinstance(digest, str) and digest.startswith("sha256:")
    hexpart = digest.split(":", 1)[1]
    assert len(hexpart) == 64 and set(hexpart) <= set("0123456789abcdef")
    assert "timings" in report
    for chk in report["checks"]:
        assert set(chk) >= {"name", "defect", "tol", "pass"}


def test_trace_value_pinned(tmp_path):
    out = tmp_path / "report.json"
    _, report = run_cli(["trace", str(FIXTURES / "dilation2.json")], out)
    got = report["value"]
    assert abs(got["re"] - (-1.0)) < 1e-9
    assert abs(got["im"]) < 1e-9
    # the per-fixed-point breakdown carries the same number for the single orbit
    assert report["breakdown"][0]["label"] == "a"
    assert abs(report["breakdown"][0]["value"]["re"] - (-1.0)) < 1e-9


def test_determinism_modulo_timings(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(["verify", "--seed", "3"], a)
    run_cli(["verify", "--seed", "3"], b)
    ra = strip_timings(json.loads(a.read_text()))
    rb = strip_timings(json.loads(b.read_text()))
    assert ra == rb


def test_seed_changes_digest(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(["verify", "--seed", "3"], a)
    run_cli(["verify", "--seed", "4"], b)
    assert json.loads(a.read_text())["digest"] != json.loads(b.read_text())["digest"]


def test_failing_expectation_exits_one(tmp_path):
    scn = json.loads((FIXTURES / "dilation2.json").read_text())
    scn["trace"]["expect"] = {"value": [3.0, 0.0], "tol": 1e-9}
    p = tmp_path / "wrong.json"
    p.write_text(json.dumps(scn))
    out = tmp_path / "report.json"
    code, report = run_cli(["trace", str(p)], out)
    assert code == 1
    assert report["pass"] is False
    assert any(not c["pass"] for c in report["checks"])


def test_missing_scenario_exits_two(capsys):
    assert main(["trace", "/nonexistent/file.json"]) == 2
    assert main(["trace"]) == 2  # scenario is mandatory except for verify


def test_malformed_scenario_exits_two(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"group": {"kind": "gauge"}}')
    assert main(["trace", str(p)]) == 2


@pytest.mark.parametrize(
    "command,fixture", [("todd", "todd.json"), ("dist-check", "dist.json")]
)
def test_numerical_failure_exits_two(command, fixture, tmp_path, capsys):
    # one depth level cannot meet the tolerance: an error line, no report
    out = tmp_path / "report.json"
    code = main([command, str(FIXTURES / fixture), "--depth", "1", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "did not converge" in err


def _close_roots(scn):
    # g(z) - z = (z - 0.1)(z - 0.1001)(z + 0.2): two simple roots 1e-4 apart
    c = [0.002002, 1.0 - 0.03001, -0.0001, 1.0]
    gens = {"a": {"kind": "poly", "coeffs": c}}
    scn["group"] = {"kind": "free", "generators": gens, "domain": scn["group"]["domain"]}


def _short_jet(scn):
    # g = z + z^3 + z^4 has order 3 at 0: a jet of order 2 sees g(z) - z as 0
    gens = {"a": {"kind": "poly", "coeffs": [0.0, 1.0, 0.0, 1.0, 1.0]}}
    scn["group"] = {"kind": "free", "generators": gens, "domain": scn["group"]["domain"]}
    scn["jet_order"] = 2


def _tau0_for_odd(scn):
    scn["collapse"]["psi"] = {"kind": "tau0"}


def _negative_pad(scn):
    scn["trace"]["pad"] = -1


def _text_pad(scn):
    scn["trace"]["pad"] = "x"


def _negative_jet_order(scn):
    scn["jet_order"] = -3


def _zero_depth(scn):
    scn["quadrature"]["depth"] = 0


def _text_jet_order(scn):
    scn["jet_order"] = "x"


def _fractional_depth(scn):
    scn["quadrature"]["depth"] = 2.5


def _fractional_truncation(scn):
    scn["truncation"] = 2.5


def _zero_truncation(scn):
    # a cap below 1 leaves no word to pair, and the expectation would pass
    scn["truncation"] = 0


def _expect_without_collapse(scn):
    # with no collapse there is no number to hold the expectation against
    del scn["pair_odd"]["collapse"]
    scn["pair_odd"]["expect"] = {"value": [5.0, 0.0]}


def _unknown_dist_kind(scn):
    # the kind is refused before a missing z0 could be looked up
    scn["dist"] = [{"check": "laplace", "phi": "z"}]


@pytest.mark.parametrize("command, fixture, mutate, message", [
    ("trace", "dilation2.json", _close_roots, "do not merge into one multiple fixed point"),
    ("trace", "dilation2.json", _short_jet, "vanishes to jet order 2 at 0j"),
    ("pair-odd", "odd.json", _tau0_for_odd, "collapse.psi.kind: unknown functional kind 'tau0'"),
    ("pair-odd", "odd.json", _expect_without_collapse, "pair_odd.expect: an expectation needs"),
    ("dist-check", "dist.json", _unknown_dist_kind, "dist[0]: unknown check kind 'laplace'"),
    ("trace", "dilation2.json", _negative_pad, "trace.pad: expected an integer of at least 0"),
    ("trace", "dilation2.json", _text_pad, "trace.pad: expected an integer of at least 0"),
    ("trace", "dilation2.json", _negative_jet_order, "jet_order: expected an integer of at least 0"),
    ("pair-even", "bott.json", _zero_depth, "quadrature.depth: expected an integer of at least 1"),
    ("trace", "dilation2.json", _text_jet_order, "jet_order: expected an integer, got 'x'"),
    ("pair-even", "bott.json", _fractional_depth, "quadrature.depth: expected an integer, got 2.5"),
    ("pair-odd", "odd.json", _fractional_truncation, "truncation: expected an integer, got 2.5"),
    ("pair-odd", "odd.json", _zero_truncation, "truncation: expected an integer of at least 1"),
])
def test_refused_scenario_exits_two(command, fixture, mutate, message, tmp_path, capsys):
    scn = json.loads((FIXTURES / fixture).read_text())
    mutate(scn)
    p = tmp_path / fixture
    p.write_text(json.dumps(scn))
    out = tmp_path / "report.json"
    assert main([command, str(p), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, message", [
    (["trace", str(FIXTURES / "dilation2.json"), "--jet-order", "-3"], "jet_order: expected"),
    (["pair-even", str(FIXTURES / "bott.json"), "--depth", "0"], "quadrature.depth: expected"),
    (["verify", "--depth", "0"], "quadrature.depth: expected"),
    (["pair-odd", str(FIXTURES / "odd.json"), "--trunc", "-1"], "truncation: expected"),
    (["pair-odd", str(FIXTURES / "odd.json"), "--trunc", "0"], "truncation: expected"),
    (["verify", "--trunc", "0"], "truncation: expected"),
], ids=["jet-order", "depth", "verify-depth", "trunc-negative", "trunc-zero", "verify-trunc"])
def test_refused_flag_exits_two(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_flag_overrides_before_the_limits_are_checked(tmp_path):
    # the limits hold for the values the run uses, not for the file's
    scn = json.loads((FIXTURES / "dilation2.json").read_text())
    _negative_jet_order(scn)
    p = tmp_path / "dilation2.json"
    p.write_text(json.dumps(scn))
    code, report = run_cli(["trace", str(p), "--jet-order", "16"], tmp_path / "report.json")
    assert code == 0 and report["pass"] is True


def test_dist_pair_checks_only_an_expected_value(tmp_path):
    scn = json.loads((FIXTURES / "dist.json").read_text())
    row = {"check": "pair", "z0": [0.05, 0.0], "phi": scn["dist"][0]["phi"]}
    scn["dist"] = [row, dict(row, expect=[0.0, 0.0])]
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(scn))
    code, report = run_cli(["dist-check", str(p)], tmp_path / "report.json")
    bare, held = report["identities"]
    value = complex(bare["value"]["re"], bare["value"]["im"])
    assert abs(value) > 0.01 and held["value"] == bare["value"]
    # the row without an expectation carries its value and no check
    assert "defect" not in bare and [c["name"] for c in report["checks"]] == ["pair[1]"]
    assert held["defect"] == report["checks"][0]["defect"] == abs(value)
    assert code == 1 and report["pass"] is False


@pytest.mark.parametrize("command, fixture, key", [
    ("trace", "dilation2.json", "trace"),
    ("todd", "todd.json", "todd"),
    ("pair-even", "bott.json", "pair_even"),
    ("pair-odd", "odd.json", "pair_odd"),
    ("anomaly", "anomaly.json", "anomaly"),
    ("dist-check", "dist.json", "dist"),
])
def test_missing_section_exits_two(command, fixture, key, tmp_path, capsys):
    scn = json.loads((FIXTURES / fixture).read_text())
    del scn[key]
    p = tmp_path / fixture
    p.write_text(json.dumps(scn))
    assert main([command, str(p)]) == 2
    assert capsys.readouterr().err == f"error: {key}: missing section\n"


def test_flag_overrides_apply(tmp_path):
    out = tmp_path / "report.json"
    code, report = run_cli(
        ["trace", str(FIXTURES / "dilation2.json"), "--jet-order", "12", "--tol", "1e-7"],
        out,
    )
    assert code == 0


def test_console_script_installed(tmp_path):
    exe = shutil.which("loctrace")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [exe, "trace", str(FIXTURES / "dilation2.json"), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["pass"] is True
