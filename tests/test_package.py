"""Package-level hygiene: every name a module exports exists, every name
the benchmark's tracer wraps still resolves, no module imports a name it
never uses, and every function the program's own traffic never enters has a
pinned reason to stay."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import loctrace

WITH_ALL = [
    m.name
    for m in pkgutil.iter_modules(loctrace.__path__)
    if hasattr(importlib.import_module(f"loctrace.{m.name}"), "__all__")
]


def test_modules_with_all_are_found():
    assert {"algebra", "cocycles", "jets", "groupoid", "quadrature"} <= set(WITH_ALL)


@pytest.mark.parametrize("name", WITH_ALL)
def test_star_import_resolves(name):
    # a stale __all__ entry fails here with AttributeError
    exec(f"from loctrace.{name} import *", {})


def _load_benchmark_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_tracer_sites_resolve():
    # the benchmark wraps these names with getattr/setattr on every run;
    # a refactor that drops one breaks the benchmark, not just its tracer
    tracer = _load_benchmark_tracer()
    sites = [s[:2] for s in tracer.QUADRATURE_SITES] + [s[:2] for s in tracer._SITES]
    assert len(sites) > 30
    missing = [f"{getattr(o, '__name__', o)}.{n}" for o, n in sites if not hasattr(o, n)]
    assert missing == []
    assert all(callable(getattr(o, n)) for o, n in sites)


def test_importing_the_package_loads_neither_the_cli_nor_the_scenarios():
    # benchmark processes import the package compiled from source, and need
    # neither the command line nor the seeded builders of verify and the tests
    code = ("import sys, loctrace\n"
            "names = ('loctrace.cli', 'loctrace.scenarios')\n"
            "print([n in sys.modules for n in names])\n"
            "import loctrace.cli\n"
            "print([n in sys.modules for n in names])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert run.stdout.splitlines() == ["[False, False]", "[True, True]"]


def _unused_imports(path):
    """Names a module imports and never reads, as ``file:line: name``.  A line
    marked ``# noqa`` is exempt, and a name listed in ``__all__`` is read."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name != "*":
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # a package's __init__.py imports in order to re-export, so it is exempt
    root = Path(__file__).resolve().parents[1]
    files = [p for d in ("src/loctrace", "tests", "scripts") for p in sorted((root / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 20
    assert [u for p in files for u in _unused_imports(p)] == []


def _polynomial_refs(source):
    """The lines of a module's source that name ``numpy.polynomial``: through
    the ``np`` or ``numpy`` name, or by an import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = node.attr == "polynomial" and getattr(node.value, "id", None) in ("np", "numpy")
        elif isinstance(node, ast.Import):
            hit = any(a.name.split(".")[:2] == ["numpy", "polynomial"] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            mod = (node.module or "").split(".")
            hit = mod[:2] == ["numpy", "polynomial"] or (
                mod == ["numpy"] and any(a.name == "polynomial" for a in node.names))
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


def test_no_numpy_polynomial_in_the_package():
    # the quadrature rule is a literal table and polynomial products are
    # convolutions, so numpy.polynomial's import, and the LAPACK call that
    # leggauss makes, stay out of every process that uses the package
    forms = ["x = np.polynomial.legendre.leggauss(8)", "import numpy.polynomial as P",
             "from numpy.polynomial.polynomial import polymul", "from numpy import polynomial",
             "y = numpy.polynomial"]
    assert [_polynomial_refs(f"import numpy as np\n{f}") for f in forms] == [[2]] * len(forms)
    assert _polynomial_refs("x = np.poly1d([1, 2])\nfrom numpy import convolve") == []
    root = Path(__file__).resolve().parents[1] / "src" / "loctrace"
    files = sorted(root.rglob("*.py"))
    assert len(files) > 10
    refs = [f"{p.name}:{line}" for p in files for line in _polynomial_refs(p.read_text())]
    assert refs == []


def test_no_module_of_the_package_imports_gc():
    # tapes and their cache keys are built without reference cycles, so the
    # package leaves its garbage to reference counting alone
    root = Path(__file__).resolve().parents[1] / "src" / "loctrace"
    files = sorted(root.rglob("*.py"))
    assert len(files) > 10
    found = [f"{p.name}:{node.lineno}" for p in files for node in ast.walk(ast.parse(p.read_text()))
             if (isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.module == "gc")]
    assert found == []


def test_numpy_roots_is_named_in_one_function():
    # fixed points solve linear and quadratic cores in closed form; only the
    # root helper hands a core of degree 3 or more to numpy.roots (LAPACK)
    root = Path(__file__).resolve().parents[1] / "src" / "loctrace"
    found = set()
    for p in sorted(root.rglob("*.py")):
        tree = ast.parse(p.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "roots" and (
                isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            ):
                owner = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                found.add(f"{p.name}:{'.'.join(owner) or '<module>'}")
    assert found == {"groupoid.py:_roots"}


REPR = "__repr__"
PROTOCOL = "protocol default, or a protocol method no traffic calls"
ERROR_PATH = "error path"
DIRECTION_C = "direction C: the finite cyclic rotation scenario"
DIRECTION_F = "direction F: multiple fixed points and the Newton search"
CLOSED_FORMS = "compose_maps' closed forms, reached by mixed or polynomial free generators"
TRACER = "wrapped by name by the benchmark's tracer until direction D"
ORACLE = "test oracle"
ODD_PAIRING = "Fix first: no odd scenario pairs a word whose image is an identity germ"

# Every function of src/loctrace that scripts/reach.py's traffic (the golden
# fixtures, verify at seeds 3 and 7, every benchmark operation at seed 3)
# never enters, by module and qualified name, with the reason it stays.
UNREACHED = {
    "algebra": {
        "FormCoefficient.__repr__": REPR,
        "CrossedForm.sample_value": ORACLE,
        "CrossedForm.__repr__": REPR,
        "WordCrossedForm.mu_image": ORACLE,
    },
    "cocycles": {
        "CocycleValue.__repr__": REPR,
        "ConjugatedAction.unit": PROTOCOL,
        "ConjugatedAction.compose": PROTOCOL,
        "ConjugatedAction.inverse": PROTOCOL,
    },
    "config": {"_fail": ERROR_PATH},
    "dist": {"RenormKernel.__repr__": REPR},
    "fields": {
        "Region.bbox": PROTOCOL,
        "Region.contains": PROTOCOL,
        "WholePlane.contains": PROTOCOL,
        "WholePlane.__repr__": REPR,
        "EmptyRegion.bbox": PROTOCOL,
        "EmptyRegion.contains": PROTOCOL,
        "EmptyRegion.__repr__": REPR,
        "Disk.__repr__": REPR,
        "Box.__repr__": REPR,
        "ScalarField.__repr__": REPR,
        "plateau_safe": TRACER,
        "_k_glue_cap": ERROR_PATH,
    },
    "groupoid": {
        "ConformalMap.apply": PROTOCOL,
        "ConformalMap._build_trees": PROTOCOL,
        "ConformalMap.inverse": PROTOCOL,
        "ConformalMap.is_identity_germ": PROTOCOL,
        "ConformalMap.preimage_region": PROTOCOL,
        "IdentityMap.apply": PROTOCOL,
        "IdentityMap._build_trees": PROTOCOL,
        "IdentityMap.inverse": PROTOCOL,
        "IdentityMap.preimage_region": PROTOCOL,
        "IdentityMap.__repr__": REPR,
        "AffineMap.__repr__": REPR,
        "MobiusMap.__repr__": REPR,
        "PolyMap.apply": PROTOCOL,
        "PolyMap.__repr__": REPR,
        "ChainMap.__init__": CLOSED_FORMS,
        "ChainMap.apply": CLOSED_FORMS,
        "ChainMap._build_trees": CLOSED_FORMS,
        "ChainMap.inverse": CLOSED_FORMS,
        "ChainMap.is_identity_germ": CLOSED_FORMS,
        "ChainMap.__repr__": REPR,
        "_trim": CLOSED_FORMS,
        "_polymul": CLOSED_FORMS,
        "_merge_multiple": DIRECTION_F,
        "_newton_fixed_points": DIRECTION_F,
        "Automorphism.__repr__": REPR,
        "GroupAction.unit": PROTOCOL,
        "GroupAction.compose": PROTOCOL,
        "GroupAction.inverse": PROTOCOL,
        "MatrixMobiusAction.inverse": PROTOCOL,
        "FiniteCyclicAction.__init__": DIRECTION_C,
        "FiniteCyclicAction.unit": DIRECTION_C,
        "FiniteCyclicAction.compose": DIRECTION_C,
        "FiniteCyclicAction.inverse": DIRECTION_C,
    },
    "jets": {"Jet1.__repr__": REPR, "Jet2.__repr__": REPR},
    "pairing": {"PairingResult.__repr__": REPR, "Delta1Result.__repr__": REPR},
    "quadrature": {"QuadratureResult.__repr__": REPR},
    "tensoralg": {"WordValues.__repr__": REPR, "GroupCocycle1.value": ODD_PAIRING},
}


def _never_entered(output):
    """{module: {qualified name}} from the listing of scripts/reach.py."""
    out, names = {}, None
    for line in output.splitlines():
        if line.endswith(" never reached") and not line.startswith("all:"):
            names = out[line.split(".py:")[0]] = set()
        elif line.startswith("  never entered: "):
            names.add(line.split(": ", 1)[1])
    return out


def test_every_never_entered_function_is_pinned():
    # reach.py runs its traffic under its line tracer in an interpreter of its
    # own: in this one, the tape cache that earlier tests filled would keep
    # the recorder and its builders from being entered
    root = Path(__file__).resolve().parents[1]
    reach = root / "scripts" / "reach.py"
    run = subprocess.run([sys.executable, str(reach), "--seed", "3"], capture_output=True,
                         text=True, timeout=600, check=True)
    found = _never_entered(run.stdout)
    assert set(found) == {p.stem for p in (root / "src" / "loctrace").glob("*.py")}
    unpinned = sorted(f"{m}.{n}" for m, names in found.items() for n in names - set(UNREACHED.get(m, ())))
    assert unpinned == []
    # a pinned name must still exist, so deleted code leaves the table too
    spec = importlib.util.spec_from_file_location("reach", reach)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    defined = {m: {name for name, _ in mod.module_table(str(root / "src" / "loctrace" / f"{m}.py"))[1]}
               for m in UNREACHED}
    stale = sorted(f"{m}.{n}" for m, names in UNREACHED.items() for n in names if n not in defined[m])
    assert stale == []
