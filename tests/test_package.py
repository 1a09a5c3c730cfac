"""Package-level hygiene: every name a module exports exists, every name
the benchmark's tracer wraps still resolves, and no module imports a name it
never uses."""

import ast
import importlib
import importlib.util
import pkgutil
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
