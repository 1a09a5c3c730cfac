"""Package-level hygiene: every name a module exports exists, and every name
the benchmark's tracer wraps still resolves."""

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
