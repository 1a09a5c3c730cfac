"""List the library code that the program's own traffic never reaches.

    python3 scripts/reach.py [--seed N]

Runs, in one interpreter and with this checkout's ``src/``, the golden runs
of ``compare_reports.RUNS`` (the seven fixture commands, ``verify --seed 3``
and ``verify --seed 7``), and then every operation of the three benchmark
workloads at seed N (default 3), with ``compare_reports.py`` and
``perfbench/workloads.py`` loaded by path.  Reports go to a temporary
directory and no bytecode is written, so nothing is written to the checkout.

All of it runs under a ``sys.settrace`` line tracer that records only frames
of ``src/loctrace``.  For each module the script prints the functions that
were never entered and the number of statements never reached, then exits 0.
A statement is reached when a line of its own that carries bytecode runs:
for a compound statement that is its header, a docstring is not counted.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "loctrace")


def load_by_path(name, directory):
    """The module ``directory/name.py`` of this checkout, loaded from its
    file with no directory added to sys.path."""
    path = os.path.join(ROOT, directory, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class LineTracer:
    """Lines run and functions entered, per file, for files under a prefix."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.lines = {}
        self.entered = {}

    def _global(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        self.entered.setdefault(code.co_filename, set()).add(code.co_firstlineno)
        lines = self.lines.setdefault(code.co_filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def _code_lines(code):
    """Every line that carries bytecode in a code object and those nested in it."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _code_lines(const)
    return out


def _is_docstring(node, parent):
    body = getattr(parent, "body", None)
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and body and body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    )


def _own_lines(node):
    """The lines of a statement that belong to no statement nested in it."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    inner = [c.lineno for c in ast.walk(node) if isinstance(c, ast.stmt) and c is not node]
    last = min(inner) - 1 if inner else node.end_lineno
    return set(range(first, last + 1))


def module_table(path):
    """(statements, functions) of a source file: each statement as its own
    executable lines, each function as (qualified name, first line)."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, path)
    executable = _code_lines(compile(source, path, "exec", dont_inherit=True))
    stmts, funcs = [], []

    def visit(parent, scope):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt) and not _is_docstring(node, parent):
                own = _own_lines(node) & executable
                if own:
                    stmts.append(own)
            name = scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{node.name}" if scope else node.name
                if not isinstance(node, ast.ClassDef):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    funcs.append((name, first))
            visit(node, name)

    visit(tree, "")
    return stmts, funcs


def run_traffic(seed):
    """The fixture commands, both verify seeds and every benchmark operation;
    prints one line per run and returns nothing."""
    from loctrace import cli

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for command, arg in load_by_path("compare_reports", "scripts").RUNS:
            if not arg.startswith("--"):
                arg = os.path.join(ROOT, "fixtures", arg)
            code = cli.main([command, arg, "--out", out])
            print(f"{command} {os.path.basename(arg)}: exit {code}")
    workloads = load_by_path("workloads", "perfbench")
    for name, build in workloads.WORKLOADS.items():
        raised = 0
        ops = build(seed)
        for op in ops:
            try:
                op.call()
            except Exception:
                raised += 1
        print(f"workload {name} seed {seed}: {len(ops)} operations, {raised} raised")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=3, help="workload seed")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)

    tracer = LineTracer(PKG + os.sep)
    with tracer:
        run_traffic(args.seed)

    total = missed = 0
    for fname in sorted(os.listdir(PKG)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PKG, fname)
        stmts, funcs = module_table(path)
        hit = tracer.lines.get(path, set())
        entered = tracer.entered.get(path, set())
        unreached = sum(1 for own in stmts if not own & hit)
        total += len(stmts)
        missed += unreached
        print(f"{fname}: {len(stmts)} statements, {unreached} never reached")
        for name, first in funcs:
            if first not in entered:
                print(f"  never entered: {name}")
    print(f"all: {total} statements, {missed} never reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
