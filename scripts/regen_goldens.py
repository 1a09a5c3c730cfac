"""Rewrite golden CLI reports, or list how far fresh reports are from them.

    python3 scripts/regen_goldens.py NAME...
    python3 scripts/regen_goldens.py --check [NAME...]

A golden is ``fixtures/golden/NAME``, where NAME is
``<fixture stem>.<command>.json`` (``bott.pair-even.json``) or
``verify-seed<N>.json``.  Its report comes from ``compare_reports.report``
with this checkout's ``src/`` and fixtures, and is written as the CLI writes
it, without the ``timings`` and ``exit`` keys.  A command that does not exit
0 leaves its golden as it was, and the script exits 1.

``--check`` compares fresh reports with the named goldens, or with every
golden if none is named, and writes nothing.  Each float that moved is
printed as a table row: golden, field, golden value, fresh value, absolute
difference.  Any other difference is listed after the table and makes the
exit status 1.  Standard library only.
"""

from __future__ import annotations

import json
import os
import sys

from compare_reports import RUNS, describe, diffs, golden_name, is_float, report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "fixtures", "golden")


RUN_OF = {golden_name(command, arg): (command, arg) for command, arg in RUNS}


def fresh(name):
    """(exit status, report without timings or exit) for a golden's name."""
    if name not in RUN_OF:
        raise SystemExit(f"unknown golden {name!r}; known: {', '.join(sorted(RUN_OF))}")
    got = report(ROOT, *RUN_OF[name])
    return got.pop("exit"), got


def write(names):
    failed = 0
    for name in names:
        code, got = fresh(name)
        if code != 0:
            print(f"{name}: exit {code}, not written {got.get('stderr', '')}".rstrip())
            failed = 1
            continue
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(got, sort_keys=True, indent=2) + "\n")
        print(f"{name}: written")
    return failed


def check(names):
    rows, hard = [], []
    for name in names:
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            want = json.load(fh)
        want.pop("timings", None)
        for path, old, new in diffs(want, fresh(name)[1]):
            if is_float(old, new):
                rows.append(f"| {name[:-5]} | `{path}` | {old!r} | {new!r} | {abs(old - new):.1e} |")
            else:
                hard.append(f"{name}: {path}: {describe(old, new)}")
    for line in ["| golden | field | golden value | here | abs diff |", "|---|---|---|---|---|"] + rows:
        print(line)
    for line in hard:
        print(line)
    print(f"{len(names)} goldens: {len(rows)} floats moved, {len(hard)} other differences")
    return 1 if hard else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--check"]:
        names = argv[1:] or sorted(n for n in os.listdir(GOLDEN) if n.endswith(".json"))
        return check(names)
    if not argv or argv[0].startswith("-"):
        sys.stderr.write(__doc__)
        return 2
    return write(argv)


if __name__ == "__main__":
    sys.exit(main())
