#!/usr/bin/env python3
"""List the statements of srgforge that no test executes.

    PYTHONPATH=src python3 scripts/line_coverage.py [pytest args]

runs pytest in this process, with the given arguments (the tests of
pyproject.toml when none) and `--hypothesis-seed=0`, under a line tracer
set by `sys.settrace` and `threading.settrace`, and prints, for each
module of src/srgforge, the statements inside function bodies that no
traced line reached: the count of them and of all such statements, then
each one's first line.
Docstrings, nested definition lines and module-level statements (imports,
definitions, constants), which run on import, are left out.  Tests that
run srgforge in a subprocess are not traced, so what only they execute is
listed too.  The fixed seed makes every hypothesis suite draw the same
examples, and with it hypothesis neither reads nor writes its example
database, so two runs over the same code print the same listing.  Exits
with pytest's exit code.  Tracing slows the tests down several times over.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "srgforge"


def _statements(tree) -> dict[int, range]:
    """First line -> the lines of its head, for each statement inside a
    function body: a compound statement's lines up to its body, a simple
    one's all.  Docstrings, nested definitions and `try`, `global` and
    `nonlocal`, which no line event reports, are left out."""
    heads = {}

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue  # ast.walk below reaches nested functions
            if isinstance(child, ast.stmt) and not isinstance(
                    child, (ast.Try, ast.Global, ast.Nonlocal)):
                inner = getattr(child, "body", None)
                end = inner[0].lineno if inner else child.end_lineno + 1
                heads[child.lineno] = range(child.lineno, end)
            visit(child)

    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit(fn)
            if ast.get_docstring(fn) is not None:
                del heads[fn.body[0].lineno]
    return heads


def main(argv: list[str]) -> int:
    # file name -> its lines that ran, and a local tracer adding to them
    hit: dict[str, set[int]] = {}
    tracers = {}

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in tracers:
            real = os.path.realpath(path)
            if not real.startswith(str(PACKAGE)):
                tracers[path] = None
            else:
                lines = hit.setdefault(real, set())

                def local(frame, event, arg, lines=lines):
                    if event == "line":
                        lines.add(frame.f_lineno)
                    return local
                tracers[path] = local
        return tracers[path]

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["--hypothesis-seed=0", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print("# statements in srgforge's function bodies that no test "
          "executed, hypothesis seed 0; tests run in subprocesses are not "
          "traced")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        heads = _statements(ast.parse(source))
        seen = hit.get(str(path), set())
        missed = sorted(first for first, span in heads.items()
                        if seen.isdisjoint(span))
        name = path.relative_to(PACKAGE.parents[1])
        print(f"{name}: {len(missed)} of {len(heads)} statements not "
              f"executed")
        text = source.splitlines()
        for first in missed:
            print(f"  {first}: {text[first - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
