"""Print every statement of `src/icroute` that a pytest selection never ran.

    python3 scripts/line_coverage.py [PYTEST ARGS ...]

Runs `pytest.main(PYTEST ARGS)` in this process under a `sys.settrace`
line collector, then prints one `path:line  source` line per statement
of `src/icroute` that no test ran, and a closing count.  A statement
counts as run when any line of its header ran: all of a simple
statement, or a compound statement from its first decorator to the line
before its body.  Docstrings, `global` and `nonlocal` are not counted
as statements.  The exit status is pytest's.

Run it from the repository root, so that pytest finds its settings; it
imports `src/icroute` of this tree.  Tracing every line makes a run
several times slower (Tier-1 took 13 min under it on a 2-core host,
against under 2 min without), so it is a tool to run by hand, not a
test.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "icroute")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statement_spans(source: str) -> list:
    """(first, last) header lines of each counted statement."""
    nodes = list(ast.walk(ast.parse(source)))
    docstrings = {id(node.body[0]) for node in nodes if isinstance(node, DOCUMENTED)
                  and ast.get_docstring(node, clean=False) is not None}
    spans = []
    for node in nodes:
        if (not isinstance(node, ast.stmt) or id(node) in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        body = getattr(node, "body", None)
        first = min([node.lineno]
                    + [d.lineno for d in getattr(node, "decorator_list", ())])
        if isinstance(body, list) and body:
            last = max(node.lineno, body[0].lineno - 1)
        else:
            last = node.end_lineno
        spans.append((first, last))
    return sorted(spans)


def collector():
    """A `sys.settrace` function and the lines it records, per file."""
    hits = {}  # real path of a package file -> line numbers run
    ours = {}  # code file name -> its hit set, or None outside the package

    def line(frame, event, arg):
        if event == "line":
            ours[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = os.path.realpath(name)
            inside = path.startswith(PACKAGE + os.sep)
            ours[name] = hits.setdefault(path, set()) if inside else None
        return line if ours[name] is not None else None

    return call, hits


def unrun(hits: dict) -> tuple:
    """The statements never run, as (path, line, source), and the count
    of statements."""
    missed, total = [], 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read()
        lines = source.splitlines()
        ran = hits.get(os.path.realpath(path), set())
        for first, last in statement_spans(source):
            total += 1
            if not ran.intersection(range(first, last + 1)):
                missed.append((path, first, lines[first - 1].strip()))
    return missed, total


def main(argv: list) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    trace, hits = collector()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed, total = unrun(hits)
    for path, first, text in missed:
        print(f"{os.path.relpath(path, ROOT)}:{first}  {text}")
    print(f"{total - len(missed)} of {total} statements in src/icroute ran; "
          f"{len(missed)} never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
