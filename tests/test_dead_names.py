"""No module-level name in `src/icroute` lives only for its own tests.

Every function, class and constant defined at the top of a package
module must be read by package code (outside `__init__`, which only
re-exports), by `perfbench/` or by `scripts/`.  `scripts/line_coverage.py`
finds code that no test runs; this finds code that only its tests run.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "icroute"

# read only by the acceptance checks, each named with its reader
TEST_ONLY = {
    "delay_offset": "acceptance 2 steps the scan with it as its reference",
    "sample_latencies": "acceptance 3 samples the scan's mean latency with it",
}


def defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def referenced(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_module_level_name_has_a_reader():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    readers = modules + sorted((ROOT / "perfbench").rglob("*.py")) \
        + sorted((ROOT / "scripts").rglob("*.py"))
    read = set()
    for path in readers:
        read.update(referenced(ast.parse(path.read_text(), str(path))))
    dead = sorted(f"{path.stem}.{name}" for path in modules
                  for name in defined(ast.parse(path.read_text(), str(path)))
                  if name not in read and name not in TEST_ONLY)
    assert dead == []
    assert not set(TEST_ONLY) & read, "a listed exception has a reader now"
