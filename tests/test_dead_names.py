"""No module-level name in `src/icroute` lives only for its own tests,
and no attribute is write-only.

Every function, class and constant defined at the top of a package
module must be read by package code (outside `__init__`, which only
re-exports), by `perfbench/` or by `scripts/`.  `scripts/line_coverage.py`
finds code that no test runs; this finds code that only its tests run.
Likewise every attribute the package sets on `self` must be read there,
and every `__slots__` entry must be set.  The alignment reference math
lives in `tests/alignment.py`, which imports only `icroute.core`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "icroute"


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


def parse(paths):
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def outside_readers():
    return sorted((ROOT / "perfbench").rglob("*.py")) \
        + sorted((ROOT / "scripts").rglob("*.py"))


def test_every_module_level_name_has_a_reader():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    read = {name for tree in parse(modules + outside_readers())
            for name in referenced(tree)}
    dead = sorted(f"{path.stem}.{name}" for path, tree in zip(modules, parse(modules))
                  for name in defined(tree) if name not in read)
    assert dead == []


def test_alignment_reference_reads_only_core():
    # the tests' alignment math checks the live scan, so it must never
    # call it
    tree = ast.parse((ROOT / "tests" / "alignment.py").read_text())
    imported = {alias.name if isinstance(node, ast.Import) else node.module
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert {m for m in imported if m.split(".")[0] == "icroute"} == {"icroute.core"}


def attributes(trees, ctx):
    """Every attribute node of the trees used in `ctx` (load or store)."""
    return [n for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ctx)]


def test_no_write_only_state():
    package = parse(sorted(PACKAGE.glob("*.py")))
    read = {n.attr for n in attributes(package + parse(outside_readers()), ast.Load)}
    stored = attributes(package, ast.Store)
    # `self.x += 1` stores without a load, so a bumped counter needs a reader
    on_self = {n.attr for n in stored
               if isinstance(n.value, ast.Name) and n.value.id == "self"}
    assert sorted(on_self - read) == [], "set on self, never read"
    slots = {elt.value for tree in package for n in ast.walk(tree)
             if isinstance(n, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in n.targets)
             for elt in n.value.elts}
    assert slots, "no __slots__ found"
    assert sorted(slots - {n.attr for n in stored}) == [], "slot never set"
