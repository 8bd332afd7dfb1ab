"""Stale-import and dead-definition guards, read from the source with the
standard-library ast: every name a cliffcalc module imports is used there,
every name the package __init__ re-exports exists in the module it comes
from, and every function, class and method is referenced somewhere."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cliffcalc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) of each import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_every_package_export_resolves():
    tree = ast.parse((SRC / "__init__.py").read_text())
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"cliffcalc.{node.module}")
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert not missing, f"cliffcalc/__init__.py imports names that do not exist: {', '.join(missing)}"


def referenced_names(node):
    """Names and attribute names read anywhere under node; an import does not count."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def definitions(tree):
    """Top-level functions and classes, and the methods of those classes, except dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def test_every_definition_is_referenced():
    # by name, so a method counts as used when any attribute of that name is read
    sources = sorted(p for folder in ("src", "tests", "perfbench") for p in (ROOT / folder).rglob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in sources}
    total = Counter(name for tree in trees.values() for name in referenced_names(tree))
    dead = [f"{path.stem}.{d.name} (line {d.lineno})"
            for path in sorted(SRC.glob("*.py")) for d in definitions(trees[path])
            if not (d.name.startswith("__") and d.name.endswith("__"))
            and total[d.name] <= Counter(referenced_names(d))[d.name]]
    assert not dead, f"definitions referenced nowhere outside their own body: {', '.join(dead)}"
