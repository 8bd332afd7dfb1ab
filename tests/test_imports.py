"""Stale-import and dead-definition guards, read from the source with the
standard-library ast: every name a cliffcalc module imports is used there,
and every function, class and method is referenced in the package
(or exported, read by the acceptance gate, or an expression function). Also the
package namespace: its table of names resolves, and `import cliffcalc`
loads a module of the package only when one of its names is read."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cliffcalc
from cliffcalc.expr import FUNCTIONS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cliffcalc"
MODULES = sorted(SRC.glob("*.py"))

# the names the package exports, per owning module
EXPORTS = {
    "algebra": ("AlgebraError", "Multivector", "blade_grade", "blade_indices", "blade_mask", "blade_name",
                "conjugate", "dot_and_wedge", "linear_combine", "parse_blade", "pseudoscalar"),
    "taylor": ("JetDomainError", "JetOrderError", "Taylor"),
    "expr": ("ExprDomainError", "ExprError", "ExprSyntaxError", "ScalarExpr", "parse"),
    "fields": ("EPS_EXACT", "EPS_FD", "FD_STEP", "ConstantField", "DerivedField", "ExprField", "FDField",
               "FieldError", "GridSpec", "Identity", "MultivectorField", "PreconditionError", "ResidualReport",
               "grid_residual", "grid_residuals", "kvector_leibniz_residual", "scalar_leibniz_residual"),
    "riccati": ("OdeBlowupError", "RiccatiCandidate", "combination_family_gap", "euler_combine", "euler_shift",
                "log_derivative", "riccati_residual", "separable_solve", "vector_split_residuals"),
    "darboux": ("FactorizedOperator", "PipelineResult", "darboux_kvector_pipeline", "darboux_scalar_pipeline",
                "darboux_transform", "darboux_vector_pipeline", "eigen_check", "kvector_closed_form", "minus_op",
                "plus_op"),
    "kernel": ("DecompositionResult", "ModeError", "PseudoscalarMode", "decompose_conjugate_solution",
               "decompose_schrodinger_solution", "default_mode", "first_order_check", "split_kernel"),
    "suites": ("identity_suite",),
}


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
    table = cliffcalc._EXPORTS
    missing = [f"{module}.{name}" for module, names in table.items() for name in names
               if not hasattr(importlib.import_module(f"cliffcalc.{module}"), name)]
    assert not missing, f"cliffcalc/__init__.py exports names that do not exist: {', '.join(missing)}"
    names = Counter(name for names in table.values() for name in names)
    assert [name for name, count in names.items() if count > 1] == []
    assert table == EXPORTS and len(names) == 64


# run in a fresh interpreter, so that no module of the package is loaded before it
NAMESPACE_PROBE = """
import importlib, json, sys

def loaded():
    return sorted(m.partition(".")[2] for m in sys.modules if m.startswith("cliffcalc."))

exports = json.loads(sys.argv[1])
import cliffcalc
package = loaded()
undir = sorted({name for names in exports.values() for name in names} - set(dir(cliffcalc)))
import cliffcalc.expr
expr = loaded()
unbound = [name for module, names in exports.items() for name in names
           if getattr(cliffcalc, name) is not getattr(importlib.import_module("cliffcalc." + module), name)]
try:
    cliffcalc.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({"package": package, "expr": expr, "undir": undir, "unbound": unbound, "unknown": unknown}))
"""


def test_package_names_load_their_module_on_first_read():
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NAMESPACE_PROBE, json.dumps(EXPORTS)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["package"] == []
    assert seen["expr"] == ["batch", "expr", "taylor"]
    assert seen["undir"] == [] and seen["unbound"] == []
    assert seen["unknown"] == "AttributeError"


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
    # by name, so a method counts as used when src/ reads any attribute of that name; a definition
    # that src/ never reads stays only as a package export, as a name the acceptance gate imports
    # or reads, or as a jet method that an expression reaches by its name in expr.FUNCTIONS
    trees = {path: ast.parse(path.read_text()) for path in MODULES}
    total = Counter(name for tree in trees.values() for name in referenced_names(tree))
    gate = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    kept = {name for names in cliffcalc._EXPORTS.values() for name in names}
    kept |= {name for name, _ in imported_names(gate)} | set(referenced_names(gate))
    dead = [f"{path.stem}.{d.name} (line {d.lineno})"
            for path in MODULES for d in definitions(trees[path])
            if not (d.name.startswith("__") and d.name.endswith("__"))
            and total[d.name] <= Counter(referenced_names(d))[d.name]
            and d.name not in kept and not (path.stem == "taylor" and d.name in FUNCTIONS)]
    assert not dead, f"definitions that src/ references nowhere outside their own body: {', '.join(dead)}"
