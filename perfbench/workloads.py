"""Workload inputs and the outcome each invocation must produce.

A workload is a cycle of cases. Each case is one CLI command on one JSON
config, together with its expected exit code and per-report pass flags.
Grid configs are fixed; the seed only drives `pointwise-suite`. The reasons
for each workload are in NOTES.md.

This module imports nothing from cliffcalc, so a set-up probe can time the
package import on its own.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("grid-riccati", "grid-darboux", "kernel-split", "pointwise-suite")

# Grid samples per axis, or suite rounds for pointwise-suite. FULL is what
# the benchmark measures; TINY keeps the smoke tests fast.
FULL = {"grid-riccati": 5, "grid-darboux": 3, "kernel-split": 2, "pointwise-suite": 20}
TINY = {"grid-riccati": 2, "grid-darboux": 2, "kernel-split": 2, "pointwise-suite": 2}

SUITE_DIM = 5
SUITE_SEEDS_PER_RUN = 16
TWIN_POTENTIAL = 1e-6

# harmonic phi > 0 on [-1, 1]^3, so f = D(phi)/phi solves D(f) + f^2 = 0
PHI = "(exp(x1)*sin(x2) - x1^2 + x3^2 + 5)"


@dataclass(frozen=True)
class Case:
    label: str
    command: str
    config: dict
    exit_code: int
    passes: dict  # report name -> expected "pass" flag
    sup_targets: dict = field(default_factory=dict)  # report name -> expected sup_norm, within 1%


def _box(n):
    return [[-1.0, 1.0] for _ in range(n)]


def _riccati_config(samples, v):
    return {
        "n": 3,
        "fields": {
            "f": {
                "e1": f"(exp(x1)*sin(x2) - 2*x1)/{PHI}",
                "e2": f"exp(x1)*cos(x2)/{PHI}",
                "e3": f"2*x3/{PHI}",
            },
            "v": v,
        },
        "grid": {"box": _box(3), "samples_per_axis": samples},
    }


def _grid_riccati(samples, seed):
    names = ("riccati", "scalar_part", "bivector_part")
    exact = Case("exact", "riccati-check", _riccati_config(samples, "0"), 0,
                 dict.fromkeys(names, True))
    # the twin shifts v off the exact solution: only the bivector part still holds
    twin = Case("twin", "riccati-check", _riccati_config(samples, f"{TWIN_POTENTIAL:f}"), 1,
                {"riccati": False, "scalar_part": False, "bivector_part": True},
                {"riccati": TWIN_POTENTIAL, "scalar_part": TWIN_POTENTIAL})
    return [exact, twin]


def _grid_darboux(samples, seed):
    config = {
        "n": 4,
        "k": 2,
        "lambda": 0.8,
        "fields": {
            "f": {"e1": "0.6", "e2": "0.8"},
            "g": {
                "e2^e3": "exp(0.3*x1 + 0.3*x2 + 0.3*x3 + 0.3*x4)",
                "e1^e4": "exp(0.78102496759066544*x3)*cos(0.5*x4)",
            },
        },
        "grid": {"box": _box(4), "samples_per_axis": samples},
    }
    names = ("precondition:scalar_potential", "precondition:eigen_equation", "conclusion")
    return [Case("kvector", "darboux-kvector", config, 0, dict.fromkeys(names, True))]


def _kernel_split(samples, seed):
    config = {
        "n": 6,
        "mode": "full",
        "lambda": 0.8,
        "fields": {"f": {"e1": "1"}, "v": "0 - 1", "phi": "exp(0.3*x1 + 0.3*x2 + 0.3*x3 + 0.3*x4)"},
        "grid": {"box": _box(6), "samples_per_axis": samples},
    }
    names = ("squared_operator", "plus_kernel", "minus_kernel")
    return [Case("full", "decompose", config, 0, dict.fromkeys(names, True))]


def suite_report_names(n):
    algebra = ("anticommutation", "associativity", "anti_involution", "grade_completeness",
               "vector_square_scalar", "product_split")
    closed = ("plus_minus", "minus_plus", "minus_plus_scalar")
    operator = ("two_factorized_forms", "square_matches_composition",
                "unit_conjugation_flips_sign", "unit_involution")
    return ([f"algebra/{a}" for a in algebra] + ["leibniz/scalar"]
            + [f"leibniz/kvector_k{k}" for k in range(n + 1)]
            + [f"closed_form/{c}" for c in closed] + [f"operator/{o}" for o in operator])


def _pointwise_suite(rounds, seed):
    rng = random.Random(seed)
    passes = dict.fromkeys(suite_report_names(SUITE_DIM), True)
    cases = []
    for _ in range(SUITE_SEEDS_PER_RUN):
        s = rng.randrange(1 << 30)
        config = {"n": SUITE_DIM, "rounds": rounds, "seed": s}
        cases.append(Case(f"seed{s}", "verify-identities", config, 0, passes))
    return cases


_BUILDERS = {
    "grid-riccati": _grid_riccati,
    "grid-darboux": _grid_darboux,
    "kernel-split": _kernel_split,
    "pointwise-suite": _pointwise_suite,
}


def build(workload, seed, sizes=FULL):
    """The workload's cases; the same seed gives the same cases."""
    return _BUILDERS[workload](sizes[workload], seed)


def config_expressions(config):
    """(n, source) for every field expression in a config."""
    for raw in config.get("fields", {}).values():
        for src in (raw.values() if isinstance(raw, dict) else [raw]):
            yield config["n"], src


def prepare(workload, seed, workdir, sizes=FULL):
    """Build the cases, check their expressions parse, and write the configs.

    Returns (case, config path) pairs. Needs cliffcalc importable.
    """
    from cliffcalc.expr import parse

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for case in build(workload, seed, sizes):
        for n, src in config_expressions(case.config):
            parse(src, n)
        path = workdir / f"{workload}-{case.label}.json"
        path.write_text(json.dumps(case.config, indent=1))
        out.append((case, path))
    return out


def deviations(case, exit_code, stdout_text):
    """Every way an invocation's outcome differs from the case's expectation."""
    found = []
    if exit_code != case.exit_code:
        found.append(f"exit code {exit_code}, expected {case.exit_code}")
    try:
        reports = json.loads(stdout_text)["reports"]
    except (ValueError, KeyError, TypeError):
        return found + ["no JSON report on stdout"]
    by_name = {r.get("name"): r for r in reports}
    if set(by_name) != set(case.passes):
        found.append(f"reports {sorted(by_name)}, expected {sorted(case.passes)}")
    for name, expected in case.passes.items():
        rep = by_name.get(name)
        if rep is None:
            continue
        if rep.get("pass") is not expected:
            found.append(f"{name}: pass={rep.get('pass')}, expected {expected}")
        for key in ("sup_norm", "rms"):
            if key in rep and not (isinstance(rep[key], (int, float)) and math.isfinite(rep[key])):
                found.append(f"{name}: {key}={rep[key]!r} is not finite")
        if "sup_norm" not in rep:
            found.append(f"{name}: no sup_norm")
        target = case.sup_targets.get(name)
        if target is not None and isinstance(rep.get("sup_norm"), (int, float)):
            if abs(rep["sup_norm"] - target) > 0.01 * target:
                found.append(f"{name}: sup_norm={rep['sup_norm']!r}, expected {target!r} within 1%")
    return found


def samples_used(stdout_text):
    return sum(r.get("samples_used", 0) for r in json.loads(stdout_text)["reports"])
