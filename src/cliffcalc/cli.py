"""Command line front end: run identity suites and pipelines from JSON configs.

Exit codes: 0 all checks passed, 1 a numerical check failed, 2 the config
was malformed (parse or validation error).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .algebra import AlgebraError
from .darboux import (
    PipelineResult,
    darboux_kvector_pipeline,
    darboux_scalar_pipeline,
    darboux_transform,
    darboux_vector_pipeline,
)
from .expr import ExprError, parse
from .fields import (
    EPS_EXACT,
    EPS_FD,
    ExprField,
    FieldError,
    GridSpec,
    PreconditionError,
    ResidualReport,
)
from .kernel import (
    ModeError,
    PseudoscalarMode,
    decompose_conjugate_solution,
    decompose_schrodinger_solution,
    default_mode,
)
from .riccati import (
    OdeBlowupError,
    RiccatiCandidate,
    combination_family_gap,
    euler_combine,
    euler_shift,
    riccati_residual,
    separable_solve,
    vector_split_residuals,
)
from .suites import identity_suite

SCHEMA_VERSION = 1
NUMBER = (int, float)


class ConfigError(ValueError):
    pass


CLAIMS = {
    "verify-identities": "randomized suite: algebra laws, the two Leibniz rules, "
                         "closed forms of the factorized-operator compositions, "
                         "unit-element operator identities",
    "riccati-check": "residual of D(f) + f^2 = v, plus the scalar/bivector split for 1-vector f",
    "riccati-separable": "axis-separated potential solved as n classical 1-D Riccati ODEs",
    "euler-shift": "new solution from a known one plus an admissible logarithmic derivative",
    "euler-combine": "one-integration blend of two gradient solutions of the same equation",
    "family-gap": "the two-solution blend family misses the constant solution e3 (n >= 3)",
    "darboux": "eigenfunction transport between the two factorized-operator compositions",
    "darboux-vector": "scalar Schroedinger eigenfunction mapped to a 1-vector eigen-solution",
    "darboux-bivector": "1-vector eigen-solution mapped to a scalar + bivector pair",
    "darboux-kvector": "grade-k eigen-solution mapped to its (k-1, k+1) grade pair",
    "decompose": "split a Schroedinger eigenfunction into two first-order kernel parts",
    "decompose-dual": "same split for the sign-flipped potential, via the B operator",
}


def _is_a(value, kind):
    # bool is a subclass of int, but `true` is not a number, a dimension or a grade
    return isinstance(value, kind) and not isinstance(value, bool)


def _require(config, key, kind=None):
    if key not in config:
        raise ConfigError(f"config is missing required key {key!r}")
    value = config[key]
    if kind is not None and not _is_a(value, kind):
        expected = "number" if kind is NUMBER else kind.__name__
        raise ConfigError(f"config key {key!r} has the wrong type (expected {expected})")
    return value


def _optional(config, key, kind, default):
    return _require(config, key, kind) if key in config else default


def _complex(raw, what) -> complex:
    """A number, [re, im] or {"re": re, "im": im} as a complex number."""
    if isinstance(raw, dict):
        raw = [raw.get("re", 0.0), raw.get("im", 0.0)]
    parts = raw if isinstance(raw, list) and len(raw) == 2 else [raw, 0.0]
    if not all(_is_a(x, NUMBER) for x in parts):
        raise ConfigError(f"{what} must be a number, [re, im], or {{re, im}}")
    return complex(*parts)


def _number_list(config, key, n):
    """An optional list of n finite numbers, all zero by default."""
    value = config.get(key, [0.0] * n)
    if not (isinstance(value, list) and len(value) == n
            and all(_is_a(x, NUMBER) and math.isfinite(x) for x in value)):
        raise ConfigError(f"config key {key!r} must be a list of {n} finite numbers")
    return value


def _load_field(config, name, n) -> ExprField:
    fields = _require(config, "fields", dict)
    if name not in fields:
        raise ConfigError(f"config defines no field named {name!r}")
    raw = fields[name]
    try:
        if isinstance(raw, str):
            return ExprField.scalar(n, raw)
        if isinstance(raw, dict):
            return ExprField(n, raw)
    except (ExprError, AlgebraError, FieldError) as err:
        raise ConfigError(f"field {name!r}: {err}") from err
    raise ConfigError(f"field {name!r} must be an expression string or a blade->expression map")


def _load_grid(config, n) -> GridSpec:
    grid = _optional(config, "grid", dict, {})
    box = _optional(grid, "box", list, None) or [[-1.0, 1.0]] * n
    if len(box) != n:
        raise ConfigError(f"grid box has {len(box)} axes, expected {n}")
    samples = _optional(grid, "samples_per_axis", int, 11)
    try:
        return GridSpec(tuple((float(lo), float(hi)) for lo, hi in box), samples)
    except (FieldError, TypeError, ValueError) as err:
        raise ConfigError(f"bad grid: {err}") from err


def _load_lambda(config) -> complex:
    lam = _complex(_require(config, "lambda"), "lambda")
    if lam == 0:
        raise ConfigError("lambda must be nonzero")
    return lam


def _load_mode(config, n) -> PseudoscalarMode:
    kind = config.get("mode", "auto")
    try:
        if kind == "auto":
            return default_mode(n)
        if kind in ("full", "full_pseudoscalar"):
            return PseudoscalarMode("full_pseudoscalar", n)
        if kind == "last_axis":
            return PseudoscalarMode("last_axis", n)
    except ModeError as err:
        raise ConfigError(str(err)) from err
    raise ConfigError(f"unknown mode {kind!r}")


def _eps(config, args, default=EPS_EXACT):
    if args.tol is not None:
        return args.tol
    return _optional(config, "tolerance", NUMBER, default)


def _report_dicts(named_reports):
    return [{"name": name, **rep.to_dict()} for name, rep in named_reports]


def _pipeline_reports(result: PipelineResult):
    return _report_dicts(result.reports()), {}, result.passed


def _candidate(config, n, f_name="f", v_name="v") -> RiccatiCandidate:
    return RiccatiCandidate(_load_field(config, f_name, n), _load_field(config, v_name, n))


# -- command handlers ---------------------------------------------------------

def _cmd_verify_identities(config, args):
    n = _require(config, "n", int)
    if n < 2:
        raise ConfigError("verify-identities needs n >= 2")
    seed = args.seed if args.seed is not None else _optional(config, "seed", int, 0)
    rounds = _optional(config, "rounds", int, 25)
    entries = identity_suite(n, seed, rounds)
    reports = [
        {"name": e.name, "sup_norm": e.worst, "tolerance": e.tolerance,
         "samples_used": e.samples, "pass": e.passed}
        for e in entries
    ]
    return reports, {}, all(e.passed for e in entries)


def _cmd_riccati_check(config, args):
    n = _require(config, "n", int)
    eps = _eps(config, args)
    cand = _candidate(config, n)
    grid = _load_grid(config, n)
    report = riccati_residual(cand, grid, eps=eps)
    named = [("riccati", report)]
    sample = cand.f.value(tuple((lo + hi) / 2 for lo, hi in grid.box))
    if sample.is_homogeneous(1):
        scalar_rep, bivector_rep = vector_split_residuals(cand, grid, eps=eps)
        named += [("scalar_part", scalar_rep), ("bivector_part", bivector_rep)]
    return _report_dicts(named), {"candidate": cand.to_json()}, all(r.passed for _, r in named)


def _cmd_riccati_separable(config, args):
    n = _require(config, "n", int)
    eps = _eps(config, args, EPS_FD)
    grid = _load_grid(config, n)
    try:
        v_list = [parse(src, n) for src in _require(config, "v_list", list)]
    except ExprError as err:
        raise ConfigError(f"v_list: {err}") from err
    x0 = _number_list(config, "x0", n)
    f0 = _number_list(config, "f0", n)
    step = _optional(config, "ode_step", NUMBER, 1e-3)
    if not step > 0:
        raise ConfigError("config key 'ode_step' must be positive")
    try:
        cand = separable_solve(v_list, x0, f0, grid.box, step=step)
    except OdeBlowupError as err:
        rep = ResidualReport(float("inf"), float("inf"), (err.x,), 0, eps, False)
        return _report_dicts([("riccati", rep)]), {"blow_up": {"axis": err.axis, "x": err.x}}, False
    report = riccati_residual(cand, grid, eps=eps)
    return _report_dicts([("riccati", report)]), {}, report.passed


def _cmd_euler_shift(config, args):
    n = _require(config, "n", int)
    eps = _eps(config, args)
    h = _candidate(config, n, "h", "v")
    phi = _load_field(config, "phi", n)
    cand, report = euler_shift(h, phi, _load_grid(config, n), eps=eps)
    return _report_dicts([("riccati", report)]), {"provenance": cand.provenance}, report.passed


def _cmd_euler_combine(config, args):
    n = _require(config, "n", int)
    eps = _eps(config, args)
    K = _complex(_require(config, "K"), "K")
    phi1 = _load_field(config, "phi1", n)
    phi2 = _load_field(config, "phi2", n)
    v = _load_field(config, "v", n)
    cand, report = euler_combine(phi1, phi2, K, v, _load_grid(config, n), eps=eps)
    return _report_dicts([("riccati", report)]), {"provenance": cand.provenance}, report.passed


def _cmd_family_gap(config, args):
    n = _require(config, "n", int)
    eps = _eps(config, args)
    K_samples = [_complex(s, "K_samples entry") for s in _require(config, "K_samples", list)]
    margin = _optional(config, "margin", NUMBER, 0.1)
    result = combination_family_gap(n, _load_grid(config, n), K_samples, margin=margin, eps=eps)
    extras = {
        "margin": margin,
        "min_distance": result.extra["min_distance"],
        "distances": {str(k): v for k, v in result.distances.items()},
    }
    return _report_dicts([("constant_solution", result.base_report)]), extras, result.passed


def _cmd_darboux(config, args):
    n = _require(config, "n", int)
    eps = _eps(config, args)
    f = _load_field(config, "f", n)
    g = _load_field(config, "g", n)
    lam = _load_lambda(config)
    _, result = darboux_transform(f, g, lam, _load_grid(config, n), eps=eps)
    return _pipeline_reports(result)


def _cmd_darboux_vector(config, args):
    n = _require(config, "n", int)
    eps = _eps(config, args)
    result = darboux_scalar_pipeline(_candidate(config, n), _load_field(config, "phi", n),
                                     _load_lambda(config), _load_grid(config, n), eps=eps)
    return _pipeline_reports(result)


def _cmd_darboux_bivector(config, args):
    n = _require(config, "n", int)
    eps = _eps(config, args)
    result = darboux_vector_pipeline(_load_field(config, "f", n), _load_field(config, "g", n),
                                     _load_lambda(config), _load_grid(config, n), eps=eps)
    return _pipeline_reports(result)


def _cmd_darboux_kvector(config, args):
    n = _require(config, "n", int)
    eps = _eps(config, args)
    k = _require(config, "k", int)
    result = darboux_kvector_pipeline(_load_field(config, "f", n), _load_field(config, "g", n),
                                      k, _load_lambda(config), _load_grid(config, n), eps=eps)
    return _pipeline_reports(result)


def _decomposition_output(result, grid):
    center = tuple((lo + hi) / 2 for lo, hi in grid.box)
    named = [
        ("squared_operator", result.precondition_report),
        ("plus_kernel", result.plus_kernel_report),
        ("minus_kernel", result.minus_kernel_report),
    ]
    extras = {
        "reassembly_residual": result.reassembly_residual,
        "g_plus_at_center": result.g_plus.value(center).render(),
        "g_minus_at_center": result.g_minus.value(center).render(),
        "variant": result.variant,
    }
    return _report_dicts(named), extras, result.passed


def _cmd_decompose(config, args):
    n = _require(config, "n", int)
    eps = _eps(config, args)
    grid = _load_grid(config, n)
    result = decompose_schrodinger_solution(_candidate(config, n), _load_mode(config, n),
                                            _load_lambda(config), _load_field(config, "phi", n),
                                            grid, eps=eps)
    return _decomposition_output(result, grid)


def _cmd_decompose_dual(config, args):
    n = _require(config, "n", int)
    eps = _eps(config, args)
    grid = _load_grid(config, n)
    result = decompose_conjugate_solution(_load_field(config, "f", n), _load_mode(config, n),
                                          _load_lambda(config), _load_field(config, "phi", n),
                                          grid, eps=eps)
    return _decomposition_output(result, grid)


COMMANDS = {
    "verify-identities": _cmd_verify_identities,
    "riccati-check": _cmd_riccati_check,
    "riccati-separable": _cmd_riccati_separable,
    "euler-shift": _cmd_euler_shift,
    "euler-combine": _cmd_euler_combine,
    "family-gap": _cmd_family_gap,
    "darboux": _cmd_darboux,
    "darboux-vector": _cmd_darboux_vector,
    "darboux-bivector": _cmd_darboux_bivector,
    "darboux-kvector": _cmd_darboux_kvector,
    "decompose": _cmd_decompose,
    "decompose-dual": _cmd_decompose_dual,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cliffcalc",
        description="Numerical verification of Clifford-analysis operator identities.")
    parser.add_argument("command", nargs="?", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--tol", type=float, default=None, help="override the tolerance scale")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--list-claims", action="store_true",
                        help="print what identity each command verifies and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_claims:
        width = max(len(name) for name in CLAIMS)
        for name in sorted(CLAIMS):
            print(f"{name:<{width}}  {CLAIMS[name]}")
        return 0
    if not args.command:
        print("error: a command is required (or --list-claims)", file=sys.stderr)
        return 2
    if not args.config:
        print("error: --config is required", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
        reports, extras, passed = COMMANDS[args.command](config, args)
    except (ConfigError, ExprError, AlgebraError, ModeError, json.JSONDecodeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (PreconditionError, FieldError, ArithmeticError) as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": config,
        "reports": reports,
        "extras": extras,
        "overall_pass": passed,
        "wall_time_s": time.perf_counter() - start,
    }
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if passed else 1


def _json_default(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"not JSON serializable: {value!r}")


if __name__ == "__main__":
    sys.exit(main())
