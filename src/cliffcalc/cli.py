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

from .algebra import MAX_DIM, AlgebraError, blade_grade
from .darboux import (
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
    ODE_DEFAULT_STEP,
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

SCHEMA_VERSION = 2
NUMBER = (int, float)


class ConfigError(ValueError):
    pass


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


def _finite(x) -> bool:
    """Whether the number x lies in the double range: NaN, the infinities and larger JSON integers do not."""
    return abs(x) <= sys.float_info.max


def _positive(value, key):
    if not (_finite(value) and value > 0):
        raise ConfigError(f"{key} must be a finite positive number, got {value!r}")
    return value


def _complex(raw, what) -> complex:
    """A number, [re, im] or {"re": re, "im": im} as a complex number."""
    if isinstance(raw, dict):
        stray = [key for key in raw if key not in ("re", "im")]
        if stray:
            raise ConfigError(f"{what} has the unknown key {stray[0]!r}: an object holds only re and im")
        raw = [raw.get("re", 0.0), raw.get("im", 0.0)]
    parts = raw if isinstance(raw, list) and len(raw) == 2 else [raw, 0.0]
    if not all(_is_a(x, NUMBER) and _finite(x) for x in parts):
        raise ConfigError(f"{what} must be a finite number, [re, im], or {{re, im}}")
    return complex(*parts)


class _Config:
    """One command's JSON config: `n` is read up front, every other key when
    the command asks for it, so each command validates its keys in its own order."""

    def __init__(self, raw, args):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        self.raw = raw
        self.args = args
        self.n = _require(raw, "n", int)
        if not 1 <= self.n <= MAX_DIM:  # before any work that grows with n
            raise ConfigError(f"config key 'n' must be in 1..{MAX_DIM}, got {self.n}")

    def require(self, key, kind=None):
        return _require(self.raw, key, kind)

    def optional(self, key, kind, default):
        return _optional(self.raw, key, kind, default)

    def eps(self, default=EPS_EXACT):
        return _positive(self.args.tol if self.args.tol is not None else self.optional("tolerance", NUMBER, default),
                         "tolerance")

    def number_list(self, key):
        """An optional list of n finite numbers, all zero by default."""
        value = self.raw.get(key, [0.0] * self.n)
        if not (isinstance(value, list) and len(value) == self.n
                and all(_is_a(x, NUMBER) and _finite(x) for x in value)):
            raise ConfigError(f"config key {key!r} must be a list of {self.n} finite numbers")
        return value

    def field(self, name) -> ExprField:
        fields = self.require("fields", dict)
        if name not in fields:
            raise ConfigError(f"config defines no field named {name!r}")
        raw = fields[name]
        try:
            if isinstance(raw, str):
                return ExprField.scalar(self.n, raw)
            if isinstance(raw, dict):
                return ExprField(self.n, raw)
        except (ExprError, AlgebraError, FieldError) as err:
            raise ConfigError(f"field {name!r}: {err}") from err
        raise ConfigError(f"field {name!r} must be an expression string or a blade->expression map")

    def candidate(self, f_name="f", v_name="v") -> RiccatiCandidate:
        return RiccatiCandidate(self.field(f_name), self.field(v_name))

    def grid(self) -> GridSpec:
        grid = self.optional("grid", dict, {})
        box = _optional(grid, "box", list, [[-1.0, 1.0]] * self.n)
        if len(box) != self.n:
            raise ConfigError(f"grid box has {len(box)} axes, expected {self.n}")
        if not all(isinstance(axis, list) and len(axis) == 2 and all(_is_a(x, NUMBER) for x in axis) for axis in box):
            raise ConfigError("grid box axes must be [lo, hi] pairs of numbers")
        samples = _optional(grid, "samples_per_axis", int, 11)
        try:
            return GridSpec(tuple((float(lo), float(hi)) for lo, hi in box), samples)
        except (FieldError, OverflowError) as err:  # an integer bound too large for a double overflows
            raise ConfigError(f"bad grid: {err}") from err

    def lam(self) -> complex:
        lam = _complex(self.require("lambda"), "lambda")
        if lam == 0:
            raise ConfigError("lambda must be nonzero")
        return lam

    def mode(self) -> PseudoscalarMode:
        kind = self.raw.get("mode", "auto")
        try:
            if kind == "auto":
                return default_mode(self.n)
            if kind in ("full", "full_pseudoscalar"):
                return PseudoscalarMode("full_pseudoscalar", self.n)
            if kind == "last_axis":
                return PseudoscalarMode("last_axis", self.n)
        except ModeError as err:
            raise ConfigError(str(err)) from err
        raise ConfigError(f"unknown mode {kind!r}")


# -- command handlers ---------------------------------------------------------
# Each takes a _Config and returns (named reports, extras, passed): a list of
# (name, report) pairs whose reports have to_dict(), a JSON-ready dict, and
# the verdict.

def _cmd_verify_identities(c):
    if c.n < 2:
        raise ConfigError("verify-identities needs n >= 2")
    seed = c.args.seed if c.args.seed is not None else c.optional("seed", int, 0)
    rounds = c.optional("rounds", int, 25)
    if rounds < 1:
        raise ConfigError("config key 'rounds' must be at least 1")
    entries = identity_suite(c.n, seed, rounds)
    return entries, {}, all(r.passed for _, r in entries)


def _cmd_riccati_check(c):
    eps = c.eps()
    cand = c.candidate()
    grid = c.grid()
    split = all(blade_grade(m) == 1 for m in cand.f.components)
    reports = vector_split_residuals(cand, grid, eps=eps) if split else [riccati_residual(cand, grid, eps=eps)]
    named = list(zip(("riccati", "scalar_part", "bivector_part"), reports))
    return named, {"candidate": cand.to_json()}, all(r.passed for _, r in named)


def _cmd_riccati_separable(c):
    eps = c.eps(EPS_FD)
    grid = c.grid()
    try:
        v_list = [parse(src, c.n) for src in c.require("v_list", list)]
    except ExprError as err:
        raise ConfigError(f"v_list: {err}") from err
    x0 = c.number_list("x0")
    f0 = c.number_list("f0")
    step = c.optional("ode_step", NUMBER, ODE_DEFAULT_STEP)
    try:  # an int beyond the double range is a step as infinite as JSON's Infinity
        cand = separable_solve(v_list, x0, f0, grid.box, step=step if _finite(step) else math.inf)
    except FieldError as err:  # malformed input, or a step too small for the box
        raise ConfigError(str(err)) from err
    except OdeBlowupError as err:
        rep = ResidualReport(float("inf"), float("inf"), (err.x,), 0, eps, False)
        return [("riccati", rep)], {"blow_up": {"axis": err.axis, "x": err.x}}, False
    report = riccati_residual(cand, grid, eps=eps)
    return [("riccati", report)], {}, report.passed


def _cmd_euler_shift(c):
    eps = c.eps()
    cand, report = euler_shift(c.candidate("h", "v"), c.field("phi"), c.grid(), eps=eps)
    return [("riccati", report)], {"provenance": cand.provenance}, report.passed


def _cmd_euler_combine(c):
    eps = c.eps()
    K = _complex(c.require("K"), "K")
    cand, report = euler_combine(c.field("phi1"), c.field("phi2"), K, c.field("v"), c.grid(), eps=eps)
    return [("riccati", report)], {"provenance": cand.provenance}, report.passed


def _cmd_family_gap(c):
    eps = c.eps()
    K_samples = [_complex(s, "K_samples entry") for s in c.require("K_samples", list)]
    if not K_samples:
        raise ConfigError("config key 'K_samples' must be a non-empty list")
    margin = _positive(c.optional("margin", NUMBER, 0.1), "margin")
    grid = c.grid()
    if c.n < 3:
        raise ConfigError("family-gap needs n >= 3")
    result = combination_family_gap(c.n, grid, K_samples, margin=margin, eps=eps)
    extras = {
        "margin": margin,
        "min_distance": result.min_distance,
        "distances": {str(k): v for k, v in result.distances.items()},
    }
    return [("constant_solution", result.base_report)], extras, result.passed


def _cmd_darboux(c):
    eps = c.eps()
    _, result = darboux_transform(c.field("f"), c.field("g"), c.lam(), c.grid(), eps=eps)
    return result.reports(), {}, result.passed


def _cmd_darboux_vector(c):
    eps = c.eps()
    result = darboux_scalar_pipeline(c.candidate(), c.field("phi"), c.lam(), c.grid(), eps=eps)
    return result.reports(), {}, result.passed


def _cmd_darboux_bivector(c):
    eps = c.eps()
    result = darboux_vector_pipeline(c.field("f"), c.field("g"), c.lam(), c.grid(), eps=eps)
    return result.reports(), {}, result.passed


def _cmd_darboux_kvector(c):
    eps = c.eps()
    k = c.require("k", int)
    if not 0 <= k <= c.n:
        raise ConfigError(f"config key 'k' must be in 0..{c.n}")
    result = darboux_kvector_pipeline(c.field("f"), c.field("g"), k, c.lam(), c.grid(), eps=eps)
    return result.reports(), {}, result.passed


def _decomposition_output(result, grid):
    named = [
        ("squared_operator", result.precondition_report),
        ("plus_kernel", result.plus_kernel_report),
        ("minus_kernel", result.minus_kernel_report),
    ]
    extras = {
        "reassembly_residual": result.reassembly_residual,
        "g_plus_at_center": result.g_plus.value(grid.center).render(),
        "g_minus_at_center": result.g_minus.value(grid.center).render(),
        "variant": result.variant,
    }
    return named, extras, result.passed


def _cmd_decompose(c):
    eps = c.eps()
    grid = c.grid()
    result = decompose_schrodinger_solution(c.candidate(), c.mode(), c.lam(), c.field("phi"), grid, eps=eps)
    return _decomposition_output(result, grid)


def _cmd_decompose_dual(c):
    eps = c.eps()
    grid = c.grid()
    result = decompose_conjugate_solution(c.field("f"), c.mode(), c.lam(), c.field("phi"), grid, eps=eps)
    return _decomposition_output(result, grid)


# command name -> (the claim it verifies, handler)
COMMANDS = {
    "verify-identities": ("randomized suite: algebra laws, the two Leibniz rules, closed forms of the "
                          "factorized-operator compositions, unit-element operator identities",
                          _cmd_verify_identities),
    "riccati-check": ("residual of D(f) + f^2 = v, plus the scalar/bivector split for 1-vector f",
                      _cmd_riccati_check),
    "riccati-separable": ("axis-separated potential solved as n classical 1-D Riccati ODEs",
                          _cmd_riccati_separable),
    "euler-shift": ("new solution from a known one plus an admissible logarithmic derivative",
                    _cmd_euler_shift),
    "euler-combine": ("one-integration blend of two gradient solutions of the same equation",
                      _cmd_euler_combine),
    "family-gap": ("the two-solution blend family misses the constant solution e3 (n >= 3)",
                   _cmd_family_gap),
    "darboux": ("eigenfunction transport between the two factorized-operator compositions", _cmd_darboux),
    "darboux-vector": ("scalar Schroedinger eigenfunction mapped to a 1-vector eigen-solution",
                       _cmd_darboux_vector),
    "darboux-bivector": ("1-vector eigen-solution mapped to a scalar + bivector pair", _cmd_darboux_bivector),
    "darboux-kvector": ("grade-k eigen-solution mapped to its (k-1, k+1) grade pair", _cmd_darboux_kvector),
    "decompose": ("split a Schroedinger eigenfunction into two first-order kernel parts", _cmd_decompose),
    "decompose-dual": ("same split for the sign-flipped potential, via the B operator", _cmd_decompose_dual),
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
        width = max(len(name) for name in COMMANDS)
        for name, (claim, _) in sorted(COMMANDS.items()):
            print(f"{name:<{width}}  {claim}")
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
            try:
                config = json.load(fh)
            except (ValueError, RecursionError) as err:  # not JSON, an integer of over 4,300 digits, deep nesting
                raise ConfigError(err) from None
        _, handler = COMMANDS[args.command]
        named, extras, passed = handler(_Config(config, args))
    except (ConfigError, ExprError, AlgebraError, ModeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (PreconditionError, FieldError, ArithmeticError) as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": config,
        "reports": [{"name": name, **report.to_dict()} for name, report in named],
        "extras": extras,
        "overall_pass": passed,
        "wall_time_s": time.perf_counter() - start,
    }
    text = json.dumps(_strict_json(payload), indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if passed else 1


def _strict_json(value):
    """value with each complex number written as [re, im], and each non-finite float as the
    string "Infinity", "-Infinity" or "NaN": strict JSON (RFC 8259) has no token for them."""
    if isinstance(value, complex):
        value = [value.real, value.imag]
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, dict):
        return dict(zip(value, map(_strict_json, value.values())))
    if isinstance(value, (list, tuple)):
        return list(map(_strict_json, value))
    return value


if __name__ == "__main__":
    sys.exit(main())
