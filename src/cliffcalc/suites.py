"""Seeded random inputs and the randomized identity suite.

Shared by the CLI `verify-identities` command and the test suite: all
generation is driven by one random.Random instance, so a fixed seed gives
byte-identical reports.

Each identity family is a round of (name, residual norm) pairs, and one
routine (_entries) keeps each name's worst norm over the rounds. Every field
identity is read through one sweep (fields.Points, by the grid's rule): the
Leibniz rules and the closed forms draw all the points of a random field
first and sweep them together, and the operator identities sweep their
pairs of fields at the round's one point. Evaluation draws no random
numbers, so the stream, and every report, is that of a field evaluated
point by point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .algebra import Multivector, conjugate, dot_and_wedge, linear_combine
from .darboux import CLOSED_FORMS, closed_forms, minus_op, plus_op, pure_field
from .fields import (
    ExprField,
    Points,
    grid_residuals,
    kvector_leibniz_residual,
    right_const_mul_field,
    scalar_leibniz_residual,
)
from .kernel import default_mode, operator_field


def random_point(rng: random.Random, n, lo=-1.0, hi=1.0):
    return tuple(rng.uniform(lo, hi) for _ in range(n))


def random_multivector(rng: random.Random, n, grades=None) -> Multivector:
    masks = [m for m in range(1 << n) if grades is None or m.bit_count() in grades]
    count = rng.randint(1, min(5, len(masks)))
    chosen = rng.sample(masks, count)
    return Multivector(n, {m: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for m in chosen})


def random_expr_str(rng: random.Random, n, transcendental=True) -> str:
    """Small smooth expression, bounded on [-1, 1]^n."""

    def coeff():
        return f"{rng.uniform(0.1, 1.2):.3f}"

    def var():
        return f"x{rng.randint(1, n)}"

    pool = [
        lambda: coeff(),
        lambda: f"{coeff()}*{var()}",
        lambda: f"{coeff()}*{var()}*{var()}",
        lambda: f"{coeff()}*{var()}^2",
    ]
    if transcendental:
        pool += [
            lambda: f"exp({coeff()}*{var()})",
            lambda: f"sin({coeff()}*{var()})",
            lambda: f"cos({coeff()}*{var()})",
        ]
    terms = [rng.choice(pool)() for _ in range(rng.randint(2, 3))]
    out = terms[0]
    for t in terms[1:]:
        out += f" {rng.choice('+-')} {t}"
    return out


def random_scalar_field(rng, n, transcendental=True) -> ExprField:
    return ExprField.scalar(n, random_expr_str(rng, n, transcendental))


def random_mv_field(rng, n, grades=None, transcendental=True) -> ExprField:
    return _random_field(rng, n, [m for m in range(1 << n) if grades is None or m.bit_count() in grades],
                         transcendental)


def _random_field(rng, n, masks, transcendental=True) -> ExprField:
    """A field of 1 to 3 of the blades `masks`, each a random expression."""
    chosen = rng.sample(masks, rng.randint(1, min(3, len(masks))))
    return ExprField(n, {m: random_expr_str(rng, n, transcendental) for m in chosen})


def random_kvector_field(rng, n, k, transcendental=True) -> ExprField:
    return random_mv_field(rng, n, grades={k}, transcendental=transcendental)


@dataclass
class SuiteEntry:
    name: str
    worst: float
    tolerance: float
    samples: int

    @property
    def passed(self):
        return self.worst <= self.tolerance

    def to_dict(self):
        return {"sup_norm": self.worst, "tolerance": self.tolerance,
                "samples_used": self.samples, "pass": self.passed}


def _entries(family, tolerances, rng, n, rounds, samples_per_round=1):
    """One family's entries: family(rng, n) yields a round's (name, residual norm) pairs, and each
    name's entry, in the order of `tolerances` (name -> tolerance), holds its worst norm."""
    worst = dict.fromkeys(tolerances, 0.0)
    for _ in range(rounds):
        for name, residual in family(rng, n):
            # NaN compares false with everything, so it is taken as the worst explicitly
            if residual > worst[name] or math.isnan(residual):
                worst[name] = residual
    return [SuiteEntry(name, worst[name], tol, rounds * samples_per_round) for name, tol in tolerances.items()]


def _sups(residuals, rng, n, count):
    """The sup of each residual's norm over `count` random points, drawn now and swept once."""
    checks = [(lambda p, residual=residual: (residual(p), 0.0), None) for residual in residuals]
    return [report.sup_norm for report in grid_residuals(checks, Points(random_point(rng, n) for _ in range(count)))]


def _gap(a, b):
    """p -> the gap between the fields a and b at p, relative to b; reads a, then b."""

    def gap(p):
        av, bv = a.value(p), b.value(p)
        return (av - bv).norm() / (1.0 + bv.norm())

    return gap


_ALGEBRA = {f"algebra/{law}": 1e-12 for law in ["anticommutation", "associativity", "anti_involution",
                                                 "grade_completeness", "vector_square_scalar", "product_split"]}


def _algebra_round(rng, n):
    a, b, c = (random_multivector(rng, n) for _ in range(3))
    scale = 1.0 + a.norm() * b.norm() * c.norm()
    yield "algebra/associativity", ((a * b) * c - a * (b * c)).norm() / scale
    invol = conjugate(a * b) - conjugate(b) * conjugate(a)
    yield "algebra/anti_involution", invol.norm() / (1.0 + a.norm() * b.norm())
    total = linear_combine([1.0] * (n + 1), [a.grade(k) for k in range(n + 1)])
    yield "algebra/grade_completeness", (total - a).norm()
    for j in range(1, n + 1):
        ej = Multivector.basis(n, j)
        yield "algebra/anticommutation", (ej * ej + Multivector.scalar(n, 1.0)).norm()
        for k in range(j + 1, n + 1):
            ek = Multivector.basis(n, k)
            yield "algebra/anticommutation", (ej * ek + ek * ej).norm()
    x, y = (random_multivector(rng, n, grades={1}) for _ in range(2))
    sq = x * x + Multivector.scalar(n, sum(v * v for v in x.terms.values()))
    yield "algebra/vector_square_scalar", sq.norm() / (1 + sum(abs(v) ** 2 for v in x.terms.values()))
    dot, wedge = dot_and_wedge(x, y)
    yield "algebra/product_split", (x * y - Multivector.scalar(n, dot) - wedge).norm()


def _leibniz_round(rng, n):
    """The graded Leibniz rules, each at 3 points of its first factor."""
    phi = random_scalar_field(rng, n)
    f = random_mv_field(rng, n)
    yield "leibniz/scalar", _sups([lambda p: scalar_leibniz_residual(phi, f, p)], rng, n, 3)[0]
    for k in range(n + 1):
        gk = random_kvector_field(rng, n, k)
        yield f"leibniz/kvector_k{k}", _sups([lambda p: kvector_leibniz_residual(gk, f, k, p)], rng, n, 3)[0]


_CLOSED_FORM = dict.fromkeys([f"closed_form/{which}" for which in CLOSED_FORMS + ("minus_plus_scalar",)], 1e-10)


def _closed_form_round(rng, n):
    f = random_mv_field(rng, n, grades={1})
    for k in range(n + 1):
        forms = closed_forms(f, pure_field(random_kvector_field(rng, n, k), k, f"field is not a pure {k}-vector"), k)
        sups = _sups([_gap(*forms[which]) for which in CLOSED_FORMS], rng, n, 2)
        yield from zip([f"closed_form/{which}" for which in CLOSED_FORMS], sups)
    phi = pure_field(random_scalar_field(rng, n), 0, "field is not a pure 0-vector")
    yield "closed_form/minus_plus_scalar", _sups([_gap(*closed_forms(f, phi, 0)["minus_plus"])], rng, n, 2)[0]


_OPERATOR = {"operator/two_factorized_forms": 1e-10, "operator/square_matches_composition": 1e-10,
             "operator/unit_conjugation_flips_sign": 1e-10, "operator/unit_involution": 1e-12}


def _operator_round(rng, n):
    """The identities of the unit-element conjugated operators, at one point."""
    mode = default_mode(n)
    ie = mode.element
    # in last-axis mode f has no e_n component
    f = random_mv_field(rng, n, grades={1}) if mode.kind == "full_pseudoscalar" else \
        _random_field(rng, n, [1 << j for j in range(n - 1)])
    g = random_mv_field(rng, n)
    # each factor on g and on g iE is built once; the two on g share D(g) and g f, and so on g iE
    minus_g, plus_g = minus_op(f).field(g), plus_op(f).field(g)
    a_g, b_g = right_const_mul_field(minus_g, ie), right_const_mul_field(plus_g, ie)
    g_ie = right_const_mul_field(g, ie)
    # in order: A g = (D + M^f)(g iE); A^2 g = (D + M^f)(D - M^f) g and B^2 g = (D - M^f)(D + M^f) g;
    # ((D - M^f)(g iE)) iE = (D + M^f) g; (g iE) iE = g
    gaps = [("operator/two_factorized_forms", _gap(plus_op(f).field(g_ie), a_g)),
            ("operator/square_matches_composition", _gap(operator_field(f, mode, a_g, "A"), plus_op(f).field(minus_g))),
            ("operator/square_matches_composition", _gap(operator_field(f, mode, b_g, "B"), minus_op(f).field(plus_g))),
            ("operator/unit_conjugation_flips_sign", _gap(right_const_mul_field(minus_op(f).field(g_ie), ie), plus_g)),
            ("operator/unit_involution", _gap(right_const_mul_field(g_ie, ie), g))]
    return zip([name for name, _ in gaps], _sups([gap for _, gap in gaps], rng, n, 1))


def identity_suite(n: int, seed: int, rounds: int = 25):
    """Run every randomized identity family; returns a list of SuiteEntry."""
    rng = random.Random(seed)
    few = max(2, rounds // 5)
    leibniz = dict.fromkeys(["leibniz/scalar"] + [f"leibniz/kvector_k{k}" for k in range(n + 1)], 1e-9)
    return (_entries(_algebra_round, _ALGEBRA, rng, n, rounds)
            + _entries(_leibniz_round, leibniz, rng, n, few, 3)
            + _entries(_closed_form_round, _CLOSED_FORM, rng, n, few)
            + _entries(_operator_round, _OPERATOR, rng, n, few))
