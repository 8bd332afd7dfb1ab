"""Seeded random inputs and the randomized identity suite.

Shared by the CLI `verify-identities` command and the test suite: all
generation is driven by one random.Random instance, so a fixed seed gives
byte-identical reports.

The Leibniz rules and the closed forms draw all the points of a random
field first and sweep them together (fields.Points, by the grid's rule).
Evaluation draws no random numbers, so the stream, and every report, is
that of a field evaluated point by point.
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
    masks = [m for m in range(1 << n) if grades is None or m.bit_count() in grades]
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


def _worse(worst, x):
    """The worse of two residual norms; NaN compares false with everything, so it is taken as the worst."""
    return x if x > worst or math.isnan(x) else worst


def _algebra_entries(rng, n, rounds):
    anti = assoc = invol = grades = vector_sq = split = 0.0
    for _ in range(rounds):
        a = random_multivector(rng, n)
        b = random_multivector(rng, n)
        c = random_multivector(rng, n)
        scale = 1.0 + a.norm() * b.norm() * c.norm()
        assoc = _worse(assoc, ((a * b) * c - a * (b * c)).norm() / scale)
        invol = _worse(invol, (conjugate(a * b) - conjugate(b) * conjugate(a)).norm() / (1.0 + a.norm() * b.norm()))
        total = linear_combine([1.0] * (n + 1), [a.grade(k) for k in range(n + 1)])
        grades = _worse(grades, (total - a).norm())
        for j in range(1, n + 1):
            ej = Multivector.basis(n, j)
            anti = _worse(anti, (ej * ej + Multivector.scalar(n, 1.0)).norm())
            for k in range(j + 1, n + 1):
                ek = Multivector.basis(n, k)
                anti = _worse(anti, (ej * ek + ek * ej).norm())
        x = random_multivector(rng, n, grades={1})
        y = random_multivector(rng, n, grades={1})
        sq = x * x
        norm2 = sum(abs(v) ** 2 for v in x.terms.values())
        vector_sq = _worse(vector_sq, (sq + Multivector.scalar(n, sum(v * v for v in x.terms.values()))).norm() / (1 + norm2))
        dot, wedge = dot_and_wedge(x, y)
        split = _worse(split, (x * y - Multivector.scalar(n, dot) - wedge).norm())
    return [
        SuiteEntry("algebra/anticommutation", anti, 1e-12, rounds),
        SuiteEntry("algebra/associativity", assoc, 1e-12, rounds),
        SuiteEntry("algebra/anti_involution", invol, 1e-12, rounds),
        SuiteEntry("algebra/grade_completeness", grades, 1e-12, rounds),
        SuiteEntry("algebra/vector_square_scalar", vector_sq, 1e-12, rounds),
        SuiteEntry("algebra/product_split", split, 1e-12, rounds),
    ]


def _random_points(rng, n, count):
    return [random_point(rng, n) for _ in range(count)]


def _sups(residuals, points):
    """The sup over the points of each residual's norm, from one sweep of the points."""
    checks = [(lambda p, residual=residual: (residual(p), 0.0), None) for residual in residuals]
    return [report.sup_norm for report in grid_residuals(checks, Points(points))]


def _leibniz_entries(rng, n, rounds):
    points_per_round = 3
    worst_scalar = 0.0
    worst_k = {k: 0.0 for k in range(n + 1)}
    for _ in range(rounds):
        phi = random_scalar_field(rng, n)
        f = random_mv_field(rng, n)
        sup, = _sups([lambda p: scalar_leibniz_residual(phi, f, p)], _random_points(rng, n, points_per_round))
        worst_scalar = _worse(worst_scalar, sup)
        for k in range(n + 1):
            gk = random_kvector_field(rng, n, k)
            sup, = _sups([lambda p: kvector_leibniz_residual(gk, f, k, p)], _random_points(rng, n, points_per_round))
            worst_k[k] = _worse(worst_k[k], sup)
    out = [SuiteEntry("leibniz/scalar", worst_scalar, 1e-9, rounds * points_per_round)]
    for k in range(n + 1):
        out.append(SuiteEntry(f"leibniz/kvector_k{k}", worst_k[k], 1e-9, rounds * points_per_round))
    return out


def _gap(a, b):
    """p -> the gap between the fields a and b at p, relative to b; reads a, then b."""

    def gap(p):
        av, bv = a.value(p), b.value(p)
        return (av - bv).norm() / (1.0 + bv.norm())

    return gap


def _closed_form_entries(rng, n, rounds):
    points_per_round = 2
    worst = {name: 0.0 for name in CLOSED_FORMS + ("minus_plus_scalar",)}
    for _ in range(rounds):
        f = random_mv_field(rng, n, grades={1})
        for k in range(n + 1):
            g = pure_field(random_kvector_field(rng, n, k), k, f"field is not a pure {k}-vector")
            forms = closed_forms(f, g, k)
            sups = _sups([_gap(*forms[which]) for which in CLOSED_FORMS], _random_points(rng, n, points_per_round))
            for which, sup in zip(CLOSED_FORMS, sups):
                worst[which] = _worse(worst[which], sup)
        phi = pure_field(random_scalar_field(rng, n), 0, "field is not a pure 0-vector")
        sup, = _sups([_gap(*closed_forms(f, phi, 0)["minus_plus"])], _random_points(rng, n, points_per_round))
        worst["minus_plus_scalar"] = _worse(worst["minus_plus_scalar"], sup)
    return [SuiteEntry(f"closed_form/{name}", w, 1e-10, rounds) for name, w in worst.items()]


def _operator_entries(rng, n, rounds):
    """Pointwise identities for the unit-element conjugated operators."""
    mode = default_mode(n)
    ie = mode.element
    restrict = None if mode.kind == "full_pseudoscalar" else set(range(1, n))
    worst_forms = worst_square = worst_conj = worst_unit = 0.0
    for _ in range(rounds):
        if restrict is None:
            f = random_mv_field(rng, n, grades={1})
        else:
            masks = [1 << (j - 1) for j in restrict]
            chosen = rng.sample(masks, rng.randint(1, min(3, len(masks))))
            f = ExprField(n, {m: random_expr_str(rng, n) for m in chosen})
        g = random_mv_field(rng, n)
        p = random_point(rng, n)
        # each factor on g and on g iE is built once; the two on g share D(g) and g f, and so on g iE
        minus_g, plus_g = minus_op(f).field(g), plus_op(f).field(g)
        a_g, b_g = right_const_mul_field(minus_g, ie), right_const_mul_field(plus_g, ie)
        g_ie = right_const_mul_field(g, ie)
        plus_g_ie, minus_g_ie = plus_op(f).field(g_ie), minus_op(f).field(g_ie)
        squares = [(operator_field(f, mode, a_g, "A"), plus_op(f).field(minus_g)),
                   (operator_field(f, mode, b_g, "B"), minus_op(f).field(plus_g))]
        # the two factorized forms of A agree
        a_of_g = a_g.value(p)
        other = plus_g_ie.value(p)
        worst_forms = _worse(worst_forms, (a_of_g - other).norm() / (1.0 + a_of_g.norm()))
        # A^2 and B^2 equal the plus-minus and minus-plus compositions
        for square, composition in squares:
            sq, comp = square.value(p), composition.value(p)
            worst_square = _worse(worst_square, (sq - comp).norm() / (1.0 + comp.norm()))
        # conjugation by the unit flips the factor sign
        conj = right_const_mul_field(minus_g_ie, ie).value(p)
        plus = plus_g.value(p)
        worst_conj = _worse(worst_conj, (conj - plus).norm() / (1.0 + plus.norm()))
        # right multiplication by iE is an involution
        gv = g.value(p)
        worst_unit = _worse(worst_unit, ((gv * ie) * ie - gv).norm() / (1.0 + gv.norm()))
    return [
        SuiteEntry("operator/two_factorized_forms", worst_forms, 1e-10, rounds),
        SuiteEntry("operator/square_matches_composition", worst_square, 1e-10, rounds),
        SuiteEntry("operator/unit_conjugation_flips_sign", worst_conj, 1e-10, rounds),
        SuiteEntry("operator/unit_involution", worst_unit, 1e-12, rounds),
    ]


def identity_suite(n: int, seed: int, rounds: int = 25):
    """Run every randomized identity family; returns a list of SuiteEntry."""
    rng = random.Random(seed)
    entries = []
    entries += _algebra_entries(rng, n, rounds)
    entries += _leibniz_entries(rng, n, max(2, rounds // 5))
    entries += _closed_form_entries(rng, n, max(2, rounds // 5))
    entries += _operator_entries(rng, n, max(2, rounds // 5))
    return entries
