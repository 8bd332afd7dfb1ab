"""Seeded random inputs and the randomized identity suite.

Shared by the CLI `verify-identities` command and the test suite: all
generation is driven by one random.Random instance, so a fixed seed gives
byte-identical reports.

Each identity family adds a round's raw (residual norm, scale) samples to
one fields.Tally a name, and each name's entry is its Tally's report, by the
tolerance rule of the grid checks under the entry's own eps. Every field
identity is read through one sweep (fields.Points): the Leibniz rules and
the closed forms draw all the points of a random field first and sweep them
together, and the operator identities sweep their pairs of fields at the
round's one point. Evaluation draws no random numbers, so the stream, and
every report, is that of a field evaluated point by point.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .algebra import Multivector, conjugate, dot_and_wedge, linear_combine
from .darboux import CLOSED_FORMS, closed_forms, minus_op, plus_op, pure_field
from .fields import ExprField, Identity, Points, Tally, grid_residuals, leibniz_field, right_const_mul_field
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


def _entries(family, eps, rng, n, rounds):
    """One family's entries: family(rng, n, tallies) adds a round's samples to tallies (name -> Tally),
    and each name's entry, in the order of `eps` (name -> eps), reports them all under its eps."""
    tallies = {name: Tally(eps=e) for name, e in eps.items()}
    for _ in range(rounds):
        family(rng, n, tallies)
    return [(name, replace(tally.report(), rms=None, worst_point=None)) for name, tally in tallies.items()]


def _sweep(tallies, checks, rng, n, count):
    """Add the samples of each (name, identity) check at `count` random points, drawn now and swept once."""
    grid_residuals([(check, None) for _, check in checks], Points(random_point(rng, n) for _ in range(count)),
                   tallies=[tallies[name] for name, _ in checks])


def _gap(a, b):
    """a = b, scaled by |b|, for the fields a and b."""
    return Identity(a, b, b)


_ALGEBRA = {f"algebra/{law}": 1e-12 for law in ["anticommutation", "associativity", "anti_involution",
                                                 "grade_completeness", "vector_square_scalar", "product_split"]}


def _algebra_round(rng, n, tallies):
    def take(name, residual, scale=0.0):
        tallies[name].take((None,), (0,), (residual.norm(),), (scale,))

    a, b, c = (random_multivector(rng, n) for _ in range(3))
    take("algebra/associativity", (a * b) * c - a * (b * c), a.norm() * b.norm() * c.norm())
    take("algebra/anti_involution", conjugate(a * b) - conjugate(b) * conjugate(a), a.norm() * b.norm())
    take("algebra/grade_completeness", linear_combine([1.0] * (n + 1), [a.grade(k) for k in range(n + 1)]) - a)
    for j in range(1, n + 1):
        ej = Multivector.basis(n, j)
        take("algebra/anticommutation", ej * ej + Multivector.scalar(n, 1.0))
        for k in range(j + 1, n + 1):
            ek = Multivector.basis(n, k)
            take("algebra/anticommutation", ej * ek + ek * ej)
    x, y = (random_multivector(rng, n, grades={1}) for _ in range(2))
    sq = x * x + Multivector.scalar(n, sum(v * v for v in x.terms.values()))
    take("algebra/vector_square_scalar", sq, sum(abs(v) ** 2 for v in x.terms.values()))
    dot, wedge = dot_and_wedge(x, y)
    take("algebra/product_split", x * y - Multivector.scalar(n, dot) - wedge)


def _leibniz_round(rng, n, tallies):
    """The graded Leibniz rules, each at 3 points of its first factor."""
    phi = random_scalar_field(rng, n)
    f = random_mv_field(rng, n)
    _sweep(tallies, [("leibniz/scalar", Identity(leibniz_field(phi, f, 0)))], rng, n, 3)
    for k in range(n + 1):
        gk = random_kvector_field(rng, n, k)
        _sweep(tallies, [(f"leibniz/kvector_k{k}", Identity(leibniz_field(gk, f, k)))], rng, n, 3)


_CLOSED_FORM = dict.fromkeys([f"closed_form/{which}" for which in CLOSED_FORMS + ("minus_plus_scalar",)], 1e-10)


def _closed_form_round(rng, n, tallies):
    f = random_mv_field(rng, n, grades={1})
    for k in range(n + 1):
        forms = closed_forms(f, pure_field(random_kvector_field(rng, n, k), k, f"field is not a pure {k}-vector"), k)
        _sweep(tallies, [(f"closed_form/{which}", _gap(*forms[which])) for which in CLOSED_FORMS], rng, n, 2)
    phi = pure_field(random_scalar_field(rng, n), 0, "field is not a pure 0-vector")
    _sweep(tallies, [("closed_form/minus_plus_scalar", _gap(*closed_forms(f, phi, 0)["minus_plus"]))], rng, n, 2)


_OPERATOR = {"operator/two_factorized_forms": 1e-10, "operator/square_matches_composition": 1e-10,
             "operator/unit_conjugation_flips_sign": 1e-10, "operator/unit_involution": 1e-12}


def _operator_round(rng, n, tallies):
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
    _sweep(tallies, [
        ("operator/two_factorized_forms", _gap(plus_op(f).field(g_ie), a_g)),
        ("operator/square_matches_composition", _gap(operator_field(f, mode, a_g, "A"), plus_op(f).field(minus_g))),
        ("operator/square_matches_composition", _gap(operator_field(f, mode, b_g, "B"), minus_op(f).field(plus_g))),
        ("operator/unit_conjugation_flips_sign", _gap(right_const_mul_field(minus_op(f).field(g_ie), ie), plus_g)),
        ("operator/unit_involution", _gap(right_const_mul_field(g_ie, ie), g))], rng, n, 1)


def identity_suite(n: int, seed: int, rounds: int = 25):
    """Run every randomized identity family; returns (name, ResidualReport) pairs."""
    rng = random.Random(seed)
    few = max(2, rounds // 5)
    leibniz = dict.fromkeys(["leibniz/scalar"] + [f"leibniz/kvector_k{k}" for k in range(n + 1)], 1e-9)
    return (_entries(_algebra_round, _ALGEBRA, rng, n, rounds)
            + _entries(_leibniz_round, leibniz, rng, n, few)
            + _entries(_closed_form_round, _CLOSED_FORM, rng, n, few)
            + _entries(_operator_round, _OPERATOR, rng, n, few))
