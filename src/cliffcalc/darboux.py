"""Factorized first-order operators D +/- M^f and their composition calculus.

M^f is right multiplication by the field f. The composition of the two
factorized operators acts like a Schroedinger operator on scalar fields and
admits closed forms on homogeneous k-vector fields; applying the opposite
factor maps eigenfunctions of one composition to the other (the Darboux
transform). Pipelines verify both the hypotheses and the conclusions of
these constructions numerically.

Each operator term on a field G is one node on G (MultivectorField.node), so every
operator on G computes it once per point: D(G) and G f for the factors, -Lap G and
the drift sum for schrodinger_field. A closed form and its direct side share none.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Multivector
from .fields import (
    EPS_EXACT,
    DerivedField,
    FieldError,
    GridSpec,
    Identity,
    MultivectorField,
    ResidualReport,
    grade_field,
    grid_residuals,
    mv_grade_shift_mul,
    mv_partial,
    mv_value,
)
from .riccati import riccati_check

CLOSED_FORMS = ("plus_minus", "minus_plus")


def as_lambda(value) -> complex:
    lam = complex(value)
    if lam == 0:
        raise FieldError("spectral parameter must be nonzero")
    return lam


def _right_mul(gj: Multivector, fj: Multivector) -> Multivector:
    """g f, right multiplication M^f of jets: the product node of every factor D +/- M^f."""
    return gj * fj


def _factor_jet(dj: Multivector, prodj: Multivector, sign: int) -> Multivector:
    """D g + g f (sign=+1) or D g - g f (sign=-1), from the jets of D g and of g f."""
    return dj + prodj if sign > 0 else dj - prodj


@dataclass(frozen=True)
class FactorizedOperator:
    """D + M^f (sign=+1) or D - M^f (sign=-1)."""

    f: MultivectorField
    sign: int

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise FieldError("sign must be +1 or -1")

    def field(self, g: MultivectorField) -> MultivectorField:
        """(D +/- M^f) g from the nodes D(g) and g f on g, which both factors on g share."""
        prod = g.node(("times", id(self.f)), lambda: DerivedField(_right_mul, (g, 0), (self.f, 0)))
        return DerivedField(lambda dj, pj: _factor_jet(dj, pj, self.sign), (g.dirac, 0), (prod, 0))


def plus_op(f):
    return FactorizedOperator(f, +1)


def minus_op(f):
    return FactorizedOperator(f, -1)


@dataclass
class PipelineResult:
    preconditions: dict
    conclusion: ResidualReport

    @property
    def passed(self):
        return self.conclusion.passed and all(r.passed for r in self.preconditions.values())

    def reports(self):
        return [(f"precondition:{k}", v) for k, v in self.preconditions.items()] + [("conclusion", self.conclusion)]


def eigen_check(lhs, g, lam) -> Identity:
    """lhs = lam^2 g, scaled by |lam^2 g|, for an operator field lhs applied to g."""
    lam2 = as_lambda(lam) ** 2
    lam2_g = DerivedField(lambda gj: lam2 * gj, (g, 0))
    return Identity(lhs, lam2_g, lam2_g)


def darboux_transform(f, g, lam, grid: GridSpec, eps=EPS_EXACT):
    """Map an eigenfunction g of (D+M^f)(D-M^f) to one of the swapped product.

    Returns h = (D - M^f) g together with the report certifying
    (D - M^f)(D + M^f) h = lam^2 h. The field (D + M^f) h serves both checks.
    """
    h = minus_op(f).field(g)
    plus_h = plus_op(f).field(h)
    pre, conclusion = grid_residuals([
        (eigen_check(plus_h, g, lam), "g is not an eigenfunction of the factorized operator"),
        (eigen_check(minus_op(f).field(plus_h), h, lam), None)], grid, eps=eps)
    return h, PipelineResult({"eigenfunction": pre}, conclusion)


def _grade_shift_sum(g_mv, partials, target):
    """sum_j [e_j G]_target d_j(f), from the list of d_j(f) for j = 1..n."""
    return sum((mv_grade_shift_mul(g_mv, j, target, d) for j, d in enumerate(partials, 1)), Multivector(g_mv.n))


def closed_forms(f, g, k: int):
    """Closed form vs direct operator composition on the grade-k field g, as fields.

    plus_minus:  (D+M^f)(D-M^f) G = -Lap G + G w - 2 sum_j [e_j G]_{k-1} d_j(f)
    minus_plus:  (D-M^f)(D+M^f) G = -Lap G + G w + 2 sum_j [e_j G]_{k-1} d_j(f)
    with w = outer (-1)^(k+1) D(f) - f^2, outer = +1 for plus_minus and -1 for
    minus_plus: the closed form is schrodinger_field with the whole w and drift
    sign -outer, and the sum vanishes for k = 0. Returns {which: (closed_form,
    direct)}; both forms are one graph. The closed sides share G, D(f), f^2, -Lap G and
    the drift sum, the direct sides G, D(G) and G f; a closed and a direct side share only
    G, f and what those are built on, so a wrong closed form cannot agree with itself.
    """
    forms = {}
    for which, outer in zip(CLOSED_FORMS, (+1, -1)):
        w = derived_potential(f, outer * (1.0 if (k + 1) % 2 == 0 else -1.0))
        direct = FactorizedOperator(f, outer).field(FactorizedOperator(f, -outer).field(g))
        forms[which] = schrodinger_field(g, w, f, -outer), direct
    return forms


def kvector_closed_form(f, gk, k: int, which: str, p):
    """The (closed_form, direct) pair of closed_forms(f, gk, k)[which] at p, as multivectors."""
    if which not in CLOSED_FORMS:
        raise FieldError(f"unknown closed form {which!r}")
    g = pure_field(gk, k, f"field is not a pure {k}-vector at {p}")
    closed, direct = closed_forms(f, g, k)[which]
    return closed.value(p), direct.value(p)


def derived_potential(f, sign):
    """The field w = sign*D(f) - f^2, so checks that share it compute it once per point."""
    return DerivedField(lambda d, sq: (d if sign == 1 else sign * d) - sq, (f.dirac, 0), (f.square, 0))


def potential_check(w) -> Identity:
    """The derived potential w equals its scalar part, scaled by |w|."""
    return Identity(w, grade_field(w, 0), w)


def _drift(gj, fj):
    """sum_m sum_j [e_j G_m]_{m-1} d_j(f), G_m the grade-m part of G = gj; each d_j(f) is computed once."""
    partials = [mv_partial(fj, j) for j in range(1, gj.n + 1)]
    return sum((_grade_shift_sum(gj.grade(m), partials, m - 1) for m in gj.grades()), Multivector(gj.n))


def schrodinger_field(g, w, f, s):
    """The field -Lap G + G w + 2s sum_m sum_j [e_j G_m]_{m-1} d_j(f) for G = g.

    G_m is the grade-m part of G. -Lap G and the drift sum, without its factor
    2s, are nodes on G, shared by every schrodinger_field on G (and f); G w is
    not, as no two of them share a w. The drift sum vanishes on a scalar G, and
    is not computed when s = 0. The pipelines, whose potential is scalar, pass
    its scalar part (fields.grade_field), so no empty blade of w is multiplied.
    """
    lap = g.neg_laplacian
    drift = [(g.node(("drift", id(f)), lambda: DerivedField(_drift, (g, 0), (f, 1))), 0)] if s else []
    return DerivedField(lambda lj, gj, wj, *dj: sum([(2.0 * s) * d for d in dj], lj + gj * wj),
                        (lap, 0), (g, 0), (w, 0), *drift)


def pure_field(g, k, what):
    """g as a field that raises FieldError at a point where its value has a grade other than k."""

    def check(gj):
        gv = mv_value(gj)
        if not gv.is_homogeneous(k):
            raise FieldError(f"{what} (grades {gv.grades()})")
        return gj

    return DerivedField(check, (g, 0))


def negated_potential(v):
    """The scalar field -v, the potential of the Schroedinger operator -Lap - v."""
    return DerivedField(lambda vj: -vj.grade(0), (v, 0))


def darboux_scalar_pipeline(f_candidate, phi, lam, grid: GridSpec, eps=EPS_EXACT) -> PipelineResult:
    """Scalar eigenfunction -> vector eigen-solution via the minus factor.

    Given f solving D(f)+f^2 = v and phi with (-Lap - v) phi = lam^2 phi,
    the 1-vector h = (D - M^f) phi satisfies
    (-Lap - v) h - 2 sum_j h_j d_j(f) = lam^2 h, the scalar operator acting
    componentwise.
    """
    f, w = f_candidate.f, negated_potential(f_candidate.potential)
    h = pure_field(minus_op(f).field(phi), 1, "transformed field is not a 1-vector")
    pre_riccati, pre_phi, conclusion = grid_residuals([
        (riccati_check(f_candidate), "riccati precondition failed"),
        (eigen_check(schrodinger_field(phi, w, f, 0), phi, lam), "schrodinger precondition failed"),
        (eigen_check(schrodinger_field(h, w, f, +1), h, lam), None)], grid, eps=eps)
    return PipelineResult({"riccati": pre_riccati, "schrodinger": pre_phi}, conclusion)


def darboux_kvector_pipeline(f, gk, k: int, lam, grid: GridSpec, eps=EPS_EXACT) -> PipelineResult:
    """Grade-k eigen-solution -> (k-1, k+1) pair via the minus factor.

    With w = (-1)^(k+1) D(f) - f^2 (checked scalar), a grade-k G solving

        G (-Lap + w) - 2 sum_j [e_j G]_{k-1} d_j(f) = lam^2 G

    yields H = (D - M^f) G, of grades k-1 and k+1 for a 1-vector f, with

        H (-Lap + w) + 2 sum_m sum_j [e_j H_m]_{m-1} d_j(f) = lam^2 H.

    Both eigen-equations are schrodinger_field, with drift signs -1 and +1.
    """
    w = derived_potential(f, 1.0 if (k + 1) % 2 == 0 else -1.0)
    w0 = grade_field(w, 0)
    g = pure_field(gk, k, f"input is not a pure {k}-vector")
    h = minus_op(f).field(gk)
    pre_w, pre_g, conclusion = grid_residuals([
        (potential_check(w), "the derived potential is not scalar-valued"),
        (eigen_check(schrodinger_field(g, w0, f, -1), g, lam), "input field fails its eigen-equation"),
        (eigen_check(schrodinger_field(h, w0, f, +1), h, lam), None)], grid, eps=eps)
    return PipelineResult({"scalar_potential": pre_w, "eigen_equation": pre_g}, conclusion)


def darboux_vector_pipeline(f, g_vec, lam, grid: GridSpec, eps=EPS_EXACT) -> PipelineResult:
    """1-vector eigen-solution -> scalar + bivector pair: darboux_kvector_pipeline at k = 1.

    u = D(f) - f^2 must be scalar; g solving g(-Lap+u) + 2 sum_j g_j d_j(f)
    = lam^2 g yields phi = [(D-M^f)g]_0 and H2 = [(D-M^f)g]_2 with

        (phi + H2)(-Lap + u) + 2 sum_j [e_j H2]_1 d_j(f) = lam^2 (phi + H2).
    """
    return darboux_kvector_pipeline(f, g_vec, 1, lam, grid, eps)
