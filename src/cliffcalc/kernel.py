"""Kernel splitting for the squared first-order operators.

Right multiplication by a unit element iE (E the top blade when n mod 4 = 2,
or the last generator in general position) squares to the identity,
commutes with the Dirac operator, and anti-commutes with right
multiplication by an admissible 1-vector field f. That turns the
second-order eigenvalue problems into squares of the first-order operators

    A = M^{iE} (D - M^f)    and    B = M^{iE} (D + M^f),

whose eigenspaces for +/- lam are kernels of explicit first-order operators.
Any solution of the second-order equation splits into the two eigenparts by
the projectors (1/2 lam)(A +/- lam). PseudoscalarMode admits only units
that square to +1; the operators read f through a guard field that raises
ModeError at any sample of their sweep where f is not an admissible 1-vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Multivector, pseudoscalar
from .fields import (
    EPS_EXACT,
    DerivedField,
    FieldError,
    GridSpec,
    Identity,
    MultivectorField,
    ResidualReport,
    add_fields,
    grade_field,
    grid_residual,
    grid_residuals,
    mv_value,
    right_const_mul_field,
)
from .darboux import (FactorizedOperator, as_lambda, derived_potential, eigen_check,
                      negated_potential, potential_check, schrodinger_field)
from .riccati import riccati_check


class ModeError(ValueError):
    """The commuting-element mode does not fit the dimension or the field."""


@dataclass(frozen=True)
class PseudoscalarMode:
    kind: str  # "full_pseudoscalar" | "last_axis"
    n: int

    def __post_init__(self):
        if self.kind not in ("full_pseudoscalar", "last_axis"):
            raise ModeError(f"unknown mode {self.kind!r}")
        if self.kind == "full_pseudoscalar" and self.n % 4 != 2:
            raise ModeError(
                f"full-pseudoscalar mode needs n mod 4 = 2 so that (i e_N)^2 = +1; got n = {self.n}")

    @property
    def element(self) -> Multivector:
        """The unit iE used for the kernel splitting."""
        base = pseudoscalar(self.n) if self.kind == "full_pseudoscalar" else Multivector.basis(self.n, self.n)
        return 1j * base


def default_mode(n: int) -> PseudoscalarMode:
    return PseudoscalarMode("full_pseudoscalar" if n % 4 == 2 else "last_axis", n)


def _mode_guard(f, mode: PseudoscalarMode) -> MultivectorField:
    """f read under the mode, one node per (f, mode) like grade_field: f's jets unchanged, or
    ModeError where f is not a 1-vector, has an e_n part in last-axis mode, or fails to
    anti-commute with iE. A chunk with a failing point raises, so the sweep replays it point
    by point and reports the first one."""
    ie, tol, last = mode.element, 1e-12, 1 << (mode.n - 1)

    def guard(fj):
        fv = mv_value(fj)
        if fv.terms and not fv.is_homogeneous(1):
            raise ModeError(f"field is not a 1-vector (grades {fv.grades()})")
        if mode.kind == "last_axis" and (size := abs(fv.coeff(last))) > tol:
            raise ModeError(f"last-axis mode needs a vanishing e{mode.n} component; got |{size:.3g}|")
        if (fv * ie + ie * fv).norm() > tol * (1.0 + fv.norm()):
            raise ModeError("iE fails to anti-commute with the field")
        return fj

    return f.node(("mode", mode), lambda: DerivedField(guard, (f, 0)))


def operator_field(f, mode: PseudoscalarMode, g, variant="A") -> MultivectorField:
    """A g = (D g - g f) iE  or  B g = (D g + g f) iE as a derived field."""
    op = FactorizedOperator(_mode_guard(f, mode), -1 if variant == "A" else +1)
    return right_const_mul_field(op.field(g), mode.element)


def first_order_check(f, mode, lam, sign, g, variant="A") -> Identity:
    """Membership of g in ker(A + sign*lam), rewritten first order, scaled by |lam g|:

    variant "A": D g - g (f - sign*lam*iE) = 0;  variant "B": D g + g (f + sign*lam*iE) = 0.
    """
    lam = as_lambda(lam)
    if sign not in (+1, -1):
        raise FieldError("sign must be +1 or -1")
    s = -1 if variant == "A" else +1
    shift = s * sign * lam * mode.element
    member = FactorizedOperator(DerivedField(lambda fj: fj + shift, (_mode_guard(f, mode), 0)), s).field(g)
    return Identity(member, None, DerivedField(lambda gj: lam * gj, (g, 0)))


def _norm_field(x):
    """The scalar field |x|, read at order 0."""
    return DerivedField(lambda xj: Multivector.scalar(xj.n, xj.norm()), (x, 0))


def operator_norm_gap(f, mode, lam, sign, g, grid: GridSpec, variant="A") -> float:
    """Sup over the grid of | |(A+sign*lam)g| - |first-order residual| |.

    Both expressions differ by right multiplication with the unit iE, which
    permutes blades up to phases, so their coefficient norms agree pointwise.
    """
    lam = as_lambda(lam)
    first_order = first_order_check(f, mode, lam, sign, g, variant).lhs
    shifted = DerivedField(lambda aj, gj: aj + sign * lam * gj, (operator_field(f, mode, g, variant), 0), (g, 0))
    return grid_residual(Identity(_norm_field(first_order), _norm_field(shifted)), grid).sup_norm


@dataclass
class DecompositionResult:
    g_plus: MultivectorField
    g_minus: MultivectorField
    lam: complex
    reassembly_residual: float
    plus_kernel_report: ResidualReport
    minus_kernel_report: ResidualReport
    precondition_report: ResidualReport
    variant: str = "A"

    @property
    def passed(self):
        return (self.plus_kernel_report.passed and self.minus_kernel_report.passed
                and self.precondition_report.passed and self.reassembly_residual <= 1e-9)


def split_kernel(f, mode, lam, g, grid: GridSpec, variant="A", eps=EPS_EXACT,
                 preconditions=()) -> DecompositionResult:
    """Split g in ker(A^2 - lam^2) into its +lam and -lam eigenparts.

    g_plus = (1/2 lam)(A + lam) g lies in ker(A - lam); g_minus is the
    complementary projection; the two reassemble to g exactly.
    `preconditions` are (identity, what) checks of the inputs, verified
    in the same pass over the grid and reported before anything of the split.
    A and the membership checks read f under the mode at every sample, so a
    ModeError is raised in that pass too, after a failed or raising precondition.
    """
    lam = as_lambda(lam)
    checks = list(preconditions)
    a_g = operator_field(f, mode, g, variant)
    half = 0.5 / lam

    g_plus = DerivedField(lambda aj, gj: (aj + lam * gj) * half, (a_g, 0), (g, 0))
    g_minus = DerivedField(lambda aj, gj: (aj - lam * gj) * (-half), (a_g, 0), (g, 0))

    checks += [(eigen_check(operator_field(f, mode, a_g, variant), g, lam),
                "input is not in the kernel of the squared operator"),
               # membership: (A + lam) g in ker(A - lam) and vice versa
               (first_order_check(f, mode, lam, -1, g_plus, variant), None),
               (first_order_check(f, mode, lam, +1, g_minus, variant), None),
               (Identity(add_fields(g_plus, g_minus), g), None)]
    *_, pre, plus_report, minus_report, reassembly = grid_residuals(checks, grid, eps=eps)
    return DecompositionResult(g_plus, g_minus, lam, reassembly.sup_norm, plus_report, minus_report, pre, variant)


def decompose_schrodinger_solution(f_candidate, mode, lam, phi, grid: GridSpec,
                                   eps=EPS_EXACT) -> DecompositionResult:
    """Split a scalar Schroedinger eigenfunction into two kernel components.

    Preconditions verified: f solves its Riccati equation for the claimed
    potential v, and (-Lap - v) phi = lam^2 phi. The split is the A-variant.
    """
    w = negated_potential(f_candidate.potential)
    preconditions = [(riccati_check(f_candidate), "f does not solve its Riccati equation"),
                     (eigen_check(schrodinger_field(phi, w, f_candidate.f, 0), phi, lam),
                      "phi is not a Schroedinger eigenfunction")]
    return split_kernel(f_candidate.f, mode, lam, phi, grid, "A", eps, preconditions)


def decompose_conjugate_solution(f, mode, lam, phi, grid: GridSpec,
                                 eps=EPS_EXACT) -> DecompositionResult:
    """B-variant split for the sign-flipped potential u = D(f) - f^2.

    phi must satisfy (-Lap + u) phi = lam^2 phi with u scalar-valued; the
    two parts land in ker(D + M^{f - lam iE}) and ker(D + M^{f + lam iE}).
    """
    u = derived_potential(f, 1.0)
    preconditions = [(potential_check(u), "derived potential is not scalar"),
                     (eigen_check(schrodinger_field(phi, grade_field(u, 0), f, 0), phi, lam),
                      "phi is not an eigenfunction of the conjugate operator")]
    return split_kernel(f, mode, lam, phi, grid, "B", eps, preconditions)
