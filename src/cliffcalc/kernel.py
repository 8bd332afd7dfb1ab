"""Kernel splitting for the squared first-order operators.

Right multiplication by a unit element iE (E the top blade when n mod 4 = 2,
or the last generator in general position) squares to the identity,
commutes with the Dirac operator, and anti-commutes with right
multiplication by an admissible 1-vector field f. That turns the
second-order eigenvalue problems into squares of the first-order operators

    A = M^{iE} (D - M^f)    and    B = M^{iE} (D + M^f),

whose eigenspaces for +/- lam are kernels of explicit first-order operators.
Any solution of the second-order equation splits into the two eigenparts by
the projectors (1/2 lam)(A +/- lam).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Multivector, pseudoscalar
from .fields import (
    EPS_EXACT,
    DerivedField,
    FieldError,
    GridSpec,
    MultivectorField,
    PreconditionError,
    ResidualReport,
    grid_residual,
    mv_dirac,
    mv_value,
    scalar_of,
)
from .darboux import as_lambda


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

    @property
    def mask(self) -> int:
        return (1 << self.n) - 1 if self.kind == "full_pseudoscalar" else 1 << (self.n - 1)


def default_mode(n: int) -> PseudoscalarMode:
    return PseudoscalarMode("full_pseudoscalar" if n % 4 == 2 else "last_axis", n)


def mode_check(mode: PseudoscalarMode, f: MultivectorField, sample_points, tol=1e-12):
    """Validate (iE)^2 = +1 and that iE anti-commutes with f at the samples."""
    ie = mode.element
    square = ie * ie
    if square != Multivector.scalar(mode.n, 1 + 0j):
        raise ModeError(f"(iE)^2 = {square.render()} instead of 1")
    for p in sample_points:
        fv = f.value(p)
        if not fv.is_homogeneous(1) and fv.terms:
            raise ModeError(f"field is not a 1-vector at {p} (grades {fv.grades()})")
        if mode.kind == "last_axis":
            last = abs(fv.coeff(1 << (mode.n - 1)))
            if last > tol:
                raise ModeError(
                    f"last-axis mode needs a vanishing e{mode.n} component; got |{last:.3g}| at {p}")
        anti = fv * ie + ie * fv
        if anti.norm() > tol * (1.0 + fv.norm()):
            raise ModeError(f"iE fails to anti-commute with the field at {p}")


def _first_order_multiplier(mode, lam, sign, variant):
    """Right-multiplier m with ker(A + sign*lam) = ker(D - M^m) (variant "A")
    or ker(B + sign*lam) = ker(D + M^m) (variant "B")."""
    ie = mode.element
    if variant == "A":
        return -sign * lam * ie  # added to f: f - (sign)*lam*iE
    return sign * lam * ie


def operator_field(f, mode: PseudoscalarMode, g, variant="A") -> MultivectorField:
    """A g = (D g - g f) iE  or  B g = (D g + g f) iE as a derived field."""
    ie = mode.element
    sgn = -1.0 if variant == "A" else 1.0

    def at(p, order):
        gj = g.at(p, order + 1)
        core = mv_dirac(gj) + sgn * (gj * f.at(p, order)) if variant == "B" else mv_dirac(gj) - gj * f.at(p, order)
        return core * ie

    return DerivedField(g.n, at)


def apply_A(f, mode, g, p) -> Multivector:
    return mv_value(operator_field(f, mode, g, "A").at(p, 0))


def apply_B(f, mode, g, p) -> Multivector:
    return mv_value(operator_field(f, mode, g, "B").at(p, 0))


def first_order_residual(f, mode, lam, sign, g, grid: GridSpec, variant="A",
                         tol=None, eps=EPS_EXACT) -> ResidualReport:
    """Membership residual for ker(A + sign*lam), rewritten first order.

    variant "A": D g - g (f - sign*lam*iE);  variant "B": D g + g (f + sign*lam*iE).
    """
    lam = as_lambda(lam)
    if sign not in (+1, -1):
        raise FieldError("sign must be +1 or -1")
    shift = _first_order_multiplier(mode, lam, sign, variant)

    def residual_at(p):
        gj = g.at(p, 1)
        fv = f.at(p, 0)
        if variant == "A":
            r = mv_dirac(gj) - gj * (fv + shift)
        else:
            r = mv_dirac(gj) + gj * (fv + shift)
        return mv_value(r)

    return grid_residual(residual_at, grid, tol=tol, eps=eps,
                         scale_at=lambda p: abs(lam) * mv_value(g.at(p, 0)).norm())


def operator_norm_gap(f, mode, lam, sign, g, grid: GridSpec, variant="A") -> float:
    """Sup over the grid of | |(A+sign*lam)g| - |first-order residual| |.

    Both expressions differ by right multiplication with the unit iE, which
    permutes blades up to phases, so their coefficient norms agree pointwise.
    """
    lam = as_lambda(lam)
    op = operator_field(f, mode, g, variant)
    shift = _first_order_multiplier(mode, lam, sign, variant)
    gap = 0.0
    for p in grid.points():
        shifted = mv_value(op.at(p, 0)) + sign * lam * g.value(p)
        gj = g.at(p, 1)
        fv = f.at(p, 0)
        if variant == "A":
            r = mv_dirac(gj) - gj * (fv + shift)
        else:
            r = mv_dirac(gj) + gj * (fv + shift)
        gap = max(gap, abs(shifted.norm() - mv_value(r).norm()))
    return gap


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
                and self.precondition_report.passed)


def squared_operator_residual(f, mode, lam, g, grid: GridSpec, variant="A",
                              tol=None, eps=EPS_EXACT) -> ResidualReport:
    """Residual of (A^2 - lam^2) g (or B^2) over the grid."""
    lam2 = as_lambda(lam) ** 2
    op2 = operator_field(f, mode, operator_field(f, mode, g, variant), variant)

    def residual_at(p):
        return mv_value(op2.at(p, 0)) - lam2 * g.value(p)

    return grid_residual(residual_at, grid, tol=tol, eps=eps,
                         scale_at=lambda p: abs(lam2) * g.value(p).norm())


def split_kernel(f, mode, lam, g, grid: GridSpec, variant="A", eps=EPS_EXACT,
                 skip_precondition=False) -> DecompositionResult:
    """Split g in ker(A^2 - lam^2) into its +lam and -lam eigenparts.

    g_plus = (1/2 lam)(A + lam) g lies in ker(A - lam); g_minus is the
    complementary projection; the two reassemble to g exactly.
    """
    lam = as_lambda(lam)
    mode_check(mode, f, _corner_samples(grid))
    pre = squared_operator_residual(f, mode, lam, g, grid, variant, eps=eps)
    if not pre.passed and not skip_precondition:
        raise PreconditionError(
            f"input is not in the kernel of the squared operator (sup {pre.sup_norm:.3g})", pre)
    a_g = operator_field(f, mode, g, variant)
    half = 0.5 / lam

    def plus_at(p, order):
        return (a_g.at(p, order) + lam * g.at(p, order)) * half

    def minus_at(p, order):
        return (a_g.at(p, order) - lam * g.at(p, order)) * (-half)

    g_plus = DerivedField(g.n, plus_at)
    g_minus = DerivedField(g.n, minus_at)
    # membership: (A + lam) g in ker(A - lam) and vice versa
    plus_report = first_order_residual(f, mode, lam, -1, g_plus, grid, variant, eps=eps)
    minus_report = first_order_residual(f, mode, lam, +1, g_minus, grid, variant, eps=eps)
    reassembly = 0.0
    for p in grid.points():
        delta = mv_value(g_plus.at(p, 0)) + mv_value(g_minus.at(p, 0)) - g.value(p)
        reassembly = max(reassembly, delta.norm())
    return DecompositionResult(g_plus, g_minus, lam, reassembly, plus_report, minus_report, pre, variant)


def _corner_samples(grid: GridSpec):
    lo = tuple(b[0] for b in grid.box)
    hi = tuple(b[1] for b in grid.box)
    mid = tuple((a + b) / 2 for a, b in grid.box)
    return [lo, hi, mid]


def decompose_schrodinger_solution(f_candidate, mode, lam, phi, grid: GridSpec,
                                   eps=EPS_EXACT) -> DecompositionResult:
    """Split a scalar Schroedinger eigenfunction into two kernel components.

    Preconditions verified: f solves its Riccati equation for the claimed
    potential v, and (-Lap - v) phi = lam^2 phi. The split is the A-variant.
    """
    lam = as_lambda(lam)
    lam2 = lam * lam
    from .riccati import riccati_residual
    from .fields import mv_laplacian
    f, v = f_candidate.f, f_candidate.potential
    pre_riccati = riccati_residual(f_candidate, grid, eps=eps)
    if not pre_riccati.passed:
        raise PreconditionError(
            f"f does not solve its Riccati equation (sup {pre_riccati.sup_norm:.3g})", pre_riccati)

    def schrodinger_at(p):
        ph = phi.at(p, 2)
        return mv_value(-mv_laplacian(ph) - scalar_of(v.at(p, 0)) * ph - lam2 * ph)

    pre_phi = grid_residual(schrodinger_at, grid, eps=eps,
                            scale_at=lambda p: abs(lam2) * mv_value(phi.at(p, 0)).norm())
    if not pre_phi.passed:
        raise PreconditionError(
            f"phi is not a Schroedinger eigenfunction (sup {pre_phi.sup_norm:.3g})", pre_phi)
    return split_kernel(f, mode, lam, phi, grid, "A", eps=eps)


def decompose_conjugate_solution(f, mode, lam, phi, grid: GridSpec,
                                 eps=EPS_EXACT) -> DecompositionResult:
    """B-variant split for the sign-flipped potential u = D(f) - f^2.

    phi must satisfy (-Lap + u) phi = lam^2 phi with u scalar-valued; the
    two parts land in ker(D + M^{f - lam iE}) and ker(D + M^{f + lam iE}).
    """
    lam = as_lambda(lam)
    lam2 = lam * lam
    from .fields import mv_laplacian

    def u_mv(p):
        fj = f.at(p, 1)
        return mv_value(mv_dirac(fj) - fj * fj)

    u_rep = grid_residual(lambda p: (lambda m: m - m.grade(0))(u_mv(p)), grid, eps=eps,
                          scale_at=lambda p: u_mv(p).norm())
    if not u_rep.passed:
        raise PreconditionError(f"derived potential is not scalar (sup {u_rep.sup_norm:.3g})", u_rep)

    def eigen_at(p):
        ph = phi.at(p, 2)
        return mv_value(-mv_laplacian(ph) + u_mv(p).scalar_part() * ph - lam2 * ph)

    pre_phi = grid_residual(eigen_at, grid, eps=eps,
                            scale_at=lambda p: abs(lam2) * mv_value(phi.at(p, 0)).norm())
    if not pre_phi.passed:
        raise PreconditionError(
            f"phi is not an eigenfunction of the conjugate operator (sup {pre_phi.sup_norm:.3g})", pre_phi)
    return split_kernel(f, mode, lam, phi, grid, "B", eps=eps)
