"""The Clifford Riccati equation D(f) + f^2 = v: residuals and constructors.

Constructors cover logarithmic derivatives of Schroedinger / harmonic
solutions, separable potentials solved axis-by-axis as classical 1-D
Riccati ODEs, sums of homogeneous solutions, and the two Euler-style
combination rules for building new solutions out of known ones.
Every construction verifies its own hypotheses numerically before
claiming anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Multivector
from .expr import ScalarExpr, Tape, constant_expr
from .fields import (
    EPS_EXACT,
    FD_STEP,
    ConstantField,
    DerivedField,
    ExprField,
    FDField,
    FieldError,
    GridSpec,
    MultivectorField,
    ResidualReport,
    add_fields,
    grid_residual,
    grid_residuals,
    scalar_of,
    _lifted,
)
from .taylor import Taylor

DEFAULT_DENOM_RADIUS = 1e-2
ODE_DEFAULT_STEP = 1e-3
ODE_BLOWUP_BOUND = 1e6
ODE_MAX_STEPS = 100_000  # RK4 steps per axis, both directions together


class OdeBlowupError(ArithmeticError):
    """The 1-D Riccati flow left the trust region: finite-time singularity."""

    def __init__(self, axis, x, value):
        super().__init__(f"1-D Riccati solution on axis {axis} blew up near x = {x:.6g} (|f| > {abs(value):.3g})")
        self.axis = axis
        self.x = x


@dataclass
class RiccatiCandidate:
    f: MultivectorField
    potential: MultivectorField  # scalar-valued field
    provenance: str = "user"

    def to_json(self):
        if not isinstance(self.f, ExprField) or not isinstance(self.potential, ExprField):
            raise FieldError("only expression-backed candidates serialize to JSON")
        v = self.potential.components.get(0)
        return {
            "f": self.f.render_components(),
            "v": v.render() if v is not None else "0",
            "provenance": self.provenance,
        }


def riccati_check(c: RiccatiCandidate):
    """p -> (D(f) + f f - v, |D(f) + f f|) at p; D(f) + f f is a field, computed once per point."""
    lhs = DerivedField(lambda d, sq: d + sq, (c.f.dirac, 0), (c.f.square, 0))

    def residual_at(p):
        lv = lhs.value(p)
        return lv - c.potential.value(p), lv.norm()

    return residual_at


def riccati_residual(c: RiccatiCandidate, grid: GridSpec, tol=None, eps=EPS_EXACT) -> ResidualReport:
    """Sup/RMS of D(f) + f f - v over the grid."""
    return grid_residual(riccati_check(c), grid, tol=tol, eps=eps)


def log_derivative(phi: MultivectorField, provenance="log_derivative") -> RiccatiCandidate:
    """Candidate f = D(phi)/phi with claimed potential v = -Lap(phi)/phi."""
    return RiccatiCandidate(_quotient(phi.dirac, phi), _quotient(phi.neg_laplacian, phi), provenance)


def _quotient(d, phi):
    """The field d/phi, for a field d of derivatives of the scalar field phi."""

    def quotient(dj, ph):
        if 0 not in ph.terms:  # phi has no scalar blade: its scalar part reads as 0j
            raise FieldError("vanishing scalar denominator")
        inv = _lifted(Taylor.reciprocal, scalar_of(ph), ph.n)
        return dj.map_coeffs(lambda t: t * inv)

    return DerivedField(quotient, (d, 0), (phi, 0))


def vector_split_residuals(c: RiccatiCandidate, grid: GridSpec, eps=EPS_EXACT):
    """Reports of the full residual and its scalar and bivector parts, for grade-1 candidates.

    The full residual of a 1-vector candidate with scalar potential carries
    exactly grades {0, 2}; anything else signals a malformed input. All three
    reports scale their tolerance by |D(f) + f^2|, the left-hand side.
    """
    full_at = riccati_check(c)

    def scalar_at(p):
        if not c.f.value(p).is_homogeneous(1):
            raise FieldError("vector split needs a pure grade-1 candidate")
        r, scale = full_at(p)
        leftover = r - r.grade(0) - r.grade(2)
        if leftover.norm() > 1e-12 * (1.0 + r.norm()):
            raise FieldError("residual has grades outside {0, 2}; potential is not scalar")
        return r.grade(0), scale

    def bivector_at(p):
        # the grades are scalar_at's to check: its exception stops this check too
        r, scale = full_at(p)
        return r.grade(2), scale

    return grid_residuals([(full_at, None), (scalar_at, None), (bivector_at, None)], grid, eps=eps)


class _AxisSolution:
    """Dense output of one scalar Riccati ODE f' = -v(x) - f^2 via RK4.

    Knots are stored on a fixed step ladder from x0 out to both box ends;
    a query takes the nearest knot toward x0 plus one partial RK4 step,
    so evaluation is smooth in x up to the integrator's own error.
    """

    def __init__(self, v_expr: ScalarExpr, axis: int, x0: float, f0: float,
                 lo: float, hi: float, step: float, blowup: float):
        self.axis = axis
        self.x0 = x0
        self.step = step
        self._v = v_expr
        self._n = v_expr.n
        self.forward = self._march(x0, f0, hi, step, blowup)
        self.backward = self._march(x0, f0, lo, -step, blowup)

    def _rhs(self, x, y):
        p = [0.0] * self._n
        p[self.axis - 1] = x
        return -self._v.eval(tuple(p)) - y * y

    def _rk4_step(self, x, y, h):
        k1 = self._rhs(x, y)
        k2 = self._rhs(x + h / 2, y + h * k1 / 2)
        k3 = self._rhs(x + h / 2, y + h * k2 / 2)
        k4 = self._rhs(x + h, y + h * k3)
        return y + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6

    def _march(self, x0, f0, target, h, blowup):
        knots = [complex(f0)]
        x, y = x0, complex(f0)
        steps = int(max((target - x0) / h, 0.0) + 1e-9)  # a box end behind x0 needs no step
        for _ in range(steps):
            y = self._rk4_step(x, y, h)
            x += h
            if abs(y) > blowup:
                raise OdeBlowupError(self.axis, x, y)
            knots.append(y)
        return knots

    def __call__(self, x):
        dx = x - self.x0
        knots = self.forward if dx >= 0 else self.backward
        h = self.step if dx >= 0 else -self.step
        i = min(int(abs(dx) / self.step), len(knots) - 1)
        rem = dx - i * h
        y = knots[i]
        if rem:
            y = self._rk4_step(self.x0 + i * h, y, rem)
        return y


def separable_solve(v_list, x0, f0, box, step=ODE_DEFAULT_STEP) -> RiccatiCandidate:
    """Assemble f = sum_k f_k(x_k) e_k from per-axis 1-D Riccati solutions.

    Each v_k may depend only on x_k; the assembled candidate claims the
    potential v = sum_k v_k and is a finite-difference-mode field.
    Raises OdeBlowupError when any axis solution leaves |f| <= ODE_BLOWUP_BOUND
    inside the box, and FieldError for malformed input or for a step that needs
    more than ODE_MAX_STEPS steps on an axis.
    """
    n = len(v_list)
    if not 0 < step < float("inf"):
        raise FieldError("ODE step must be a finite positive number")
    if not (len(x0) == len(f0) == len(box) == n):
        raise FieldError("v_list, x0, f0 and box must all have one entry per axis")
    for k, v in enumerate(v_list, start=1):
        extra = v.variables() - {k}
        if extra:
            raise FieldError(f"potential term {k} depends on variables {sorted(extra)} besides x{k}")
    # pad query range so finite differencing near the box edge stays inside
    pad = 10 * FD_STEP
    ranges = [(lo - pad, hi + pad) for lo, hi in box]
    for k, (lo, hi) in enumerate(ranges):
        if (abs(hi - x0[k]) + abs(x0[k] - lo)) / step > ODE_MAX_STEPS:
            raise FieldError(f"ODE step {step!r} needs over {ODE_MAX_STEPS} steps on axis {k + 1}")
    axes = [
        _AxisSolution(v_list[k], k + 1, x0[k], f0[k], lo, hi, step, ODE_BLOWUP_BOUND)
        for k, (lo, hi) in enumerate(ranges)
    ]

    def fn(p):
        return Multivector(n, {1 << k: axes[k](p[k]) for k in range(n)})

    tape = Tape(n)
    v_total = tape.adopt(v_list[0]).slot
    for v in v_list[1:]:
        v_total = tape.add("+", v_total, tape.adopt(v).slot)
    potential = ExprField.scalar(n, ScalarExpr(tape, v_total))
    return RiccatiCandidate(FDField(n, fn), potential, "separable")


def _mask_scalar_zero(grid: GridSpec, fields):
    for f in fields:
        grid = grid.with_exclusion(lambda p, _f=f: abs(scalar_of(_f.value(p))) < DEFAULT_DENOM_RADIUS)
    return grid


def harmonic_check(phi: MultivectorField):
    lap = phi.neg_laplacian  # -Lap(phi), whose norm is that of Lap(phi)

    def residual_at(p):
        return lap.value(p), phi.value(p).norm()

    return residual_at


def homogeneous_sum(phi1, phi2, grid: GridSpec, eps=EPS_EXACT):
    """Sum of two homogeneous log-derivative solutions.

    Returns the candidate f = D(phi1)/phi1 + D(phi2)/phi2 with the induced
    potential v = -2 <D(phi1)/phi1, D(phi2)/phi2> and its residual report.
    """
    masked = _mask_scalar_zero(grid, [phi1, phi2])
    a = log_derivative(phi1).f
    b = log_derivative(phi2).f

    # for 1-vectors, a b + b a is the scalar -2<a, b>
    v = DerivedField(lambda av, bv: (av * bv + bv * av).grade(0), (a, 0), (b, 0))
    candidate = RiccatiCandidate(add_fields(a, b), v, "homogeneous_sum")
    checks = [(harmonic_check(phi), f"{name} is not harmonic") for name, phi in (("phi1", phi1), ("phi2", phi2))]
    *_, report = grid_residuals(checks + [(riccati_check(candidate), None)], masked, eps=eps)
    return candidate, report


def euler_shift(h: RiccatiCandidate, phi: MultivectorField, grid: GridSpec, eps=EPS_EXACT):
    """Shift a known solution h by the log-derivative of an admissible phi.

    phi must satisfy Lap(phi) + 2 <D(phi), h> = 0; then D(phi)/phi + h solves
    the same equation as h.
    """
    masked = _mask_scalar_zero(grid, [phi])
    d = phi.dirac  # one D(phi) for the shift equation and for D(phi)/phi

    # <D(phi), h> = -[D(phi) h]_0, so the equation's left side is -(-Lap(phi) + 2 [D(phi) h]_0)
    phi_eq = DerivedField(lambda nl, dj, hj: nl + 2.0 * (dj * hj).grade(0),
                          (phi.neg_laplacian, 0), (d, 0), (h.f, 0))

    def phi_eq_at(p):
        return phi_eq.value(p), phi.value(p).norm()

    candidate = RiccatiCandidate(add_fields(_quotient(d, phi), h.f), h.potential, "euler_shift")
    *_, report = grid_residuals([(riccati_check(h), "h does not solve its Riccati equation"),
                                 (phi_eq_at, "phi fails its shift equation"),
                                 (riccati_check(candidate), None)], masked, eps=eps)
    return candidate, report


def _gradient_checks(phi1, phi2, potential):
    """Checks that D(phi1) and D(phi2) both solve D(f) + f^2 = potential."""
    return [(riccati_check(RiccatiCandidate(phi.dirac, potential, "euler_input")),
             f"{name} does not solve the target equation") for name, phi in (("D(phi1)", phi1), ("D(phi2)", phi2))]


def _blend(phi1, phi2, K, potential):
    """The blend f = (alpha D(phi1) - D(phi2))/(alpha - 1), alpha = K exp(phi1 - phi2),
    for one K, and the predicate that masks the alpha = 1 locus."""
    K = complex(K)
    d1, d2 = phi1.dirac, phi2.dirac  # the nodes _gradient_checks reads too

    def alpha_of(a, b):
        if a.terms.keys() != {0} or b.terms.keys() != {0}:
            raise FieldError("phi1 and phi2 must be scalar fields")
        return Multivector.scalar(a.n, _lifted(Taylor.exp, scalar_of(a) - scalar_of(b), a.n) * K)

    alpha = DerivedField(alpha_of, (phi1, 0), (phi2, 0))

    def blend(g1, g2, aj):
        a = scalar_of(aj)
        inv = _lifted(Taylor.reciprocal, a - 1.0, aj.n)
        num = g1.map_coeffs(lambda t: a * t) - g2
        return num.map_coeffs(lambda t: t * inv)

    return (RiccatiCandidate(DerivedField(blend, (d1, 0), (d2, 0), (alpha, 0)), potential, "euler_combine"),
            lambda p: abs(scalar_of(alpha.value(p)) - 1.0) < DEFAULT_DENOM_RADIUS)


def euler_combine(phi1, phi2, K, potential: MultivectorField, grid: GridSpec, eps=EPS_EXACT):
    """Blend the gradient solutions D(phi1) and D(phi2) of one equation.

    With alpha = K exp(phi1 - phi2), f = (alpha D(phi1) - D(phi2))/(alpha - 1)
    solves the same equation away from the alpha = 1 locus, which is masked.
    """
    candidate, mask = _blend(phi1, phi2, K, potential)
    *_, report = grid_residuals(_gradient_checks(phi1, phi2, potential) + [(riccati_check(candidate), None)],
                                grid.with_exclusion(mask), eps=eps)
    return candidate, report


@dataclass
class FamilyGapResult:
    base_report: ResidualReport
    distances: dict
    margin: float
    passed: bool
    min_distance: float


def combination_family_gap(n: int, grid: GridSpec, K_samples, margin=0.1,
                           eps=EPS_EXACT) -> FamilyGapResult:
    """Show the two-solution blend family misses a known constant solution.

    For v = -1 the constant fields e_1 and e_2 are gradient solutions; their
    blend family (over the sampled K values) keeps a sup-norm distance of at
    least `margin` from the equally valid solution e_3.
    """
    if n < 3:
        raise FieldError("the gap demonstration needs dimension >= 3")
    minus_one = ExprField.scalar(n, constant_expr(-1.0, n))
    e3 = RiccatiCandidate(ConstantField(Multivector.basis(n, 3)), minus_one, "constant")
    phi1 = ExprField.scalar(n, "x1")
    phi2 = ExprField.scalar(n, "x2")
    # the unmasked grid holds every per-K masked grid, so one check covers all K; each K's
    # distance is a check under its own mask in the same sweep, so where the mask keeps a whole
    # chunk its blend reads the jets of D(phi1) and D(phi2) that the gradient checks computed
    checks = [(riccati_check(e3), None)] + _gradient_checks(phi1, phi2, minus_one)
    target = Multivector.basis(n, 3)
    K_samples = [complex(K) for K in K_samples]
    for K in K_samples:
        candidate, mask = _blend(phi1, phi2, K, minus_one)
        checks.append((lambda p, f=candidate.f: ((f.value(p) - target).norm(), 0.0), None, mask))
    base_report, _, _, *reports = grid_residuals(checks, grid, eps=eps)
    distances = {K: report.sup_norm for K, report in zip(K_samples, reports)}
    min_gap = min(distances.values())
    passed = base_report.passed and min_gap >= margin
    return FamilyGapResult(base_report, distances, margin, passed, min_gap)
