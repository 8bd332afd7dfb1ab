import math
import random

import pytest

from cliffcalc.algebra import Multivector
from cliffcalc.fields import (
    EPS_EXACT,
    ConstantField,
    ExprField,
    FDField,
    FieldError,
    GridSpec,
    PreconditionError,
    grid_residual,
    kvector_leibniz_residual,
    mv_dirac,
    mv_laplacian,
    mv_value,
    require,
    scalar_leibniz_residual,
)
from cliffcalc.taylor import JetOrderError


def test_expr_field_value_and_blade_keys():
    f = ExprField(2, {"e1": "x1", "e2": "2*x2"})
    v = f.value((0.5, 1.0))
    assert v.coeff(0b01) == pytest.approx(0.5)
    assert v.coeff(0b10) == pytest.approx(2.0)
    g = ExprField(2, {0b11: "x1*x2"})
    assert g.value((2.0, 3.0)).coeff(0b11) == pytest.approx(6.0)


def test_expr_field_rejects_a_repeated_blade():
    for components in ({"e1": "1", " e1": "x2"}, {0b11: "1", "e1 ^ e2": "x2"}, {0: "1", "1": "x1"}):
        with pytest.raises(FieldError, match="named twice"):
            ExprField(2, components)


def test_expr_field_dimension_mismatch():
    from cliffcalc.expr import parse
    with pytest.raises(FieldError):
        ExprField(3, {0: parse("x1", 2)})


def test_dirac_of_position_vector():
    # D(x) = sum_j e_j d_j (sum_k x_k e_k) = sum e_j e_j = -n
    for n in (2, 3):
        f = ExprField(n, {1 << (j - 1): f"x{j}" for j in range(1, n + 1)})
        d = mv_value(mv_dirac(f.at(tuple(0.3 * j for j in range(1, n + 1)), 1)))
        assert (d - Multivector.scalar(n, complex(-n))).norm() < 1e-14


def test_dirac_squared_is_minus_laplacian():
    n = 2
    phi = ExprField.scalar(n, "exp(x1)*sin(2*x2)")
    p = (0.4, -0.3)

    def dd(pt, order):
        return mv_dirac(mv_dirac(phi.at(pt, order + 2)))

    from cliffcalc.fields import DerivedField
    dsq = DerivedField(n, dd).value(p)
    lap = mv_value(mv_laplacian(phi.at(p, 2)))
    assert (dsq + lap).norm() < 1e-11


def test_laplacian_oracle():
    phi = ExprField.scalar(2, "x1^2 + 3*x2^2")
    assert mv_value(mv_laplacian(phi.at((0.1, 0.2), 2))).scalar_part() == pytest.approx(8.0)
    harmonic = ExprField.scalar(2, "exp(x1)*sin(x2)")
    assert mv_value(mv_laplacian(harmonic.at((0.5, 0.7), 2))).norm() < 1e-12


def test_constant_field():
    c = ConstantField(Multivector.basis(3, 2))
    assert c.value((1, 2, 3)) == Multivector.basis(3, 2)
    assert mv_value(mv_dirac(c.at((0, 0, 0), 1))).norm() == 0.0


def test_fd_field_matches_exact_jets():
    n = 2
    exact = ExprField.scalar(n, "exp(x1)*cos(x2) + x1*x2")
    fd = FDField(n, exact.value, step=1e-5)
    p = (0.3, -0.4)
    je = exact.at(p, 1)
    jf = fd.at(p, 1)
    te, tf = je.coeff(0), jf.coeff(0)
    assert abs(te.value - tf.value) < 1e-12
    for j in range(n):
        assert abs(te.grad(j) - tf.grad(j)) < 1e-9


def test_fd_field_order_cap():
    fd = FDField(1, lambda p: Multivector.scalar(1, complex(p[0])))
    with pytest.raises(JetOrderError):
        fd.at((0.0,), 2)
    with pytest.raises(FieldError):
        FDField(1, lambda p: None, step=0.0)


def test_scalar_leibniz_residual_exact():
    n = 3
    phi = ExprField.scalar(n, "exp(x1) + x2*x3")
    f = ExprField(n, {"e1": "sin(x2)", "e2^e3": "x1*x1"})
    r = scalar_leibniz_residual(phi, f, (0.2, 0.5, -0.1))
    assert r.norm() < 1e-12


def test_scalar_leibniz_requires_scalar():
    n = 2
    notscalar = ExprField(n, {"e1": "x1"})
    f = ExprField(n, {"e2": "x2"})
    with pytest.raises(FieldError):
        scalar_leibniz_residual(notscalar, f, (0.1, 0.2))


def test_kvector_leibniz_hand_example():
    # G = e1 (k = 1), f = x1 e1: both sides equal -1 at any point
    n = 2
    g = ExprField(n, {"e1": "1"})
    f = ExprField(n, {"e1": "x1"})
    r = kvector_leibniz_residual(g, f, 1, (0.7, 0.1))
    assert r.norm() < 1e-14


def test_kvector_leibniz_random():
    rng = random.Random(11)
    n = 3
    for k in range(n + 1):
        from cliffcalc.suites import random_kvector_field, random_mv_field, random_point
        gk = random_kvector_field(rng, n, k)
        f = random_mv_field(rng, n)
        r = kvector_leibniz_residual(gk, f, k, random_point(rng, n))
        assert r.norm() < 1e-9


def test_grid_spec():
    g = GridSpec.cube(2, samples_per_axis=3)
    pts = list(g.points())
    assert len(pts) == 9
    assert pts[0] == (-1.0, -1.0) and pts[-1] == (1.0, 1.0)
    masked = g.with_exclusion(lambda p: p[0] < 0)
    assert all(p[0] >= 0 for p in masked.points())
    with pytest.raises(FieldError):
        GridSpec(((1.0, -1.0),))
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
        with pytest.raises(FieldError):
            GridSpec(((lo, hi),))
    with pytest.raises(FieldError):
        GridSpec(((0.0, 1.0),), samples_per_axis=1)
    with pytest.raises(FieldError):
        GridSpec(tuple((0.0, 1.0) for _ in range(12)), samples_per_axis=11)


def test_grid_residual_scaled_tolerance():
    g = GridSpec.cube(1, samples_per_axis=5)
    # residual 1e-8 with LHS scale 100 passes at eps 1e-9 via scaling
    rep = grid_residual(lambda p: (1e-8, 100.0), g, eps=EPS_EXACT)
    assert rep.passed and rep.tolerance == pytest.approx(1e-9 * 101.0)
    rep2 = grid_residual(lambda p: (1e-8, 0.0), g, eps=EPS_EXACT)
    assert not rep2.passed
    assert rep2.samples_used == 5
    with pytest.raises(FieldError):
        grid_residual(lambda p: (0.0, 0.0), g.with_exclusion(lambda p: True))


def test_residual_report_dict():
    g = GridSpec.cube(1, samples_per_axis=3)
    rep = grid_residual(lambda p: (abs(p[0]), 0.0), g, tol=2.0)
    d = rep.to_dict()
    assert d["pass"] is True
    assert d["sup_norm"] == pytest.approx(1.0)
    assert d["worst_point"] in ([-1.0], [1.0])
    assert d["rms"] == pytest.approx(math.sqrt(2 / 3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", [-1.0, 0.0, 1.0])
def test_grid_residual_non_finite_sample_is_worst_and_fails(bad, where):
    g = GridSpec.cube(1, samples_per_axis=3)
    rep = grid_residual(lambda p: (bad if p[0] == where else 0.0, 0.0), g, tol=math.inf)
    assert rep.worst_point == (where,)
    assert not rep.passed
    assert not math.isfinite(rep.sup_norm)
    assert rep.to_dict()["pass"] is False


def test_grid_residual_nan_multivector_fails():
    # inf - inf: every coefficient of the field is NaN at every point
    big = "exp(700)*exp(700)*x1"
    f = ExprField(1, {"e1": f"{big} - {big}"})
    rep = grid_residual(lambda p: (mv_value(f.at(p)), 0.0), GridSpec.cube(1, samples_per_axis=3))
    assert math.isnan(rep.sup_norm)
    assert rep.worst_point is not None
    assert not rep.passed


def test_require_passes_reports_through_and_names_failures():
    g = GridSpec.cube(1, samples_per_axis=3)
    ok = grid_residual(lambda p: (0.0, 0.0), g)
    assert require(ok, "unused") is ok
    bad = grid_residual(lambda p: (0.5, 0.0), g)
    with pytest.raises(PreconditionError) as err:
        require(bad, "phi is not harmonic")
    assert str(err.value) == "phi is not harmonic (sup 0.5)"
    assert err.value.report is bad
