import cmath

import pytest

from cliffcalc.algebra import Multivector
from cliffcalc.darboux import eigen_check
from cliffcalc.fields import (
    ConstantField,
    ExprField,
    GridSpec,
    PreconditionError,
    ResidualReport,
    grid_residual,
    mv_value,
)
from cliffcalc.kernel import (
    DecompositionResult,
    ModeError,
    PseudoscalarMode,
    decompose_conjugate_solution,
    decompose_schrodinger_solution,
    default_mode,
    first_order_check,
    operator_field,
    operator_norm_gap,
    split_kernel,
)
from cliffcalc.riccati import RiccatiCandidate


def e1_field(n):
    return ExprField(n, {"e1": "1"})


def minus_one(n):
    return ExprField.scalar(n, "0 - 1")


def accepted_modes():
    """Every mode that PseudoscalarMode accepts for n = 1..12."""
    return [PseudoscalarMode(kind, n) for n in range(1, 13) for kind in ("full_pseudoscalar", "last_axis")
            if kind == "last_axis" or n % 4 == 2]


def test_full_mode_dimension_gate():
    for n in range(1, 13):
        if n % 4 != 2:
            with pytest.raises(ModeError):
                PseudoscalarMode("full_pseudoscalar", n)
    with pytest.raises(ModeError):
        PseudoscalarMode("sideways", 2)
    # every accepted unit squares to +1 exactly, so the split needs no runtime test of (iE)^2
    for mode in accepted_modes():
        ie = mode.element
        assert ie * ie == Multivector.scalar(mode.n, 1 + 0j), mode


def test_last_axis_mode():
    # iE anti-commutes exactly with each generator that a mode lets f have: all of them under the
    # full pseudoscalar (n even), all but e_n on the last axis
    for mode in accepted_modes():
        ie = mode.element
        allowed = range(1, mode.n + 1) if mode.kind == "full_pseudoscalar" else range(1, mode.n)
        for j in allowed:
            ej = Multivector.basis(mode.n, j)
            assert (ej * ie + ie * ej).terms == {}, (mode, j)
    assert len(accepted_modes()) == 15


def test_default_mode():
    assert default_mode(2).kind == "full_pseudoscalar"
    assert default_mode(6).kind == "full_pseudoscalar"
    assert default_mode(3).kind == "last_axis"
    assert default_mode(4).kind == "last_axis"


def test_mode_check_rejections():
    # the split reads f under the mode at every sample of its sweep
    n = 3
    grid = GridSpec.cube(n, samples_per_axis=5)
    for components, message in [
        ({"e3": "1"}, "last-axis mode needs a vanishing e3 component; got |1|"),
        ({"e1^e2": "1"}, "field is not a 1-vector (grades [2])"),
        # each numeric rule rejects a field that the other lets through
        ({"e1": "0.1", "e3": "9e-13"}, "iE fails to anti-commute with the field"),
        ({"e1": "100", "e3": "1e-11"}, "last-axis mode needs a vanishing e3 component; got |1e-11|"),
        # e3 vanishes at the corners and the centre, not at the samples between them
        ({"e1": "1", "e3": "x3*x3*x3 - x3"}, "last-axis mode needs a vanishing e3 component; got |0.375|"),
    ]:
        with pytest.raises(ModeError) as err:
            split_kernel(ExprField(n, components), default_mode(n), 1.0, ExprField.scalar(n, "1"), grid)
        assert str(err.value) == message
    # fine input: the mode holds at every sample, so the split goes on to its own check, which this g fails
    with pytest.raises(PreconditionError, match="input is not in the kernel of the squared operator"):
        split_kernel(ExprField(n, {"e1": "x2", "e2": "1"}), default_mode(n), 1.0, ExprField.scalar(n, "1"), grid)


def test_worked_example_n2():
    # f = e1, lam = 1, g = 1: A g = i e2, g_plus = (1 + i e2)/2
    n = 2
    f = e1_field(n)
    mode = default_mode(n)
    g = ExprField.scalar(n, "1")
    p = (0.3, -0.7)
    a1 = mv_value(operator_field(f, mode, g, "A").at(p, 0))
    assert (a1 - Multivector(n, {0b10: 1j})).norm() < 1e-14
    grid = GridSpec.cube(n, samples_per_axis=4)
    res = split_kernel(f, mode, 1.0, g, grid)
    expected_plus = Multivector(n, {0: 0.5 + 0j, 0b10: 0.5j})
    expected_minus = Multivector(n, {0: 0.5 + 0j, 0b10: -0.5j})
    assert (res.g_plus.value(p) - expected_plus).norm() < 1e-12
    assert (res.g_minus.value(p) - expected_minus).norm() < 1e-12
    assert res.reassembly_residual == 0.0
    assert res.plus_kernel_report.sup_norm <= 1e-12
    assert res.minus_kernel_report.sup_norm <= 1e-12


def test_split_kernel_last_axis_n3():
    n = 3
    f = e1_field(n)
    mode = default_mode(n)
    g = ExprField.scalar(n, "1")
    grid = GridSpec.cube(n, samples_per_axis=4)
    res = split_kernel(f, mode, 1.0, g, grid)
    assert res.passed
    assert res.plus_kernel_report.sup_norm <= 1e-10
    assert res.minus_kernel_report.sup_norm <= 1e-10
    assert res.reassembly_residual <= 1e-12


def test_split_kernel_rejects_nonkernel_input():
    n = 2
    grid = GridSpec.cube(n, samples_per_axis=3)
    with pytest.raises(PreconditionError):
        split_kernel(e1_field(n), default_mode(n), 1.0, ExprField.scalar(n, "x1^2 + 3"), grid)


def test_first_order_residual_sign_validation():
    n = 2
    grid = GridSpec.cube(n, samples_per_axis=3)
    from cliffcalc.fields import FieldError
    with pytest.raises(FieldError):
        grid_residual(first_order_check(e1_field(n), default_mode(n), 1.0, 0, ExprField.scalar(n, "1")), grid)


def test_squared_operator_is_schrodinger():
    # A^2 g = (-Lap - v) g for scalar g when f solves its Riccati equation
    n = 2
    f = e1_field(n)
    mode = default_mode(n)
    # v = -1: (-Lap + 1) phi = lam^2 phi; phi = exp(x1): -phi + phi... use phi = exp(2 x1): (-4+1) = -3
    phi = ExprField.scalar(n, "exp(2*x1)")
    lam = cmath.sqrt(-3)
    grid = GridSpec.cube(n, samples_per_axis=4)
    rep = grid_residual(eigen_check(operator_field(f, mode, operator_field(f, mode, phi)), phi, lam), grid)
    assert rep.passed


def test_norm_equivalence():
    n = 2
    f = e1_field(n)
    mode = default_mode(n)
    g = ExprField(n, {0: "exp(x1)", "e1": "x2", "e1^e2": "sin(x1)"})
    grid = GridSpec.cube(n, samples_per_axis=4)
    for sign in (+1, -1):
        for variant in ("A", "B"):
            gap = operator_norm_gap(f, mode, 1.5, sign, g, grid, variant)
            assert gap <= 1e-12


def test_decompose_schrodinger_pipeline():
    n = 2
    cand = RiccatiCandidate(e1_field(n), minus_one(n))
    phi = ExprField.scalar(n, "1")
    grid = GridSpec.cube(n, samples_per_axis=4)
    res = decompose_schrodinger_solution(cand, default_mode(n), 1.0, phi, grid)
    assert res.passed and res.variant == "A"
    assert res.reassembly_residual <= 1e-12


def test_decompose_rejects_bad_riccati():
    n = 2
    bad = RiccatiCandidate(e1_field(n), ExprField.scalar(n, "1"))
    grid = GridSpec.cube(n, samples_per_axis=3)
    with pytest.raises(PreconditionError):
        decompose_schrodinger_solution(bad, default_mode(n), 1.0, ExprField.scalar(n, "1"), grid)


def test_decompose_rejects_bad_eigenfunction():
    n = 2
    cand = RiccatiCandidate(e1_field(n), minus_one(n))
    grid = GridSpec.cube(n, samples_per_axis=3)
    with pytest.raises(PreconditionError):
        decompose_schrodinger_solution(cand, default_mode(n), 1.0,
                                       ExprField.scalar(n, "x1^2 + 3"), grid)


def test_decompose_conjugate_pipeline():
    # u = D f - f^2 = 1 for f = e1; (-Lap + 1) phi = lam^2 phi with phi = 1, lam = 1
    n = 2
    phi = ExprField.scalar(n, "1")
    grid = GridSpec.cube(n, samples_per_axis=4)
    res = decompose_conjugate_solution(e1_field(n), default_mode(n), 1.0, phi, grid)
    assert res.passed and res.variant == "B"
    assert res.reassembly_residual <= 1e-12


def test_operator_B_value():
    # B(1) = (D 1 + 1 * e1) i e1 e2 = i e1 e1 e2 = -i e2
    n = 2
    b = operator_field(e1_field(n), default_mode(n), ExprField.scalar(n, "1"), "B")
    b1 = mv_value(b.at((0.1, 0.2), 0))
    assert (b1 - Multivector(n, {0b10: -1j})).norm() < 1e-14


def test_reassembly_bound_is_part_of_the_verdict():
    ok = ResidualReport(0.0, 0.0, (0.0, 0.0), 9, 1e-9, True)
    g = ConstantField(Multivector.scalar(2, 1.0))
    assert DecompositionResult(g, g, 1.0, 0.0, ok, ok, ok).passed
    assert not DecompositionResult(g, g, 1.0, 1e-6, ok, ok, ok).passed
