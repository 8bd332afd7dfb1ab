import cmath
import itertools
import math
import sys

import pytest

import cliffcalc.riccati
from cliffcalc.algebra import Multivector
from cliffcalc.batch import Batch, Mixed
from cliffcalc.expr import parse
from cliffcalc.fields import (
    EPS_FD,
    ConstantField,
    ExprField,
    FieldError,
    GridSpec,
    Identity,
    PreconditionError,
    grid_residual,
    mv_dirac,
)
from cliffcalc.riccati import (
    OdeBlowupError,
    RiccatiCandidate,
    _AxisSolution,
    combination_family_gap,
    euler_combine,
    euler_shift,
    log_derivative,
    riccati_residual,
    separable_solve,
    vector_split_residuals,
)
from cliffcalc.taylor import JetDomainError


def minus_one(n):
    return ExprField.scalar(n, "0 - 1")


def test_constant_solution():
    # f = e1: D(f) = 0, f^2 = -1, so v = -1
    n = 3
    cand = RiccatiCandidate(ConstantField(Multivector.basis(n, 1)), minus_one(n))
    rep = riccati_residual(cand, GridSpec.cube(n, samples_per_axis=4))
    assert rep.passed and rep.sup_norm < 1e-14


def test_log_derivative_round_trip():
    n = 2
    phi = ExprField.scalar(n, "exp(x1) + exp(0.5*x2)")
    cand = log_derivative(phi)
    rep = riccati_residual(cand, GridSpec.cube(n, samples_per_axis=5))
    assert rep.passed
    assert rep.sup_norm < 1e-12


def test_log_derivative_of_a_field_with_no_scalar_part_is_a_field_error():
    # phi has no scalar blade, so its scalar part reads as 0j, not a jet
    with pytest.raises(FieldError, match="^vanishing scalar denominator$"):
        riccati_residual(log_derivative(ExprField(2, {"e1": "x1 + 2"})), GridSpec.cube(2, samples_per_axis=3))


@pytest.mark.parametrize("p", [(0.0, 0.5), (Batch([0.0, 0.0]), Batch([0.5, 0.7]))], ids=["point", "chunk"])
def test_log_derivative_at_a_zero_of_phi_is_a_jet_domain_error(p):
    with pytest.raises(JetDomainError, match="^division by a value that is zero at the base point$"):
        log_derivative(ExprField.scalar(2, "x1")).potential.value(p)


def test_log_derivative_on_a_chunk_through_a_zero_of_phi_is_mixed():
    # phi vanishes at one point of the chunk only
    with pytest.raises(Mixed):
        log_derivative(ExprField.scalar(2, "x1")).potential.value((Batch([0.0, 0.3]), Batch([0.5, 0.7])))


def test_log_derivative_known_value():
    # phi = exp(a x1): f = a e1, v = -a^2
    n = 2
    phi = ExprField.scalar(n, "exp(0.7*x1)")
    cand = log_derivative(phi)
    p = (0.3, 0.9)
    assert (cand.f.value(p) - Multivector.basis(n, 1) * 0.7).norm() < 1e-13
    assert cand.potential.value(p).scalar_part() == pytest.approx(-0.49)


def test_vector_split(monkeypatch):
    n = 2
    diracs = []
    # a field keeps the function it is built with, so the counter is installed first
    for module in [m for name, m in sys.modules.items() if name.startswith("cliffcalc") and hasattr(m, "mv_dirac")]:
        monkeypatch.setattr(module, "mv_dirac", lambda mv: diracs.append(mv) or mv_dirac(mv))
    cand = log_derivative(ExprField.scalar(n, "exp(x1)*exp(x2)"))
    full, s_rep, b_rep = vector_split_residuals(cand, GridSpec.cube(n, samples_per_axis=4))
    assert full.passed and s_rep.passed and b_rep.passed
    # per point one for f = D(phi)/phi and one for D(f) + f f, which the three reports share;
    # a call on a chunk's jets counts once for each of its points
    values = [next(iter(mv.terms.values())).value for mv in diracs]
    assert sum(len(v) if type(v) is Batch else 1 for v in values) == 2 * 4 ** n


def test_vector_split_rejects_nonvector():
    n = 2
    cand = RiccatiCandidate(ExprField.scalar(n, "1"), minus_one(n))
    with pytest.raises(FieldError):
        vector_split_residuals(cand, GridSpec.cube(n, samples_per_axis=3))


def test_axis_solution_matches_tanh():
    # v = -1: f' = 1 - f^2, f(0) = 0 has the solution tanh(x)
    sol = _AxisSolution(parse("0 - 1", 1), 1, 0.0, 0.0, -2.0, 2.0, 1e-3, 1e6)
    for x in (-1.5, -0.4, 0.37, 1.0, 2.0):
        assert abs(sol(x) - math.tanh(x)) < 1e-9
    assert abs(sol(1.0) - 0.7615941559557649) < 1e-6


def test_separable_assembles_tanh_field():
    n = 3
    cand = separable_solve([parse("0 - 1", n)] * n, [0.0] * n, [0.0] * n,
                           [(-0.9, 0.9)] * n)
    rep = riccati_residual(cand, GridSpec((( -0.9, 0.9),) * n, 5), eps=EPS_FD)
    assert rep.passed
    p = (0.5, -0.2, 0.1)
    v = cand.f.value(p)
    for j in range(n):
        assert abs(v.coeff(1 << j) - math.tanh(p[j])) < 1e-9


def test_separable_blow_up_flagged():
    # v = +1: f' = -1 - f^2 from f(0)=0 is -tan(x), pole at pi/2
    with pytest.raises(OdeBlowupError) as err:
        separable_solve([parse("1", 1)], [0.0], [0.0], [(-1.0, 2.0)])
    assert 1.4 < err.value.x < 1.7
    assert err.value.axis == 1


def test_separable_rejects_mixed_variables():
    with pytest.raises(FieldError):
        separable_solve([parse("x2", 2), parse("x2", 2)], [0, 0], [0, 0],
                        [(-1, 1), (-1, 1)])


def test_check_harmonic():
    n = 2
    grid = GridSpec.cube(n, samples_per_axis=3)

    def harmonic(src):  # -Lap(phi) = 0, scaled by |phi|
        phi = ExprField.scalar(n, src)
        return Identity(phi.neg_laplacian, None, phi)

    assert grid_residual(harmonic("x1*x2"), grid).passed
    assert not grid_residual(harmonic("x1^2"), grid).passed


def test_euler_shift_worked_example():
    # h = e1 solves v = -1; phi = exp(-2 x1) gives f = -2 e1 + e1 = -e1
    n = 3
    h = RiccatiCandidate(ConstantField(Multivector.basis(n, 1)), minus_one(n))
    phi = ExprField.scalar(n, "exp(0 - 2*x1)")
    cand, rep = euler_shift(h, phi, GridSpec.cube(n, samples_per_axis=4))
    assert rep.passed
    for p in [(0.0, 0.0, 0.0), (0.5, -0.5, 0.25)]:
        assert (cand.f.value(p) + Multivector.basis(n, 1)).norm() < 1e-12


def test_euler_shift_rejects_bad_phi():
    n = 2
    h = RiccatiCandidate(ConstantField(Multivector.basis(n, 1)), minus_one(n))
    with pytest.raises(PreconditionError):
        euler_shift(h, ExprField.scalar(n, "exp(x2)"), GridSpec.cube(n, samples_per_axis=3))


def test_euler_combine():
    # phi1 = x1, phi2 = x2 both have D(phi) constant unit vectors solving v = -1
    n = 3
    grid = GridSpec.cube(n, samples_per_axis=5)
    for K in (2.0, -3.0, 0.5):
        cand, rep = euler_combine(ExprField.scalar(n, "x1"), ExprField.scalar(n, "x2"),
                                  K, minus_one(n), grid)
        assert rep.passed, K
        assert rep.sup_norm < rep.tolerance


def test_euler_combine_rejects_wrong_potential():
    n = 2
    with pytest.raises(PreconditionError):
        euler_combine(ExprField.scalar(n, "x1"), ExprField.scalar(n, "x2"), 2.0,
                      ExprField.scalar(n, "1"), GridSpec.cube(n, samples_per_axis=3))


def test_combination_family_gap():
    n = 3
    grid = GridSpec.cube(n, samples_per_axis=5)
    res = combination_family_gap(n, grid, [2.0, -3.0, 0.5])
    assert res.passed
    assert res.base_report.passed
    assert all(d >= 0.1 for d in res.distances.values())
    with pytest.raises(FieldError):
        combination_family_gap(2, GridSpec.cube(2, samples_per_axis=3), [2.0])


@pytest.mark.parametrize("K_samples", [[2.0], [2.0, -3.0, 0.5]])
def test_family_gap_verifies_its_inputs_once(monkeypatch, K_samples):
    calls = []
    original = cliffcalc.riccati.riccati_check

    def counting(*args, **kwargs):
        calls.append(args[0].provenance)
        return original(*args, **kwargs)

    monkeypatch.setattr(cliffcalc.riccati, "riccati_check", counting)
    combination_family_gap(3, GridSpec.cube(3, samples_per_axis=3), K_samples)
    assert calls == ["constant", "euler_input", "euler_input"]


def test_family_gap_distances_match_the_euler_combine_blend():
    n = 3
    grid = GridSpec.cube(n, samples_per_axis=5)
    phi1, phi2 = ExprField.scalar(n, "x1"), ExprField.scalar(n, "x2")
    e3 = Multivector.basis(n, 3)
    Ks = [2.0, complex(-3, 1), 0.5]
    res = combination_family_gap(n, grid, Ks)
    for K in Ks:
        candidate, _ = euler_combine(phi1, phi2, K, minus_one(n), grid)
        expected = 0.0
        for p in itertools.product([-1.0 + 2.0 * i / 4 for i in range(5)], repeat=n):
            if abs(cmath.exp(p[0] - p[1]) * K - 1.0) >= 1e-2:
                expected = max(expected, (candidate.f.value(p) - e3).norm())
        assert res.distances[complex(K)] == expected


@pytest.mark.parametrize("step", [0.0, -1e-3])
def test_separable_step_must_be_positive(step):
    # a negative step would march each half of the axis the wrong way
    with pytest.raises(FieldError):
        separable_solve([parse("0 - 1", 2)] * 2, [0.0, 0.0], [0.5, 0.5],
                        ((-1.0, 1.0), (-1.0, 1.0)), step=step)


def test_to_json():
    n = 2
    cand = RiccatiCandidate(ExprField(n, {"e1": "x1"}), ExprField.scalar(n, "1"))
    d = cand.to_json()
    assert d["f"] == {"e1": "x1"}
    assert d["provenance"] == "user"
    bad = RiccatiCandidate(ConstantField(Multivector.basis(n, 1)), minus_one(n))
    with pytest.raises(FieldError):
        bad.to_json()
