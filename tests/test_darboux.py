import cmath
import random
import sys

import pytest

from cliffcalc import darboux, suites
from cliffcalc.algebra import Multivector
from cliffcalc.darboux import (
    CLOSED_FORMS,
    FactorizedOperator,
    as_lambda,
    darboux_kvector_pipeline,
    darboux_scalar_pipeline,
    darboux_transform,
    darboux_vector_pipeline,
    eigen_check,
    kvector_closed_form,
    minus_op,
    plus_op,
)
from cliffcalc.fields import (
    ExprField,
    FieldError,
    GridSpec,
    PreconditionError,
    grid_residual,
    mv_dirac,
    mv_laplacian,
    mv_value,
)
from cliffcalc.riccati import RiccatiCandidate
from cliffcalc.suites import random_kvector_field, random_mv_field, random_point


def e1_field(n):
    return ExprField(n, {"e1": "1"})


def minus_one(n):
    return ExprField.scalar(n, "0 - 1")


def test_spectral_param():
    assert as_lambda(2.0) == 2.0 + 0j
    with pytest.raises(FieldError):
        as_lambda(0.0)


def test_factorized_operator_signs():
    n = 2
    f = e1_field(n)
    g = ExprField.scalar(n, "x1")
    p = (0.3, 0.1)
    # (D + M^f) x1 = e1 + x1 e1, (D - M^f) x1 = e1 - x1 e1
    plus = mv_value(plus_op(f).field(g).at(p, 0))
    minus = mv_value(minus_op(f).field(g).at(p, 0))
    e1 = Multivector.basis(n, 1)
    assert (plus - e1 * (1 + 0.3)).norm() < 1e-14
    assert (minus - e1 * (1 - 0.3)).norm() < 1e-14
    with pytest.raises(FieldError):
        FactorizedOperator(f, 2)


def test_gen_schrodinger_residual():
    # f = e1, v = -1; phi = exp(2 x2): (D+Mf)(D-Mf) phi = -Lap phi + phi = -3 phi
    n = 3
    phi = ExprField.scalar(n, "exp(2*x2)")
    lam = cmath.sqrt(-3)
    f = e1_field(n)
    lhs = plus_op(f).field(minus_op(f).field(phi))
    rep = grid_residual(eigen_check(lhs, phi, lam), GridSpec.cube(n, samples_per_axis=4))
    assert rep.passed


def test_darboux_transform():
    n = 3
    phi = ExprField.scalar(n, "exp(2*x2)")
    lam = cmath.sqrt(-3)
    grid = GridSpec.cube(n, samples_per_axis=4)
    h, result = darboux_transform(e1_field(n), phi, lam, grid)
    assert result.passed
    # transported field is nonzero
    assert h.value((0.2, 0.1, -0.3)).norm() > 0.1


def test_darboux_transform_rejects_noneigen():
    n = 2
    grid = GridSpec.cube(n, samples_per_axis=3)
    with pytest.raises(PreconditionError):
        darboux_transform(e1_field(n), ExprField.scalar(n, "x1^2 + 2"), 1.0, grid)


def test_closed_forms_random():
    rng = random.Random(5)
    n = 3
    for _ in range(8):
        f = random_mv_field(rng, n, grades={1})
        for k in range(n + 1):
            gk = random_kvector_field(rng, n, k)
            p = random_point(rng, n)
            for which in ("plus_minus", "minus_plus"):
                closed, direct = kvector_closed_form(f, gk, k, which, p)
                assert (closed - direct).norm() <= 1e-10 * (1.0 + direct.norm()), (which, k)


def test_scalar_closed_form():
    rng = random.Random(6)
    n = 2
    f = random_mv_field(rng, n, grades={1})
    phi = ExprField.scalar(n, "exp(x1) + x2^2")
    # the scalar closed form is minus_plus at k = 0
    closed, direct = kvector_closed_form(f, phi, 0, "minus_plus", (0.4, -0.2))
    assert (closed - direct).norm() < 1e-12
    assert CLOSED_FORMS == ("plus_minus", "minus_plus")
    with pytest.raises(FieldError):
        kvector_closed_form(f, phi, 1, "minus_plus", (0.4, -0.2))
    with pytest.raises(FieldError):
        kvector_closed_form(f, phi, 0, "nope", (0.4, -0.2))


def test_closed_form_rejects_mixed_grades():
    n = 2
    f = e1_field(n)
    mixed = ExprField(n, {0: "1", "e1": "x1"})
    with pytest.raises(FieldError):
        kvector_closed_form(f, mixed, 0, "plus_minus", (0.1, 0.1))


def scalar_setup(n=3):
    # f = e1 solves D f + f^2 = -1; phi = exp(0.6 x2): -Lap phi + phi = 0.64 phi
    cand = RiccatiCandidate(e1_field(n), minus_one(n))
    phi = ExprField.scalar(n, "exp(0.6*x2)")
    return cand, phi, 0.8


def test_scalar_pipeline_worked_example():
    cand, phi, lam = scalar_setup()
    grid = GridSpec.cube(3, samples_per_axis=4)
    result = darboux_scalar_pipeline(cand, phi, lam, grid)
    assert result.passed
    assert result.conclusion.sup_norm <= 1e-9


def test_scalar_pipeline_rejects_bad_riccati():
    n = 2
    bad = RiccatiCandidate(e1_field(n), ExprField.scalar(n, "1"))
    with pytest.raises(PreconditionError):
        darboux_scalar_pipeline(bad, ExprField.scalar(n, "1"), 1.0,
                                GridSpec.cube(n, samples_per_axis=3))


def test_vector_pipeline():
    cand, phi, lam = scalar_setup()
    grid = GridSpec.cube(3, samples_per_axis=4)
    g1 = minus_op(cand.f).field(phi)
    result = darboux_vector_pipeline(cand.f, g1, lam, grid)
    assert result.passed


def test_kvector_pipeline():
    n = 3
    grid = GridSpec.cube(n, samples_per_axis=4)
    f = e1_field(n)
    G = ExprField(n, {"e2^e3": "exp(2*x2)"})
    lam = cmath.sqrt(-3)
    result = darboux_kvector_pipeline(f, G, 2, lam, grid)
    assert result.passed
    assert set(dict(result.reports())) == {"precondition:scalar_potential",
                                           "precondition:eigen_equation", "conclusion"}


def test_kvector_pipeline_rejects_bad_input():
    n = 2
    grid = GridSpec.cube(n, samples_per_axis=3)
    with pytest.raises(PreconditionError):
        darboux_kvector_pipeline(e1_field(n), ExprField(n, {"e1^e2": "x1^2 + 2"}), 2, 1.0, grid)


def test_k0_specialization_matches_scalar_pipeline():
    cand, phi, lam = scalar_setup()
    grid = GridSpec.cube(3, samples_per_axis=4)
    scalar_res = darboux_scalar_pipeline(cand, phi, lam, grid)
    k0_res = darboux_kvector_pipeline(cand.f, phi, 0, lam, grid)
    assert abs(scalar_res.conclusion.sup_norm - k0_res.conclusion.sup_norm) <= 1e-12


def test_k1_specialization_matches_vector_pipeline():
    cand, phi, lam = scalar_setup()
    grid = GridSpec.cube(3, samples_per_axis=4)
    g1 = minus_op(cand.f).field(phi)
    vec_res = darboux_vector_pipeline(cand.f, g1, lam, grid)
    k1_res = darboux_kvector_pipeline(cand.f, g1, 1, lam, grid)
    assert abs(vec_res.conclusion.sup_norm - k1_res.conclusion.sup_norm) <= 1e-12


def _count_calls(monkeypatch, original):
    """The list of argument tuples of every call of `original`, through any binding in the package."""
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in [m for name, m in sys.modules.items() if name.startswith("cliffcalc") and m is not None]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


def test_operator_identities_share_their_operator_fields(monkeypatch):
    factors, diracs = _count_calls(monkeypatch, darboux._factor_jet), _count_calls(monkeypatch, mv_dirac)
    rounds = 3
    entries = suites._entries(suites._operator_round, suites._OPERATOR, random.Random(4), 3, rounds)
    assert all(report.passed for _, report in entries)
    # (D - M^f) g and (D + M^f) g are each one field, from which A g, B g and both compositions
    # are built, and each is read at order 1 first and then truncated, so a round makes 8
    # operator applications instead of 12
    assert len(factors) == 8 * rounds
    # the two factors on g share D(g), and so do the two on g iE: of the 8 applications' Dirac
    # derivatives, a round computes 6
    assert len(diracs) == 6 * rounds


def test_closed_forms_share_one_dirac_of_f(monkeypatch):
    calls = _count_calls(monkeypatch, mv_dirac)
    entries = suites._entries(suites._closed_form_round, suites._CLOSED_FORM, random.Random(5), 3, 2)
    assert all(report.passed for _, report in entries)
    # per round, the points of each of the 4 k-vector fields as one batch: D(f) once for both
    # forms' potentials, D(G) once for both inner factors (D -/+ M^f) G, and the outer D of each
    # direct side (4 calls); the points of phi: D(f), D(phi) and the outer D of minus_plus (3)
    assert len(calls) == 2 * (4 * 4 + 3) == 38


def test_closed_forms_share_one_laplacian_of_g(monkeypatch):
    calls = _count_calls(monkeypatch, mv_laplacian)
    entries = suites._entries(suites._closed_form_round, suites._CLOSED_FORM, random.Random(5), 3, 2)
    assert all(report.passed for _, report in entries)
    # -Lap G is one node on G that both closed forms read: per round one call for the points of
    # each of the 4 k-vector fields and one for those of phi, not one per form
    assert len(calls) == 2 * (4 + 1) == 10


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("which", CLOSED_FORMS)
def test_closed_and_direct_sides_share_only_their_inputs(which, k):
    def reachable(field):
        seen, todo = set(), [field]
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                todo.extend(input_field for input_field, _ in node.inputs)
        return seen

    rng = random.Random(k)
    f = random_mv_field(rng, 3, grades={1})
    g = darboux.pure_field(random_kvector_field(rng, 3, k), k, "not pure")
    closed, direct = darboux.closed_forms(f, g, k)[which]
    # a node shared across the sides could make a wrong closed form agree with itself
    assert reachable(closed) & reachable(direct) == reachable(g) | reachable(f)


def test_closed_forms_share_one_grade_check_of_g(monkeypatch):
    calls = []
    original = darboux.pure_field

    def counting(g, k, what):
        field = original(g, k, what)
        check = field.fn
        field.fn = lambda gj: calls.append(gj) or check(gj)
        return field

    for module in [m for name, m in sys.modules.items() if name.startswith("cliffcalc") and hasattr(m, "pure_field")]:
        monkeypatch.setattr(module, "pure_field", counting)
    entries = suites._entries(suites._closed_form_round, suites._CLOSED_FORM, random.Random(5), 3, 2)
    assert all(report.passed for _, report in entries)
    # both forms of a field are one graph on one pure_field: per round, one grade check for the
    # points of each of the 4 k-vector fields and one for those of phi, not one per form
    assert len(calls) == 10


def test_closed_forms_share_one_square_of_f(monkeypatch):
    calls = []
    original = Multivector.__mul__
    monkeypatch.setattr(Multivector, "__mul__", lambda self, other: calls.append(other) or original(self, other))
    entries = suites._entries(suites._closed_form_round, suites._CLOSED_FORM, random.Random(5), 3, 2)
    assert all(report.passed for _, report in entries)
    # f * f is the one field f.square, which both forms' potentials read: 16 products fewer than
    # with one square per form at each of the 16 k-vector points
    assert len(calls) <= 184
